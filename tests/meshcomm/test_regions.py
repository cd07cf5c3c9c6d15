"""Tests of generic region redistribution and the pencil PM solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.mesh.poisson import PMSolver
from repro.meshcomm.parallel_pm import ParallelPM
from repro.meshcomm.regions import redistribute
from repro.meshcomm.slab import LocalMeshRegion
from repro.mpi.runtime import run_spmd

N = 8


def _fill_from_global(region, glob):
    ix = region.wrapped_indices(0)
    iy = region.wrapped_indices(1)
    iz = region.wrapped_indices(2)
    return glob[np.ix_(ix, iy, iz)].astype(float)


class TestRedistribute:
    def test_slab_to_pencil_replace(self):
        """x-slabs -> (y, z) pencils: every pencil cell covered once."""
        rng = np.random.default_rng(2)
        glob = rng.random((N, N, N))
        src = [
            LocalMeshRegion(n=N, lo=(4 * r, 0, 0), shape=(4, N, N), ghost=0)
            for r in range(2)
        ]
        dst = [
            LocalMeshRegion(n=N, lo=(0, 4 * (r // 1) % 8, 0), shape=(N, 4, N))
            for r in range(2)
        ]

        def fn(comm):
            local = _fill_from_global(src[comm.rank], glob)
            return redistribute(
                comm, local, src[comm.rank], dst[comm.rank], combine="replace"
            )

        out = run_spmd(2, fn)
        for r in range(2):
            np.testing.assert_allclose(out[r], _fill_from_global(dst[r], glob))

    def test_add_combines_overlapping_ghosts(self):
        """Ghosted sources contribute partial sums that must add."""
        src = [
            LocalMeshRegion(n=N, lo=(4 * r, 0, 0), shape=(4, N, N), ghost=1)
            for r in range(2)
        ]
        dst = [
            LocalMeshRegion(n=N, lo=(4 * r, 0, 0), shape=(4, N, N), ghost=0)
            for r in range(2)
        ]

        def fn(comm):
            local = src[comm.rank].allocate()
            local += 1.0  # every source cell contributes 1
            return redistribute(
                comm, local, src[comm.rank], dst[comm.rank], combine="add"
            )

        out = run_spmd(2, fn)
        # interior cells covered by 1 interior + possibly ghosts: the
        # x-planes adjacent to a boundary receive 2 contributions
        for r in range(2):
            assert out[r][1, 5, 5] >= 1.0
            # boundary plane: own interior + neighbor ghost
            assert out[r][0, 5, 5] == pytest.approx(2.0)

    def test_rank_without_source_or_dest(self):
        glob = np.arange(N**3, dtype=float).reshape(N, N, N)
        full = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(N, N, N))

        def fn(comm):
            if comm.rank == 0:
                return redistribute(comm, glob.copy(), full, None, "replace")
            return redistribute(comm, None, None, full, "replace")

        out = run_spmd(2, fn)
        assert out[0] is None
        np.testing.assert_array_equal(out[1], glob)

    def test_incomplete_coverage_detected(self):
        half = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(4, N, N))
        full = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(N, N, N))

        def fn(comm):
            redistribute(
                comm, half.allocate(), half, full, combine="replace"
            )

        with pytest.raises(RuntimeError, match="covered"):
            run_spmd(1, fn)

    def test_validation(self):
        full = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(N, N, N))

        def bad_combine(comm):
            redistribute(comm, None, None, full, combine="mean")

        with pytest.raises(RuntimeError, match="combine"):
            run_spmd(1, bad_combine)

        def mismatched(comm):
            redistribute(comm, np.zeros((2, 2, 2)), full, full)

        with pytest.raises(RuntimeError, match="match"):
            run_spmd(1, mismatched)


class TestParallelPencilPM:
    """``ParallelPM(fft="pencil")``: the pencil FFT layout of the PM cycle."""

    @pytest.fixture(scope="class")
    def particles(self):
        rng = np.random.default_rng(2013)
        pos = rng.random((150, 3))
        mass = rng.random(150) / 150 + 1e-3
        return pos, mass

    @pytest.mark.parametrize(
        "n_ranks,grid",
        [(1, (1, 1)), (2, (2, 1)), (4, (2, 2)), (6, (2, 2)), (4, None)],
    )
    def test_matches_serial_pm(self, particles, n_ranks, grid):
        pos, mass = particles
        split = S2ForceSplit(3.0 / 16)
        ref = PMSolver(16, split=split).forces(pos, mass)

        def fn(comm):
            lo = np.array([comm.rank / comm.size, 0.0, 0.0])
            hi = np.array([(comm.rank + 1) / comm.size, 1.0, 1.0])
            sel = np.all((pos >= lo) & (pos < hi), axis=1)
            ppm = ParallelPM(comm, 16, split=split, fft="pencil", grid=grid)
            return sel, ppm.forces(pos[sel], mass[sel], lo, hi)

        results = run_spmd(n_ranks, fn)
        acc = np.zeros_like(pos)
        for sel, a in results:
            acc[sel] = a
        np.testing.assert_allclose(acc, ref, atol=1e-10)

    def test_more_fft_processes_than_mesh_side(self, particles):
        """The point of the pencil path: a 4x4 grid = 16 FFT processes
        on an 8^3 mesh (the slab FFT caps at 8)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / 8)
        ref = PMSolver(8, split=split).forces(pos, mass)

        def fn(comm):
            lo = np.array([comm.rank / comm.size, 0.0, 0.0])
            hi = np.array([(comm.rank + 1) / comm.size, 1.0, 1.0])
            sel = np.all((pos >= lo) & (pos < hi), axis=1)
            ppm = ParallelPM(comm, 8, split=split, fft="pencil", grid=(4, 4))
            return sel, ppm.forces(pos[sel], mass[sel], lo, hi)

        results = run_spmd(16, fn)
        acc = np.zeros_like(pos)
        for sel, a in results:
            acc[sel] = a
        np.testing.assert_allclose(acc, ref, atol=1e-10)

    def test_invalid_grid(self, particles):
        def fn(comm):
            ParallelPM(comm, 16, fft="pencil", grid=(3, 3))

        with pytest.raises(RuntimeError, match="grid"):
            run_spmd(4, fn)