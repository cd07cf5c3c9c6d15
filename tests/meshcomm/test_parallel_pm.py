"""Tests of the full distributed PM cycle, including relay mesh mode.

The defining property: the distributed solver (any rank count, any
group count) produces the same long-range forces as the serial
:class:`repro.mesh.poisson.PMSolver` — the relay mesh method is a pure
communication optimization and must not change the physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.mesh.poisson import PMSolver
from repro.meshcomm.parallel_pm import ParallelPM
from repro.mpi.runtime import MPIRuntime, run_spmd

N_MESH = 16


def _slab_domains(n_ranks):
    """1-D x-slice spatial domains."""
    doms = []
    for r in range(n_ranks):
        doms.append(
            (np.array([r / n_ranks, 0.0, 0.0]), np.array([(r + 1) / n_ranks, 1.0, 1.0]))
        )
    return doms


def _grid_domains(div):
    """3-D rectangular domains from a (dx, dy, dz) division."""
    doms = []
    for i in range(div[0]):
        for j in range(div[1]):
            for k in range(div[2]):
                lo = np.array([i / div[0], j / div[1], k / div[2]])
                hi = np.array([(i + 1) / div[0], (j + 1) / div[1], (k + 1) / div[2]])
                doms.append((lo, hi))
    return doms


def _owned(pos, lo, hi):
    return np.all((pos >= lo) & (pos < hi), axis=1)


def _run_parallel(pos, mass, domains, split=None, n_fft=None, n_groups=1):
    n_ranks = len(domains)

    def fn(comm):
        lo, hi = domains[comm.rank]
        sel = _owned(pos, lo, hi)
        ppm = ParallelPM(
            comm, N_MESH, split=split, n_fft=n_fft, n_groups=n_groups
        )
        acc = ppm.forces(pos[sel], mass[sel], lo, hi)
        return sel, acc

    results = run_spmd(n_ranks, fn)
    acc = np.full_like(pos, np.nan)
    covered = np.zeros(len(pos), dtype=bool)
    for sel, a in results:
        acc[sel] = a
        covered |= sel
    assert covered.all(), "domains must cover every particle"
    return acc


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(2012)
    pos = rng.random((200, 3))
    mass = rng.random(200) / 200 + 1e-3
    return pos, mass


@pytest.fixture(scope="module")
def serial_ref(particles):
    pos, mass = particles
    split = S2ForceSplit(3.0 / N_MESH)
    return PMSolver(N_MESH, split=split).forces(pos, mass)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("n_ranks,n_fft", [(1, 1), (2, 2), (4, 2), (4, 4)])
    def test_slab_domains(self, particles, serial_ref, n_ranks, n_fft):
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(pos, mass, _slab_domains(n_ranks), split, n_fft)
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_3d_domains(self, particles, serial_ref):
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(pos, mass, _grid_domains((2, 2, 2)), split, n_fft=4)
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_pure_pm_no_split(self, particles):
        pos, mass = particles
        ref = PMSolver(N_MESH).forces(pos, mass)
        acc = _run_parallel(pos, mass, _slab_domains(2))
        np.testing.assert_allclose(acc, ref, atol=1e-11)


class TestRelayMesh:
    @pytest.mark.parametrize("n_ranks,n_fft,n_groups", [
        (4, 2, 2),
        (6, 2, 3),
        (6, 3, 2),
        (8, 2, 4),
        (9, 3, 3),
    ])
    def test_relay_equals_direct(self, particles, serial_ref, n_ranks, n_fft, n_groups):
        """The relay mesh method is physics-neutral for every group
        layout (paper: replaces the global exchange only)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(
            pos, mass, _slab_domains(n_ranks), split, n_fft, n_groups
        )
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_relay_reduces_senders_per_fft_process(self, particles):
        """The whole point of the method: with groups, the number of
        distinct sources sending to an FFT process during the mesh
        conversion drops from ~p to ~(group size)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        n_ranks, n_fft = 8, 2

        def job(n_groups):
            rt = MPIRuntime(n_ranks)
            domains = _slab_domains(n_ranks)

            def fn(comm):
                lo, hi = domains[comm.rank]
                sel = _owned(pos, lo, hi)
                ppm = ParallelPM(
                    comm, N_MESH, split=split, n_fft=n_fft, n_groups=n_groups
                )
                ppm.forces(pos[sel], mass[sel], lo, hi)

            rt.run(fn)
            ph = rt.traffic.phase("pm:mesh_to_slab")
            return ph.max_senders_per_receiver()

        direct = job(1)
        relay = job(4)
        assert relay < direct

    def test_default_n_fft_fits_the_root_group(self, particles, serial_ref):
        """Without an explicit ``n_fft`` the FFT processes default to
        ``min(size // n_groups, n)`` so they fit in the relay root group
        (``min(size, n)`` would ask for 2 * 4 ranks out of 4)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)

        def fn(comm):
            return ParallelPM(comm, N_MESH, split=split, n_groups=2).n_fft

        assert run_spmd(4, fn) == [2, 2, 2, 2]
        acc = _run_parallel(pos, mass, _slab_domains(4), split, n_groups=2)
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_pencil_rejects_relay_groups(self):
        """The pencil FFT has no relay mesh; asking for one is an error,
        not a silently ignored setting."""
        def fn(comm):
            ParallelPM(comm, N_MESH, fft="pencil", n_groups=2)

        with pytest.raises(RuntimeError, match="n_groups"):
            run_spmd(4, fn)

    def test_unknown_layout_rejected(self):
        def fn(comm):
            ParallelPM(comm, N_MESH, fft="cube")

        with pytest.raises(RuntimeError, match="fft must be"):
            run_spmd(2, fn)

    def test_invalid_group_config(self):
        def fn(comm):
            ParallelPM(comm, N_MESH, n_fft=4, n_groups=2)  # 8 > 4 ranks

        with pytest.raises(RuntimeError, match="n_groups"):
            run_spmd(4, fn)

    def test_invalid_n_fft(self):
        def fn(comm):
            ParallelPM(comm, N_MESH, n_fft=99)

        with pytest.raises(RuntimeError, match="n_fft"):
            run_spmd(2, fn)


class TestTimingAndTraffic:
    def test_table1_phase_names(self, particles):
        from repro.utils.timer import TimingLedger

        pos, mass = particles
        domains = _slab_domains(2)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            ppm = ParallelPM(comm, N_MESH)
            timing = TimingLedger()
            ppm.forces(pos[sel], mass[sel], lo, hi, timing=timing)
            return set(timing.as_dict())

        out = run_spmd(2, fn)
        expected = {
            "PM/density assignment",
            "PM/communication",
            "PM/FFT",
            "PM/acceleration on mesh",
            "PM/force interpolation",
        }
        for phases in out:
            assert expected <= phases

    def test_traffic_phases_recorded(self, particles):
        pos, mass = particles
        domains = _slab_domains(4)
        rt = MPIRuntime(4)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            ppm = ParallelPM(comm, N_MESH, n_fft=2)
            ppm.forces(pos[sel], mass[sel], lo, hi)

        rt.run(fn)
        m2s = rt.traffic.phase("pm:mesh_to_slab")
        s2m = rt.traffic.phase("pm:slab_to_mesh")
        assert m2s.total_bytes > 0
        assert s2m.total_bytes > 0
