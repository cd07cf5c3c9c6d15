"""The vectorised plan sweep at every ISA level the host can run.

Each level's build (``repro.pp.native.ISA_FLAGS``, compiled through the
shared loader) must match the numpy executor bit for bit on plans whose
groups straddle the target-tile width: 1, W-1, W, W+1 and 2W+3 targets,
wrap and no-wrap groups, power-of-two and other boxes, with and without
the S2 split, unsoftened self pairs, on one and two threads.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pp.plan as plan_mod
from repro.forces.cutoff import S2ForceSplit
from repro.native import build
from repro.pp import native
from repro.pp.kernel import PPKernel
from repro.pp.plan import InteractionPlan, PlanExecutor

W = 8  # lanes per target tile in _plansweep.c
SIZES = [1, W - 1, W, W + 1, 2 * W + 3]

KERNELS = [
    PPKernel(split=S2ForceSplit(0.3), eps=0.0, G=2.0, box=1.0),
    PPKernel(split=S2ForceSplit(0.3), eps=1e-3, box=1.0),
    PPKernel(split=S2ForceSplit(0.3), eps=0.0, box=0.75),
    PPKernel(split=None, eps=0.0, box=1.0),
    PPKernel(split=None, eps=1e-3, box=1.5),
    PPKernel(split=None, eps=1e-3, box=None),
]


def _host_lib(level):
    if level > build.isa_level():
        pytest.skip(f"host cannot run ISA level {level}")
    lib = native.load(level)
    if lib is None:
        pytest.skip(f"no sweep build for ISA level {level}")
    return lib


def _plan():
    """Two groups of each size in SIZES, one wrap and one no-wrap; every
    group's list holds its own targets (self pairs), random particles
    and accepted nodes."""
    rng = np.random.default_rng(1406)
    sizes = [s for s in SIZES for _ in (0, 1)]
    hi = np.cumsum(sizes)
    lo = hi - sizes
    N, M = int(hi[-1]), 9
    pidx, pptr, nidx, nptr = [], [0], [], [0]
    for a, b in zip(lo, hi):
        own = np.arange(a, b)
        pidx.append(np.concatenate([own, rng.integers(0, N, 13)]))
        pptr.append(pptr[-1] + len(pidx[-1]))
        nidx.append(rng.integers(0, M, 5))
        nptr.append(nptr[-1] + 5)
    G = len(sizes)
    plan = InteractionPlan(
        group_nodes=np.zeros(G, dtype=np.int64),
        group_lo=lo.astype(np.int64),
        group_hi=hi.astype(np.int64),
        part_ptr=np.array(pptr, dtype=np.int64),
        part_idx=np.concatenate(pidx).astype(np.int64),
        node_ptr=np.array(nptr, dtype=np.int64),
        node_idx=np.concatenate(nidx).astype(np.int64),
        no_wrap=np.arange(G) % 2 == 0,
    )
    arrays = (
        rng.random((N, 3)),
        rng.random(N) + 0.5,
        rng.random((M, 3)),
        rng.random(M) + 1.0,
    )
    return plan, arrays


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("level", list(native.ISA_FLAGS))
def test_level_matches_numpy_bitwise(level, threads, monkeypatch):
    lib = _host_lib(level)
    monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
    plan, (pos, mass, ncom, nmass) = _plan()
    numpy_exec = PlanExecutor(use_native=False)
    native_exec = PlanExecutor()
    for kern in KERNELS:
        want = numpy_exec.execute(plan, kern, pos, mass, ncom, nmass)
        got = np.zeros_like(pos)
        native_exec._execute_native(lib, plan, kern, pos, mass, ncom, nmass, got)
        assert np.all(np.isfinite(got)), kern
        assert np.array_equal(want, got), (level, threads, kern)


def test_levels_have_distinct_cache_keys():
    keys = {
        build.source_key(native._SRC, build.BASE_FLAGS + flags)
        for flags in native.ISA_FLAGS.values()
    }
    assert None not in keys
    assert len(keys) == len(native.ISA_FLAGS)


def test_self_test_verdict_is_per_library(monkeypatch):
    libs = [
        native.load(lv) for lv in native.ISA_FLAGS if lv <= build.isa_level()
    ]
    libs = [lib for lib in libs if lib is not None]
    if len(libs) < 2:
        pytest.skip("fewer than two sweep builds on this host")
    bad = libs[0]
    monkeypatch.setattr(plan_mod, "_verified", {})
    monkeypatch.setattr(plan_mod, "_self_test", lambda lib: lib is not bad)
    assert not plan_mod._native_verified(bad)
    assert all(plan_mod._native_verified(lib) for lib in libs[1:])
