"""The benchmark's own tests: its output checks reject corrupted runs,
its tracer leaves the program as it found it, and its metric lists
match ``BENCHMARK.json``.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, report, run, trial  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def halo_run():
    """A short real ``halo-pp`` trial: initial inputs and the trial."""
    os.environ.setdefault(
        "REPRO_NATIVE_CACHE", str(ROOT / ".bench_build" / "native")
    )
    w = W.WORKLOADS["halo-pp"]
    pos, mom, mass = W.make_inputs(w, 3)
    out = trial.serial_trial(w.name, 3, 0.5, False)
    return {"pos": pos, "mom": mom, "mass": mass}, out


def _copy(final):
    return {k: np.array(v) for k, v in final.items()}


def test_clean_run_passes(halo_run):
    initial, out = halo_run
    assert out["steps"] >= trial.MIN_STEPS
    assert checks.check_state(
        initial, out["final"], out["max_disp"] * 32, out["impulse"]
    ) == []


@pytest.mark.parametrize("corrupt", [
    "nan_position", "inf_momentum", "lost_particle", "duplicated_id",
    "heavier_particle", "momentum_kick",
])
def test_corrupted_state_fails(halo_run, corrupt):
    initial, out = halo_run
    final = _copy(out["final"])
    if corrupt == "nan_position":
        final["pos"][17, 1] = np.nan
    elif corrupt == "inf_momentum":
        final["mom"][5, 0] = np.inf
    elif corrupt == "lost_particle":
        final = {k: v[:-1] for k, v in final.items()}
    elif corrupt == "duplicated_id":
        final["ids"][3] = final["ids"][4]
    elif corrupt == "heavier_particle":
        final["mass"][0] *= 1.0 + 1e-15
    elif corrupt == "momentum_kick":
        final["mom"][0] += 1.0 / final["mass"][0]
    assert checks.check_state(initial, final, 0.0, out["impulse"])


def test_large_step_displacement_fails(halo_run):
    initial, out = halo_run
    reach = checks.ghost_reach_cells()
    assert reach == 1.0
    assert checks.check_state(
        initial, out["final"], 1.5 * reach, out["impulse"]
    )


def test_corrupted_forces_fail():
    w = W.WORKLOADS["halo-pp"]
    probe = W.probe_indices(w.n_particles, 8)
    acc = trial.probe_forces(w.name, run.PROBE_SEED, probe)
    ref = run.ewald_reference(w, probe)
    err = checks.force_rms_error(acc, ref)
    assert checks.check_force(err) == []
    bad = acc.copy()
    bad[2] *= -1.0  # one probe force flipped
    assert checks.check_force(checks.force_rms_error(bad, ref))
    assert checks.check_force(checks.force_rms_error(acc * 1.1, ref))


def test_tracer_restores_entry_points():
    from repro.pp.plan import PlanExecutor
    from repro.tree.traversal import TreeSolver

    before = (TreeSolver.build, PlanExecutor.execute)
    tracer = Tracer().install()
    assert TreeSolver.build is not before[0]
    tracer.uninstall()
    assert (TreeSolver.build, PlanExecutor.execute) == before


def test_metric_lists_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [
        n for n, _ in run.END_TO_END
    ]
    assert [m["name"] for m in doc["per_layer"]] == report.per_layer_names()
    assert [m["unit"] for m in doc["per_layer"]] == [
        report.unit_of(n) for n in report.per_layer_names()
    ]
    assert {w["name"] for w in doc["workloads"]} == set(W.WORKLOADS)
