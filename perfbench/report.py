"""Per-layer metrics, the Table I view and the traffic table of a traced
run.

Times are self times per step of the traced half of the measured trial
(mean over ranks on ``cosmo-2rank``); counts are per step, summed over
ranks.  A layer that a workload does not run reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.roofline import BYTES_PER_INTERACTION
from repro.constants import FLOPS_PER_INTERACTION

#: traffic phases the program opens (``Comm.traffic_phase``) in a step
#: that carry data ("pm:fft" stays empty with a single FFT rank, and
#: "pm:done" runs until the next phase opens, so it also holds the
#: domain exchange, buddy replication and health traffic)
TRAFFIC_PHASES = ["pp:ghosts", "pm:mesh_to_slab", "pm:slab_to_mesh", "pm:done"]

#: layer time metric -> span it reads
TIME_METRICS = {
    "tree.build_s": "tree.build",
    "tree.plan_s": "tree.plan",
    "pp.sweep_s": "pp.sweep",
    "mesh.assign_s": "mesh.assign",
    "mesh.fft_s": "mesh.fft",
    "mesh.gradient_s": "mesh.gradient",
    "mesh.interp_s": "mesh.interp",
    "integrate.update_s": "integrate.update",
    "decomp.sample_s": "decomp.sample",
    "decomp.exchange_s": "decomp.exchange",
    "sim.ghosts_s": "sim.ghosts",
    "sim.ckpt_s": "sim.ckpt",
    "meshcomm.pm_s": "meshcomm.pm",
    "meshcomm.convert_s": "meshcomm.convert",
    "meshcomm.fft_s": "meshcomm.fft",
    "validate.sdc_s": "validate.sdc",
    "mpi.buddy_s": "mpi.buddy",
    "mpi.health_s": "mpi.health",
}

#: (Table I row of the program's TimingLedger, spans measuring it)
LEDGER_ROWS: List[Tuple[str, Tuple[str, ...]]] = [
    ("PP/tree construction", ("tree.build",)),
    ("PP/tree traversal", ("tree.plan",)),
    ("PP/force calculation", ("pp.sweep",)),
    ("PP/local tree+communication", ("sim.ghosts",)),
    ("PM/density assignment", ("mesh.assign",)),
    ("PM/FFT", ("mesh.fft", "meshcomm.fft")),
    ("PM/acceleration on mesh", ("mesh.gradient",)),
    ("PM/force interpolation", ("mesh.interp",)),
    ("Domain Decomposition/sampling method", ("decomp.sample",)),
    ("Domain Decomposition/particle exchange", ("decomp.exchange",)),
    ("Update/kick-drift", ("integrate.update",)),
]


def phase_key(phase: str) -> str:
    return phase.replace(":", "_")


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = [
        "tree.build_s", "tree.plan_s", "tree.interactions", "tree.mean_ni",
        "tree.mean_nj", "pp.sweep_s", "pp.interactions_per_s", "pp.gflops",
        "pp.peak_frac", "pp.scratch_bytes", "pp.bytes_computed",
        "kernel.peak_gflops", "mesh.assign_s", "mesh.fft_s",
        "mesh.gradient_s", "mesh.interp_s", "integrate.update_s",
        "decomp.sample_s", "decomp.exchange_s", "decomp.moved",
        "decomp.imbalance", "sim.ghosts_s", "sim.ghosts_n", "sim.ckpt_s",
        "sim.ckpt_bytes", "meshcomm.pm_s", "meshcomm.convert_s",
        "meshcomm.fft_s", "mpi.wait_frac",
    ]
    for kind in ("mpi.bytes.", "mpi.msgs.", "perf.model_s."):
        names += [kind + phase_key(p) for p in TRAFFIC_PHASES]
    names += [
        "validate.sdc_s", "mpi.buddy_s", "mpi.health_s", "native.load_s",
        "ic.generate_s", "step.traced_s", "step.tree_pp_frac",
        "step.mesh_frac", "trace.overhead_frac", "trace.ledger_gap_frac",
    ]
    return names


UNITS = {
    "tree.interactions": "count/step", "tree.mean_ni": "count",
    "tree.mean_nj": "count", "pp.interactions_per_s": "1/s",
    "pp.gflops": "Gflop/s", "pp.peak_frac": "ratio",
    "pp.scratch_bytes": "B", "pp.bytes_computed": "B/step",
    "kernel.peak_gflops": "Gflop/s", "decomp.moved": "count/step",
    "decomp.imbalance": "ratio", "sim.ghosts_n": "count/step",
    "sim.ckpt_bytes": "B/step", "mpi.wait_frac": "ratio",
    "native.load_s": "s", "ic.generate_s": "s", "step.traced_s": "s",
    "step.tree_pp_frac": "ratio", "step.mesh_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.ledger_gap_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name.startswith("mpi.bytes."):
        return "B/step"
    if name.startswith("mpi.msgs."):
        return "count/step"
    return UNITS.get(name, "s/step")


def _ledger_row(ledger: Dict[str, float], row: str) -> float:
    if row == "PP/local tree+communication":
        return ledger.get("PP/local tree", 0.0) + ledger.get(
            "PP/communication", 0.0
        )
    return ledger.get(row, 0.0)


def per_layer(trial: dict, setup_traces: List[List[dict]],
              peak_gflops: Optional[float]) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of a traced measured trial, and the text of
    the Table I view and (2-rank) traffic table."""
    ranks = trial.get("ranks") or [trial]
    traced = [r for r in ranks if "trace" in r]
    steps = len(trial["traced_step_s"])
    m = {name: 0.0 for name in per_layer_names()}
    if not traced or steps == 0:
        return m, []
    nr = len(traced)

    def self_s(r, span):
        return r["trace"]["self_s"].get(span, 0.0)

    def counts(key):
        return sum(r["trace"]["counts"].get(key, 0.0) for r in traced)

    for metric, span in TIME_METRICS.items():
        m[metric] = sum(self_s(r, span) for r in traced) / nr / steps

    inter = counts("tree.interactions")
    groups = counts("tree.groups")
    m["tree.interactions"] = inter / steps
    m["tree.mean_ni"] = counts("tree.sum_ni") / groups if groups else 0.0
    m["tree.mean_nj"] = counts("tree.sum_nj") / groups if groups else 0.0
    rate = sum(
        r["trace"]["counts"].get("tree.interactions", 0.0) / self_s(r, "pp.sweep")
        for r in traced if self_s(r, "pp.sweep") > 0
    )
    m["pp.interactions_per_s"] = rate
    m["pp.gflops"] = FLOPS_PER_INTERACTION * rate / 1e9
    m["kernel.peak_gflops"] = peak_gflops or 0.0
    m["pp.peak_frac"] = m["pp.gflops"] / peak_gflops if peak_gflops else 0.0
    m["pp.scratch_bytes"] = max(
        r["trace"]["counts"].get("pp.scratch_bytes", 0.0) for r in traced
    )
    m["pp.bytes_computed"] = BYTES_PER_INTERACTION * inter / steps
    m["decomp.moved"] = counts("decomp.moved") / steps
    m["sim.ghosts_n"] = counts("sim.ghosts_n") / steps
    m["sim.ckpt_bytes"] = counts("sim.ckpt_bytes") / steps
    busy = [
        sum(self_s(r, s) for s in ("tree.build", "tree.plan", "pp.sweep"))
        for r in traced
    ]
    if nr > 1:
        m["decomp.imbalance"] = float(max(busy) / max(np.mean(busy), 1e-300))
        m["mpi.wait_frac"] = float(np.mean([r["wait_frac"] for r in traced]))

    # set-up layers: median over set-up trials of the slowest process
    if setup_traces:
        def setup_median(span):
            return float(np.median([
                max(t["self_s"].get(span, 0.0) for t in per_trial)
                for per_trial in setup_traces
            ]))
        m["native.load_s"] = setup_median("native.load")
        m["ic.generate_s"] = setup_median("ic.generate")

    step_t = float(np.median(trial["traced_step_s"]))
    untraced_t = float(np.median(trial["step_s"]))
    m["step.traced_s"] = step_t
    m["trace.overhead_frac"] = step_t / untraced_t - 1.0
    wall = sum(trial["traced_step_s"])
    m["step.tree_pp_frac"] = (
        m["tree.build_s"] + m["tree.plan_s"] + m["pp.sweep_s"]
    ) * steps / wall
    m["step.mesh_frac"] = (
        m["mesh.assign_s"] + m["mesh.fft_s"] + m["mesh.gradient_s"]
        + m["mesh.interp_s"] + m["meshcomm.fft_s"]
    ) * steps / wall

    lines = ["Table I view (traced half, seconds per step, mean over ranks)",
             f"{'row':<42s} {'ledger':>10s} {'traced':>10s}  span"]
    gap = total = 0.0
    for row, spans in LEDGER_ROWS:
        led = sum(_ledger_row(r["ledger"], row) for r in traced) / nr / steps
        got = sum(self_s(r, s) for r in traced for s in spans) / nr / steps
        if led == 0.0 and got == 0.0:
            continue
        if led > 0.0:  # rows the program's ledger does not keep: shown only
            gap += abs(got - led)
            total += led
        lines.append(f"{row:<42s} {led:10.5f} {got:10.5f}  {'+'.join(spans)}")
    m["trace.ledger_gap_frac"] = gap / total if total else 0.0
    lines.append(f"{'step (traced wall)':<42s} {'':>10s} {step_t:10.5f}")

    if nr > 1:
        lines += _traffic(m, traced, steps)
    return m, lines


def _traffic(m: Dict[str, float], traced: List[dict], steps: int) -> List[str]:
    """Per-phase bytes and messages, with the TorusNetwork prediction
    beside the measured time of the span that does the phase's work."""
    from repro.mpi.network import Message, PhaseTraffic, TorusNetwork

    net = TorusNetwork((len(traced), 1, 1))
    measured = {
        "pp:ghosts": m["sim.ghosts_s"],
        "pm:mesh_to_slab": m["meshcomm.convert_s"] / 2,
        "pm:slab_to_mesh": m["meshcomm.convert_s"] / 2,
    }
    lines = ["", "traffic per step (K computer torus model beside the "
             "measured span)",
             f"{'phase':<18s} {'bytes':>12s} {'msgs':>8s} {'model s':>11s} "
             f"{'measured s':>11s}"]
    for phase in TRAFFIC_PHASES:
        occurrences = [r["traffic"].get(phase, []) for r in traced]
        n_occ = min(len(o) for o in occurrences)
        model = nbytes = msgs = 0.0
        for k in range(n_occ):
            merged = PhaseTraffic(phase, [
                Message(*msg) for occ in occurrences for msg in occ[k]
            ])
            model += net.phase_time(merged).seconds
            nbytes += merged.total_bytes
            msgs += merged.n_messages
        key = phase_key(phase)
        m["mpi.bytes." + key] = nbytes / steps
        m["mpi.msgs." + key] = msgs / steps
        m["perf.model_s." + key] = model / steps
        shown = measured.get(phase)
        lines.append(
            f"{phase:<18s} {nbytes / steps:12.0f} {msgs / steps:8.1f} "
            f"{model / steps:11.3e} "
            + (f"{shown:11.3e}" if shown is not None else f"{'-':>11s}")
        )
    return lines


def relay_model_lines(mesh: int, n_groups: int) -> List[str]:
    """The ``repro.perf`` relay-mesh model's conversion times for this
    job's layout, printed next to the measured ``meshcomm.convert_s``."""
    from repro.perf.relaymodel import MeshExchangeModel

    model = MeshExchangeModel(p=2, divisions=(2, 1, 1), n_mesh=mesh, n_fft=1)
    return [
        f"repro.perf relay model (p=2, mesh {mesh}^3, {n_groups} groups): "
        f"forward {model.forward_seconds(n_groups):.3e} s, "
        f"backward {model.backward_seconds(n_groups):.3e} s per conversion"
    ]
