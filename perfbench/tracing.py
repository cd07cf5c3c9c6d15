"""Spans around the public entry points of each ``repro`` layer.

The program is not edited: :class:`Tracer` wraps the functions listed in
:data:`LAYERS` from outside, for the traced half of a run only.  Each
wrapped call opens a span; a span's *self* time is its duration minus
the time of the spans opened inside it, so nested layers (a parallel PM
call that contains mesh work and an FFT) are not counted twice.

Counts are taken at the same boundaries: interactions and list lengths
from each interaction plan, ghosts received, particles that change rank,
checkpoint bytes written.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (span name, module, attribute path) of every traced entry point;
#: several entry points may feed one span name.
LAYERS: List[Tuple[str, str, str]] = [
    ("tree.build", "repro.tree.traversal", "TreeSolver.build"),
    ("tree.plan", "repro.tree.traversal", "TreeSolver.build_plan"),
    ("pp.sweep", "repro.pp.plan", "PlanExecutor.execute"),
    ("mesh.assign", "repro.mesh.poisson", "PMSolver.density_mesh"),
    ("mesh.fft", "repro.mesh.poisson", "PMSolver.potential_mesh"),
    ("mesh.gradient", "repro.mesh.poisson", "PMSolver.acceleration_mesh"),
    ("mesh.interp", "repro.mesh.poisson", "PMSolver.interpolate"),
    ("mesh.assign", "repro.meshcomm.parallel_pm", "assign_mass_local"),
    ("mesh.gradient", "repro.meshcomm.parallel_pm", "gradient_block"),
    ("mesh.interp", "repro.meshcomm.parallel_pm", "interpolate_local"),
    ("meshcomm.pm", "repro.meshcomm.parallel_pm", "ParallelPM.forces"),
    ("meshcomm.convert", "repro.meshcomm.parallel_pm", "local_to_slab"),
    ("meshcomm.convert", "repro.meshcomm.parallel_pm", "slab_to_local"),
    ("meshcomm.fft", "repro.meshcomm.parallel_fft", "SlabFFT.convolve"),
    ("integrate.update", "repro.integrate.leapfrog", "_kick_inplace"),
    ("integrate.update", "repro.integrate.leapfrog", "_kick_drift_wrap_inplace"),
    ("integrate.update", "repro.sim.parallel", "ParallelSimulation._kick"),
    ("integrate.update", "repro.sim.parallel", "ParallelSimulation._drift"),
    ("decomp.sample", "repro.decomp.sampling", "SamplingDecomposer.update"),
    ("decomp.exchange", "repro.sim.parallel", "exchange_particles"),
    ("sim.ghosts", "repro.sim.parallel", "exchange_ghosts"),
    ("sim.ckpt", "repro.sim.parallel", "ParallelSimulation.checkpoint"),
    ("validate.sdc", "repro.validate.sdc", "SdcAuditor.fingerprint_audit"),
    ("validate.sdc", "repro.validate.sdc", "SdcAuditor.spot_check"),
    ("validate.sdc", "repro.validate.sdc", "SdcAuditor.snapshot_audit"),
    ("mpi.buddy", "repro.mpi.recovery", "BuddyStore.refresh"),
    ("mpi.health", "repro.sim.elastic", "ElasticRunner._health_tick"),
    ("native.load", "repro.native.build", "load_library"),
    ("ic.generate", "repro.ic.zeldovich", "ZeldovichIC.generate"),
]


def _count_plan(tracer: "Tracer", args, result) -> None:
    plan = result
    tcnt = plan.target_counts
    lens = plan.list_lengths
    tracer.count("tree.interactions", float(np.dot(tcnt, lens)))
    tracer.count("tree.groups", float(len(tcnt)))
    tracer.count("tree.sum_ni", float(tcnt.sum()))
    tracer.count("tree.sum_nj", float(lens.sum()))


def _count_sweep(tracer: "Tracer", args, result) -> None:
    executor = args[0]
    tracer.peak("pp.scratch_bytes", float(executor.scratch_bytes()))


def _count_ghosts(tracer: "Tracer", args, result) -> None:
    tracer.count("sim.ghosts_n", float(len(result[0])))


def _count_ckpt(tracer: "Tracer", args, result) -> None:
    from repro.sim.checkpoint import rank_filename

    comm = args[0].comm
    path = Path(result) / rank_filename(comm.rank, comm.size)
    try:
        tracer.count("sim.ckpt_bytes", float(path.stat().st_size))
    except OSError:
        pass


def _count_moved(tracer: "Tracer", args) -> None:
    comm, decomp, arrays = args[0], args[1], args[2]
    pos = arrays["pos"]
    if len(pos):
        moved = np.count_nonzero(decomp.owner_of(pos) != comm.rank)
        tracer.count("decomp.moved", float(moved))


#: per-span hooks: ``after(tracer, args, result)`` runs once the call
#: returned, ``before(tracer, args)`` before it starts; both outside
#: the span's own time
AFTER = {
    "tree.plan": _count_plan,
    "pp.sweep": _count_sweep,
    "sim.ghosts": _count_ghosts,
    "sim.ckpt": _count_ckpt,
}
BEFORE = {"decomp.exchange": _count_moved}


class Tracer:
    """Span and count recorder, installed around :data:`LAYERS`.

    ``self_s[name]`` is the summed self time of span ``name`` and
    ``counts`` holds the counters.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = time.perf_counter() - frame[0]
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`LAYERS` (idempotent)."""
        if self._saved:
            return self
        for name, module, path in LAYERS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapped = self._wrap(name, getattr(owner, attr))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore the original entry points."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        """Picklable copy of everything recorded so far."""
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
