"""One trial of a workload: set up, step for a while, hand back the state.

:mod:`perfbench.run` starts every trial in a fresh process, so each
trial pays the whole set-up (IC generation, construction, native library
load and self-tests from the warm on-disk cache, the bootstrap force)
the way a user does.  A trial returns plain data: set-up time, per-step
wall times, the final particle state in id order, the largest per-step
displacement, the peak resident memory, and, when traced, the spans and
counts of :mod:`perfbench.tracing`.

In a traced trial the first half of the stepping time runs untraced and
the second half traced, so the tracing overhead is measured in the same
process on the same state.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from perfbench import workloads as W
from perfbench.roofline import host_peak_gflops
from perfbench.tracing import Tracer

#: fewest timed steps a trial takes, whatever the time budget
MIN_STEPS = 10
#: peak memory covers this many steps after set-up: a fixed window, so
#: a build that runs more steps in the same time is not charged for the
#: allocator's slow heap growth
RSS_STEPS = 10
#: safety cap on the schedule length of the elastic runner
MAX_STEPS = 100_000
#: receive timeout of the 2-rank job (seconds); no fault is injected,
#: so it only bounds a hang
RECV_TIMEOUT = 60.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set,
    so the peak covers stepping only (set-up has its own metric)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def max_displacement(before: np.ndarray, after: np.ndarray) -> float:
    """Largest minimum-image distance moved, in box units."""
    if len(before) == 0:
        return 0.0
    d = after - before
    d -= np.round(d)
    return float(np.sqrt(np.einsum("ij,ij->i", d, d)).max())


def impulse(mass: np.ndarray, before: np.ndarray, after: np.ndarray) -> float:
    """Sum of m |p_after - p_before|: the momentum all forces moved."""
    d = after - before
    return float(np.dot(mass, np.sqrt(np.einsum("ij,ij->i", d, d))))


def _ledger_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# -- serial workloads ----------------------------------------------------------


def serial_trial(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``name`` from ``seed``; when ``seconds > 0``, step it."""
    from repro.native.build import native_threads
    from repro.sim.serial import SerialSimulation

    w = W.WORKLOADS[name]
    tracer = Tracer().install() if trace else None
    t0 = time.perf_counter()
    pos, mom, mass = W.make_inputs(w, seed)
    sim = SerialSimulation(
        W.make_config(w), pos, mom, mass, stepper=W.make_stepper(w)
    )
    sim.solver.forces(sim.pos, sim.mass)  # bootstrap evaluation
    out = {"setup_s": time.perf_counter() - t0}
    if tracer is not None:
        tracer.uninstall()
        out["setup_trace"] = tracer.snapshot()
    if seconds <= 0:
        return out

    reset_peak_rss()
    sched = W.schedule(w)
    state = {"step": 0, "disp": 0.0, "impulse": 0.0}

    def advance() -> float:
        pos, mom = sim.pos, sim.mom
        t = time.perf_counter()
        sim.step(*sched(state["step"]))
        dt = time.perf_counter() - t
        state["step"] += 1
        if state["step"] == RSS_STEPS:
            out["rss_mb"] = peak_rss_mb()
        state["disp"] = max(state["disp"], max_displacement(pos, sim.pos))
        state["impulse"] += impulse(sim.mass, mom, sim.mom)
        return dt

    def run_for(budget: float) -> List[float]:
        times: List[float] = []
        end = time.perf_counter() + budget
        while time.perf_counter() < end or len(times) < MIN_STEPS:
            times.append(advance())
        return times

    advance()  # warm-up: fills the integrator's force caches, untimed
    out["step_s"] = run_for(seconds / 2 if trace else seconds)
    if trace:
        ledger0 = sim.timing.as_dict()
        tracer = Tracer().install()
        out["traced_step_s"] = run_for(seconds / 2)
        tracer.uninstall()
        out["trace"] = tracer.snapshot()
        out["ledger"] = _ledger_delta(ledger0, sim.timing.as_dict())
        out["peak_gflops"] = host_peak_gflops(native_threads())
    out["final"] = {
        "pos": sim.pos, "mom": sim.mom, "mass": sim.mass,
        "ids": np.arange(len(sim.pos)),
    }
    out["steps"] = state["step"]
    out["max_disp"] = state["disp"]
    out["impulse"] = state["impulse"]
    return out


def probe_forces(name: str, seed: int, probe: np.ndarray) -> np.ndarray:
    """Total TreePM accelerations of the particles ``probe`` on the
    workload's inputs for ``seed``: the serial solver
    (``TreePMSolver.forces``), or the 2-rank job's bootstrap forces."""
    w = W.WORKLOADS[name]
    if w.parallel:
        out = parallel_trial(name, seed, 0.0, False, probe=probe)
        return out["probe_acc"]
    from repro.treepm.solver import TreePMSolver

    pos, _, mass = W.make_inputs(w, seed)
    solver = TreePMSolver(W.make_config(w).treepm)
    return solver.forces(pos, mass).total[probe]


# -- the 2-rank workload -------------------------------------------------------


class _Stop(Exception):
    """Raised on every rank at the same step boundary to end stepping."""


class _StepClock:
    """Replaces ``comm.fault_point``, which the elastic runner calls at
    the start of every step: timestamps each step start, tracks the
    largest per-step displacement, switches the tracer on half way
    through a traced trial, and stops the run once the time budget is
    spent.  The elapsed time is agreed with one ``allreduce`` so every
    rank acts at the same step."""

    def __init__(self, comm, runner, n_total: int, seconds: float,
                 on_trace=None):
        self.comm = comm
        self.runner = runner
        self.seconds = seconds
        self.on_trace = on_trace
        self.inner = comm.fault_point
        self.starts: List[float] = []
        self.traced_from: Optional[int] = None
        self.disp = 0.0
        self.impulse = 0.0
        self.rss_mb = 0.0
        # last seen position and momentum of every particle id;
        # particles that changed rank since are skipped for one step
        self._last = np.full((n_total, 6), np.nan)
        comm.fault_point = self

    def _track(self) -> None:
        sim = self.runner.sim
        before = self._last[sim.ids]
        seen = ~np.isnan(before[:, 0])
        self.disp = max(
            self.disp, max_displacement(before[seen, :3], sim.pos[seen])
        )
        self.impulse += impulse(
            sim.mass[seen], before[seen, 3:], sim.mom[seen]
        )
        self._last[sim.ids, :3] = sim.pos
        self._last[sim.ids, 3:] = sim.mom

    def __call__(self, step: int) -> None:
        self.starts.append(time.perf_counter())
        if len(self.starts) == 1:
            reset_peak_rss()
        elif len(self.starts) == RSS_STEPS + 1:
            self.rss_mb = peak_rss_mb()
        self._track()
        elapsed = float(
            self.comm.allreduce(self.starts[-1] - self.starts[0], op="max")
        )
        n = len(self.starts) - 1
        if self.seconds <= 0:
            raise _Stop
        if self.on_trace is not None and self.traced_from is None:
            if elapsed >= self.seconds / 2 and n >= MIN_STEPS:
                self.traced_from = n
                self.on_trace()
        taken = n - (self.traced_from or 0)
        if elapsed >= self.seconds and taken >= MIN_STEPS:
            raise _Stop
        self.inner(step)

    def intervals(self):
        """(untraced, traced) step wall times."""
        dt = list(np.diff(self.starts))
        cut = self.traced_from if self.traced_from is not None else len(dt)
        return dt[:cut], dt[cut:]


def _traffic(comm, first_phase: int) -> dict:
    """This rank's logged messages per traffic phase since phase index
    ``first_phase``: ``{phase: [[(src, dst, nbytes), ...] per occurrence]}``."""
    out: dict = {}
    for ph in comm.traffic.phases()[first_phase:]:
        out.setdefault(ph.name, []).append(
            [(m.src, m.dst, m.nbytes) for m in ph.messages]
        )
    return out


def rank_main(comm, name, pos, mom, mass, seconds, trace, ckpt_dir,
              setup_tracer, probe):
    """The benchmark's SPMD function: one rank of the elastic run."""
    from repro.sim.elastic import ElasticRunner

    w = W.WORKLOADS[name]
    n = len(pos)
    lo, hi = n * comm.rank // comm.size, n * (comm.rank + 1) // comm.size
    runner = ElasticRunner(
        comm, W.make_config(w), pos[lo:hi], mom[lo:hi], mass[lo:hi],
        stepper=W.make_stepper(w), buddy_every=1,
        checkpoint_dir=ckpt_dir, checkpoint_every=W.CHECKPOINT_EVERY,
    )
    runner.sim.initialize_forces()  # bootstrap, as the first step would
    out = {"rank": comm.rank}
    if probe is not None:
        sim = runner.sim
        # the bootstrap left the PM and PP accelerations of the owned
        # particles in these accumulators; nothing public exposes them
        acc = sim._pm_acc + sim._pp_acc
        keep = np.isin(sim.ids, probe)
        out["probe"] = (sim.ids[keep], acc[keep])
    if setup_tracer is not None:
        setup_tracer.uninstall()
        out["setup_trace"] = setup_tracer.snapshot()

    tracer = Tracer() if trace else None
    marks = {}

    def start_trace():
        marks["ledger"] = runner.sim.timing.as_dict()
        marks["wait"] = comm.wait_seconds
        marks["phase"] = len(comm.traffic.phases())
        marks["t"] = time.perf_counter()
        tracer.install()

    clock = _StepClock(comm, runner, n, seconds,
                       start_trace if trace else None)
    a0, a1 = W.schedule(w)(0)
    try:
        runner.run(a0, a0 + MAX_STEPS * (a1 - a0), MAX_STEPS)
    except _Stop:
        pass
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    untraced, traced = clock.intervals()
    out.update(step_s=untraced, traced_step_s=traced, max_disp=clock.disp,
               impulse=clock.impulse, ready=clock.starts[0],
               rss_mb=clock.rss_mb)
    if seconds <= 0:
        return out
    if tracer is not None and "t" in marks:
        wall = end - marks["t"]
        out["trace"] = tracer.snapshot()
        out["ledger"] = _ledger_delta(
            marks["ledger"], runner.sim.timing.as_dict()
        )
        out["wait_frac"] = (comm.wait_seconds - marks["wait"]) / wall
        out["traffic"] = _traffic(comm, marks["phase"])
    sim = runner.sim
    out["final"] = {"pos": sim.pos, "mom": sim.mom, "mass": sim.mass,
                    "ids": sim.ids}
    out["steps"] = len(clock.starts) - 1
    out["sdc_events"] = len(runner.sdc.events)
    out["recoveries"] = len(runner.events)
    return out


def parallel_trial(name: str, seed: int, seconds: float, trace: bool,
                   workdir: str = ".", probe=None) -> dict:
    """The 2-rank elastic run on the multiprocess backend."""
    import shutil
    import tempfile

    from repro.mpi.backend import create_backend

    w = W.WORKLOADS[name]
    setup_tracer = Tracer().install() if trace else None
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
    try:
        t0 = time.perf_counter()
        pos, mom, mass = W.make_inputs(w, seed)
        runtime = create_backend(
            "multiprocess", 2, elastic=True, recv_timeout=RECV_TIMEOUT
        )
        ranks = runtime.run(
            rank_main, name, pos, mom, mass, seconds, trace, ckpt_dir,
            setup_tracer, probe,
        )
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    out = {
        "setup_s": max(r["ready"] for r in ranks) - t0,
        "rss_mb": sum(r["rss_mb"] for r in ranks),
        "ranks": ranks,
    }
    if probe is not None:
        ids = np.concatenate([r["probe"][0] for r in ranks])
        acc = np.vstack([r["probe"][1] for r in ranks])
        out["probe_acc"] = acc[np.argsort(ids)]
    if setup_tracer is not None:
        out["setup_trace"] = [r["setup_trace"] for r in ranks]
    if seconds <= 0:
        return out
    if trace:
        out["peak_gflops"] = host_peak_gflops(len(ranks))
    out["step_s"] = list(np.max([r["step_s"] for r in ranks], axis=0))
    out["traced_step_s"] = list(
        np.max([r["traced_step_s"] for r in ranks], axis=0)
    ) if trace else []
    ids = np.concatenate([r["final"]["ids"] for r in ranks])
    order = np.argsort(ids)
    out["final"] = {
        k: np.concatenate([r["final"][k] for r in ranks])[order]
        for k in ("pos", "mom", "mass", "ids")
    }
    out["steps"] = ranks[0]["steps"]
    out["max_disp"] = max(r["max_disp"] for r in ranks)
    out["impulse"] = sum(r["impulse"] for r in ranks)
    return out


def run_trial(kind: str, *args, **kwargs):
    """Entry point of a trial process: ``kind`` is ``serial``,
    ``parallel`` or ``probe``."""
    fn = {"serial": serial_trial, "parallel": parallel_trial,
          "probe": probe_forces}[kind]
    return fn(*args, **kwargs)


def _exit_with_parent(parent: int) -> None:
    """End this process if its parent dies, so a killed benchmark leaves
    no trial running (the ranks of a 2-rank job follow on their own)."""
    import os
    import threading

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(3)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def child_main(result_path: str) -> None:
    """Body of a trial process: read ``(kind, args, parent pid)`` from
    pickled standard input, run the trial, and pickle the result or the
    formatted traceback to ``result_path``."""
    import pickle
    import sys
    import traceback

    kind, args, parent = pickle.load(sys.stdin.buffer)
    _exit_with_parent(parent)
    try:
        result = ("ok", run_trial(kind, *args))
    except Exception:  # reported to the parent, which counts the failure
        result = ("error", traceback.format_exc())
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    import sys

    child_main(sys.argv[1])
