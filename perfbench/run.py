#!/usr/bin/env python3
"""The TreePM benchmark: one workload, end-to-end or traced metrics.

Run from the repository root::

    python3 perfbench/run.py --workload halo-pp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; both check every run's output.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/README.md``
describes every metric and workload.

A run is a closed loop of whole TreePM steps.  It starts ``SETUP_TRIALS``
fresh processes on the same inputs: all but the last only set up (their
set-up times feed the ``setup_s`` median), the last also steps for
``--seconds``.  A further fresh process evaluates the forces of a fixed
probe, which this process compares against Ewald summation.  Native
kernels are compiled once into ``.bench_build/`` of the checkout before
any trial starts, so every trial loads them from a warm cache.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh processes per run; each contributes one set-up time
SETUP_TRIALS = 3
#: the force probe's inputs: fixed, so force_rms_err is a property of
#: the solver rather than of the realization drawn by --seed
PROBE_SEED = 20120416
PROBE_COUNT = 16
#: Ewald parameters: ~1e-7 relative accuracy on these workloads, well
#: below the TreePM errors it judges, at a fraction of the default cost
EWALD = {"alpha": 2.5, "nmax": 1, "kmax": 3}
#: wall-clock cap of one trial process (seconds)
TRIAL_TIMEOUT = 150.0
#: seconds the processes a trial leaves behind get to exit on their own
GROUP_GRACE = 10.0

END_TO_END = [
    ("steps_per_s", "1/s"),
    ("step_s_p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("force_rms_err", "ratio"),
    ("pass_frac", "ratio"),
]


class TrialError(RuntimeError):
    """A trial process raised, died or timed out."""


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh(kind: str, *args):
    """Run one trial in a new Python process (so it imports and loads
    everything itself) and return its result.

    The trial leads a process group of its own.  Once it has ended, or
    timed out, every process left in that group (the ranks of a 2-rank
    job, a ``multiprocessing`` resource tracker) gets a short grace
    period to exit, is then killed, and is reaped before this returns.
    """
    import pickle
    import subprocess

    fd, result = tempfile.mkstemp(prefix="trial-", suffix=".pkl")
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.trial", result],
        stdin=subprocess.PIPE, stdout=sys.stderr.fileno(), cwd=str(ROOT),
        env=env, start_new_session=True,
    )
    try:
        try:
            proc.stdin.write(pickle.dumps((kind, args, os.getpid())))
            proc.stdin.close()
        except BrokenPipeError:  # died at start-up; reported below
            pass
        try:
            proc.wait(timeout=TRIAL_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise TrialError(
                f"{kind} trial timed out after {TRIAL_TIMEOUT} s"
            ) from None
    finally:
        _end_group(proc)
    try:
        with open(result, "rb") as fh:
            status, payload = pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError):
        raise TrialError(
            f"{kind} trial died (exit code {proc.returncode})"
        ) from None
    finally:
        os.unlink(result)
    if status != "ok":
        raise TrialError(payload)
    return payload


def _become_subreaper() -> None:
    """Make this process adopt its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a process that outlives the trial
    that started it is this process's to reap, not init's."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap() -> None:
    """Collect every child of this process that has exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _end_group(proc) -> None:
    """Stop the trial ``proc`` and every process of its group, and wait
    until all of them have ended and been reaped."""
    if proc.poll() is None:  # timed out or interrupted: no grace
        _kill_group(proc.pid)
        proc.wait()
    if not _wait_group(proc.pid, GROUP_GRACE):
        _kill_group(proc.pid)
        _wait_group(proc.pid, GROUP_GRACE)
    _reap()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group(pgid: int, timeout: float) -> bool:
    """Reap until the group ``pgid`` is empty; False on timeout."""
    import time

    end = time.monotonic() + timeout
    while _group_alive(pgid):
        _reap()
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def provenance(threads: int) -> dict:
    """Commit-independent facts of this run; loading each native stage
    also compiles it into the cache before any trial is timed."""
    import numpy as np

    from perfbench import roofline
    from repro.native import build, certify, meshops, traverse, treebuild, update
    from repro.pp import native as pp_native

    stages = {
        "tree": treebuild, "traverse": traverse, "certify": certify,
        "pp": pp_native, "mesh": meshops, "update": update,
    }
    native = {name: bool(mod.available()) for name, mod in stages.items()}
    peak_lib = roofline.load_kernel() is not None
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "openmp": build.openmp_available(),
        "native": native,
        "peak_kernel": peak_lib,
        "numpy": np.__version__,
    }


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def ewald_reference(w, probe):
    from perfbench.workloads import make_inputs
    from repro.forces.ewald import EwaldSummation

    pos, _, mass = make_inputs(w, PROBE_SEED)
    return EwaldSummation(**EWALD).forces(
        pos, mass, eps=w.softening, chunk=1, targets=probe
    )


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from perfbench.workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=build_dir))
    try:
        return _run(args, w, build_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, w, build_dir: Path, work: Path) -> int:
    import numpy as np

    from perfbench import checks, report
    from perfbench.workloads import make_inputs, probe_indices

    # serial workloads use every core; the 2-rank job one thread per rank
    threads = 1 if w.parallel else len(os.sched_getaffinity(0))
    os.environ.update(
        REPRO_NATIVE_CACHE=str(build_dir / "native"),
        REPRO_NATIVE_THREADS=str(threads),
        TMPDIR=str(work),
    )
    tempfile.tempdir = None  # re-read TMPDIR
    prov = provenance(threads)
    trace = bool(args.trace)
    kind = "parallel" if w.parallel else "serial"
    extra = (str(work),) if w.parallel else ()

    failures = []
    setups, setup_traces = [], []
    for _ in range(SETUP_TRIALS - 1):
        try:
            t = fresh(kind, w.name, args.seed, 0.0, trace, *extra)
            setups.append(t["setup_s"])
            if trace:
                setup_traces.append(_as_list(t["setup_trace"]))
        except TrialError as exc:
            failures.append(f"set-up trial: {exc}")
    try:
        trial = fresh(kind, w.name, args.seed, args.seconds, trace, *extra)
    except TrialError as exc:
        print(f"perfbench: measured trial failed:\n{exc}", file=sys.stderr)
        return 1
    setups.append(trial["setup_s"])
    if trace:
        setup_traces.append(_as_list(trial["setup_trace"]))

    pos0, mom0, mass0 = make_inputs(w, args.seed)
    initial = {"pos": pos0, "mom": mom0, "mass": mass0}
    disp_cells = trial["max_disp"] * w.mesh
    state_failures = checks.check_state(
        initial, trial["final"], disp_cells, trial["impulse"]
    )
    if state_failures:
        failures.append("measured trial: " + "; ".join(state_failures))

    probe = probe_indices(w.n_particles, PROBE_COUNT)
    force_err = 1.0  # reported when the probe itself fails
    try:
        acc = fresh("probe", w.name, PROBE_SEED, probe)
        force_err = checks.force_rms_error(acc, ewald_reference(w, probe))
        failures += ["force probe: " + f for f in checks.check_force(force_err)]
    except TrialError as exc:
        failures.append(f"force probe: {exc}")

    attempted = SETUP_TRIALS + 1
    failed = min(len(failures), attempted)
    steps = np.asarray(trial["step_s"])
    e2e = {
        "steps_per_s": 1.0 / float(np.median(steps)),
        "step_s_p90": float(np.percentile(steps, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": float(trial["rss_mb"]),
        "force_rms_err": force_err,
        "pass_frac": 1.0 - failed / attempted,
    }

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{len(steps)} timed steps of {trial['steps']}; "
          f"set-up trials {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"largest step displacement {disp_cells:.3f} mesh cells "
          f"(ghost reach {checks.ghost_reach_cells():g}); momentum drift "
          f"{checks.momentum_drift(initial, trial['final'], trial['impulse']):.3e}"
          f" of the total impulse")
    print(f"final state sha256 {checks.state_digest(trial['final'])} "
          f"(information only)")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} runs)")
    for name, unit in END_TO_END:
        print(f"{name:<16s} {e2e[name]:14.6g} {unit}")
    print(f"(steps_per_s is 1 / median and step_s_p90 the 90th percentile "
          f"of {len(steps)} step times)")

    if trace:
        metrics, lines = report.per_layer(
            trial, setup_traces, trial.get("peak_gflops")
        )
        for line in lines:
            print(line)
        if w.parallel:
            from perfbench.workloads import make_config

            groups = make_config(w).relay.n_groups
            for line in report.relay_model_lines(w.mesh, groups):
                print(line)
        for name in report.per_layer_names():
            print(f"{name:<28s} {metrics[name]:14.6g} {report.unit_of(name)}")
        out = {n: {"value": metrics[n], "unit": report.unit_of(n)}
               for n in report.per_layer_names()}
    else:
        out = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def _as_list(x):
    return x if isinstance(x, list) else [x]


if __name__ == "__main__":
    sys.exit(main())
