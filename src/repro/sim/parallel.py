"""The distributed GreeM-style simulation driver (SPMD).

One :class:`ParallelSimulation` instance runs on each rank and executes
the paper's full per-step pipeline:

* **Domain decomposition** — position update bookkeeping, the sampling
  method (cost-proportional rates, boundary smoothing), particle
  exchange;
* **PP** — ghost ("local tree") selection and exchange, local tree
  construction, Barnes-modified traversal, the PP force kernel;
* **PM** — local density assignment, the (relay) mesh conversion,
  slab FFT, back conversion, finite differences, interpolation;

with the step structure "a cycle of the PM and ``pp_subcycles`` cycles
of the PP and the domain decomposition", and a timing ledger whose rows
are exactly Table I's.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.decomp.exchange import exchange_particles
from repro.decomp.multisection import MultisectionDecomposition
from repro.decomp.sampling import SamplingDecomposer
from repro.integrate.stepper import StaticStepper
from repro.meshcomm.parallel_pm import ParallelPM
from repro.mpi.backend import create_backend
from repro.native import update as _native_update
from repro.pp.kernel import InteractionCounter
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import CheckpointError, CheckpointSpaceError
from repro.sim.ghosts import exchange_ghosts
from repro.treepm.solver import short_range_solver
from repro.utils.periodic import wrap_positions
from repro.utils.timer import TimingLedger
from repro.validate import (
    MomentumDriftMonitor,
    Validator,
    check_domain_containment,
    check_domain_partition,
    check_finite,
    check_momentum,
    check_octree,
    first_violation,
)

__all__ = [
    "ParallelSimulation",
    "run_parallel_simulation",
    "resume_parallel_simulation",
]


@dataclass
class StepStatistics:
    """Per-rank accumulated statistics over the run.

    Streams the per-evaluation :class:`InteractionCounter` sums instead
    of keeping per-step lists, so memory stays constant over a long run;
    the resulting ``<Ni>``/``<Nj>`` are the per-kernel-call means over
    all evaluations (each call weighted equally).
    """

    counter: InteractionCounter = field(default_factory=InteractionCounter)

    @property
    def interactions(self) -> int:
        return self.counter.interactions

    @property
    def mean_group_size(self) -> float:
        return self.counter.mean_group_size

    @property
    def mean_list_length(self) -> float:
        return self.counter.mean_list_length


class ParallelSimulation:
    """Per-rank simulation state and step logic.

    Parameters
    ----------
    comm:
        World communicator.
    config:
        Simulation configuration; ``config.domain.divisions`` must
        multiply to ``comm.size``.
    pos, mom, mass:
        This rank's initial particles (any spatial distribution: the
        first decomposition update redistributes them).
    stepper:
        Kick/drift coefficients (static or cosmological).
    """

    def __init__(
        self,
        comm,
        config: SimulationConfig,
        pos: np.ndarray,
        mom: np.ndarray,
        mass: np.ndarray,
        stepper=None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        if config.domain.n_domains != comm.size:
            raise ValueError(
                f"domain divisions {config.domain.divisions} do not match "
                f"{comm.size} ranks"
            )
        self.comm = comm
        self.config = config
        self.stepper = stepper if stepper is not None else StaticStepper()
        self.pos = np.array(pos, dtype=np.float64)
        self.mom = np.array(mom, dtype=np.float64)
        self.mass = np.array(mass, dtype=np.float64)
        if ids is None:
            # globally unique default ids: offset by a rank-exclusive scan
            starts = np.concatenate([[0], np.cumsum(comm.allgather(len(self.pos)))])
            ids = np.arange(starts[comm.rank], starts[comm.rank] + len(self.pos))
        self.ids = np.array(ids, dtype=np.int64)

        tp = config.treepm
        self.tree = short_range_solver(tp)
        self.split = self.tree.split
        self.pm = ParallelPM(
            comm,
            tp.pm.mesh_size,
            split=self.split,
            n_groups=config.relay.n_groups,
            fft=tp.pm.fft_backend,
            **tp.pm.solver_kwargs(),
        )
        self.decomposer = SamplingDecomposer(
            config.domain.divisions,
            sample_rate=config.domain.sample_rate,
            window=config.domain.smoothing_window,
            cost_balance=config.domain.cost_balance,
            seed=config.seed,
        )
        self.decomp: MultisectionDecomposition = MultisectionDecomposition.uniform(
            config.domain.divisions
        )
        self.timing = TimingLedger()
        self.stats = StepStatistics()
        self.steps_taken = 0
        self._pp_cost = 1.0e-6  # last measured PP seconds (for sampling)
        self._pm_acc: Optional[np.ndarray] = None
        self._pp_acc: Optional[np.ndarray] = None
        self.validator = Validator(
            config.validation, rank=comm.rank, dump_fn=self._diagnostic_dump
        )
        self._mom_monitor = (
            MomentumDriftMonitor(config.validation.momentum_tol)
            if self.validator.enabled
            else None
        )

    # -- validation hooks --------------------------------------------------------

    def _diagnostic_dump(self, violation) -> str:
        """``dump``-policy hook: write a distributed diagnostic
        checkpoint (collective — the Validator invokes it on every rank)
        recording the violation in the manifest, and return its path."""
        dump_dir = self.config.validation.dump_dir or "diagnostics"
        step_dir = self.checkpoint(dump_dir, extra={"violation": violation.summary()})
        return str(step_dir)

    def _momentum_totals(self) -> np.ndarray:
        """Local ``[sum(m p), sum(m |p|)]`` as one 4-vector (one
        allreduce summand for conservation and drift checks)."""
        mp = self.mass[:, None] * self.mom
        return np.concatenate([mp.sum(axis=0), [np.abs(mp).sum()]])

    # -- pipeline pieces ---------------------------------------------------------

    def _domain_update(self) -> None:
        """Sampling method + particle exchange (carrying the PP force)."""
        v = self.validator
        check_mom = v.check_enabled("momentum_conservation")
        before = self._momentum_totals() if check_mom else None
        with self.timing.phase("Domain Decomposition/sampling method"):
            self.decomp = self.decomposer.update(self.comm, self.pos, self._pp_cost)
        if v.check_enabled("domain_partition"):
            v.handle(
                check_domain_partition(
                    self.decomp, step=v.step, rank=self.comm.rank
                )
            )
        with self.timing.phase("Domain Decomposition/particle exchange"):
            payload = {
                "pos": self.pos,
                "mom": self.mom,
                "mass": self.mass,
                "ids": self.ids,
            }
            if self._pp_acc is not None:
                payload["pp_acc"] = self._pp_acc
            out = exchange_particles(
                self.comm, self.decomp, payload, step=self.steps_taken
            )
        self.pos = out["pos"]
        self.mom = out["mom"]
        self.mass = out["mass"]
        self.ids = out["ids"]
        self._pp_acc = out.get("pp_acc")
        if check_mom:
            # one allreduce carries before+after; the broadcast result is
            # bit-identical everywhere, so every rank reaches the same
            # verdict and the serial handle path is collective-safe
            totals = self.comm.allreduce(
                np.concatenate([before, self._momentum_totals()]), op="sum"
            )
            v.handle(
                check_momentum(
                    totals[0:3],
                    totals[4:7],
                    stage="decomp/exchange",
                    scale=max(float(totals[3]), 1.0e-300),
                    step=v.step,
                    rank=self.comm.rank,
                )
            )
        if v.check_enabled("domain_containment"):
            v.handle_collective(
                self.comm,
                check_domain_containment(
                    self.pos, self.decomp, self.comm.rank, step=v.step
                ),
            )
        if v.check_enabled("finite_fields"):
            v.handle_collective(
                self.comm,
                first_violation(
                    check_finite(
                        "pos", self.pos, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "mom", self.mom, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "mass", self.mass, stage="decomp/exchange",
                        step=v.step, rank=self.comm.rank,
                    ),
                ),
            )

    def _pp_force(self) -> np.ndarray:
        """Ghost exchange + local tree + kernel; updates ``_pp_cost``."""
        import time as _time

        t_start = _time.perf_counter()
        self.comm.traffic_phase("pp:ghosts")
        gpos, gmass = exchange_ghosts(
            self.comm,
            self.decomp,
            self.pos,
            self.mass,
            rcut=self.split.cutoff_radius,
            ledger=self.timing,
        )
        all_pos = np.vstack([self.pos, gpos])
        all_mass = np.concatenate([self.mass, gmass])
        mask = np.zeros(len(all_pos), dtype=bool)
        mask[: len(self.pos)] = True
        v = self.validator
        tree = None
        if len(all_pos) == 0:
            self._pp_cost = 1.0e-6
            acc_local = np.zeros((0, 3))
        else:
            with self.timing.phase("PP/tree construction"):
                tree = self.tree.build(all_pos, all_mass)
            acc, stats = self.tree.forces(
                all_pos, all_mass, tree=tree, targets_mask=mask, ledger=self.timing
            )
            self.stats.counter.merge(stats.counter)
            self._pp_cost = max(_time.perf_counter() - t_start, 1.0e-9)
            acc_local = acc[: len(self.pos)]
        # collective verdicts even when this rank is empty — every rank
        # must enter the same allgathers or the job deadlocks
        if v.check_enabled("finite_fields"):
            v.handle_collective(
                self.comm,
                first_violation(
                    check_finite(
                        "ghost_pos", gpos, stage="pp/ghosts",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "ghost_mass", gmass, stage="pp/ghosts",
                        step=v.step, rank=self.comm.rank,
                    ),
                    check_finite(
                        "pp_acc", acc_local, stage="treepm/pp",
                        step=v.step, rank=self.comm.rank,
                    ),
                ),
            )
        if v.check_enabled("octree_moments"):
            v.handle_collective(
                self.comm,
                check_octree(tree, step=v.step, rank=self.comm.rank)
                if tree is not None
                else None,
            )
        return acc_local

    def _pm_force(self) -> np.ndarray:
        lo, hi = self.decomp.domain_bounds(self.comm.rank)
        return self.pm.forces(
            self.pos, self.mass, lo, hi, timing=self.timing,
            validator=self.validator if self.validator.enabled else None,
        )

    # -- the step -------------------------------------------------------------------

    def initialize_forces(self) -> None:
        """Bootstrap: first decomposition, PP and PM forces."""
        self._domain_update()
        self._pp_acc = self._pp_force()
        self._pm_acc = self._pm_force()

    def _kick(self, acc: np.ndarray, coeff: float) -> None:
        """``self.mom += acc * coeff`` through the native update kernel
        when available (bitwise-identical numpy arithmetic otherwise)."""
        if not _native_update.kick(self.mom, acc, coeff):
            self.mom += acc * coeff

    def _drift(self, coeff: float) -> None:
        """``self.pos = wrap_positions(self.pos + self.mom * coeff)``."""
        pos = np.array(self.pos, dtype=np.float64)
        if _native_update.drift_wrap(pos, self.mom, coeff, 1.0):
            self.pos = pos
        else:
            self.pos = wrap_positions(self.pos + self.mom * coeff)

    def step(self, t1: float, t2: float) -> None:
        """One full step: 1 PM cycle + ``pp_subcycles`` PP/DD cycles."""
        self.validator.begin_step(self.steps_taken)
        if self._pm_acc is None:
            self.initialize_forces()
        st = self.stepper
        tm = 0.5 * (t1 + t2)
        n_sub = self.config.pp_subcycles

        self._kick(self._pm_acc, st.kick_coeff(t1, tm))

        edges = np.linspace(t1, t2, n_sub + 1)
        for s in range(n_sub):
            s1, s2 = float(edges[s]), float(edges[s + 1])
            sm = 0.5 * (s1 + s2)
            if self.steps_taken > 0 or s > 0:
                # the bootstrap already decomposed and computed PP at
                # the very first substep
                self._domain_update()
                if self._pp_acc is None:
                    self._pp_acc = self._pp_force()
            self._kick(self._pp_acc, st.kick_coeff(s1, sm))
            with self.timing.phase("Domain Decomposition/position update"):
                self._drift(st.drift_coeff(s1, s2))
            self._pp_acc = self._pp_force()
            self._kick(self._pp_acc, st.kick_coeff(sm, s2))

        self._pm_acc = self._pm_force()
        self._kick(self._pm_acc, st.kick_coeff(tm, t2))
        self.steps_taken += 1
        if self._mom_monitor is not None and self.validator.check_enabled(
            "momentum_drift"
        ):
            totals = self.comm.allreduce(self._momentum_totals(), op="sum")
            self.validator.handle(
                self._mom_monitor.update(
                    totals[:3],
                    float(totals[3]),
                    step=self.steps_taken,
                    rank=self.comm.rank,
                )
            )

    def run(
        self,
        t_start: float,
        t_end: float,
        n_steps: int,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        first_step: int = 0,
    ) -> None:
        """Integrate ``n_steps`` equal steps from ``t_start`` to
        ``t_end``, optionally writing a distributed checkpoint every
        ``checkpoint_every`` completed steps (and after the last one).

        ``first_step`` resumes a stored schedule: the step edges are
        recomputed from the *full* schedule so a resumed run hits
        bit-identical step boundaries, then steps before ``first_step``
        are skipped.  Each step begins with a ``comm.fault_point``, the
        hook a :class:`repro.mpi.faults.FaultPlan` uses to kill ranks.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        edges = np.linspace(t_start, t_end, n_steps + 1)
        schedule = {
            "t_start": float(t_start),
            "t_end": float(t_end),
            "n_steps": int(n_steps),
        }
        for i in range(int(first_step), n_steps):
            self.comm.fault_point(i)
            self.step(float(edges[i]), float(edges[i + 1]))
            if checkpoint_every and (
                (i + 1) % checkpoint_every == 0 or i + 1 == n_steps
            ):
                self.checkpoint(
                    checkpoint_dir, schedule={**schedule, "next_step": i + 1}
                )

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint(
        self,
        checkpoint_dir,
        schedule: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ):
        """Write a distributed checkpoint set (collective).

        Every rank writes an atomic, checksummed per-rank file; rank 0
        then writes the manifest (with every file's digest) and flips
        the ``LATEST`` pointer — in that order, so an interrupted
        checkpoint can never be mistaken for a complete one.  ``extra``
        entries are merged into the manifest (diagnostic dumps record
        the triggering violation there).  Returns the step directory.

        Disk exhaustion is handled collectively: rank 0 preflights the
        free space against the previous epoch's measured size, each
        rank's ``ENOSPC`` (real or injected via
        ``FaultPlan.disk_full``) is caught locally, and the gathered
        verdict is broadcast — on any shortfall every rank raises
        :class:`repro.sim.checkpoint.CheckpointSpaceError` together,
        the partial step directory is removed, and the ``LATEST``
        pointer still names the last complete set.
        """
        comm = self.comm
        next_step = (
            int(schedule["next_step"]) if schedule and "next_step" in schedule
            else self.steps_taken
        )
        step_name = _ckpt.step_dirname(next_step)
        checkpoint_dir = Path(checkpoint_dir)
        step_dir = checkpoint_dir / step_name
        preflight = None
        if comm.rank == 0:
            step_dir.mkdir(parents=True, exist_ok=True)
            try:
                prev = _ckpt.latest_checkpoint(checkpoint_dir)
                _ckpt.check_free_space(
                    checkpoint_dir, _ckpt.checkpoint_size(prev)
                )
            except CheckpointSpaceError as exc:
                preflight = str(exc)
            except CheckpointError:
                pass  # first epoch: no size estimate, write and see
        preflight = comm.bcast(preflight, root=0)
        if preflight is not None:
            comm.barrier()
            raise CheckpointSpaceError(preflight)
        comm.barrier()

        history = self.decomposer._history._history
        decomp_flat = self.decomp.flatten()
        arrays = {
            "pos": self.pos,
            "mom": self.mom,
            "mass": self.mass,
            "ids": self.ids,
            "pp_acc": (
                self._pp_acc if self._pp_acc is not None else np.zeros((0, 3))
            ),
            "pm_acc": (
                self._pm_acc if self._pm_acc is not None else np.zeros((0, 3))
            ),
            "decomp": np.asarray(decomp_flat, dtype=np.float64),
            "history": (
                np.stack(history)
                if history
                else np.zeros((0, len(decomp_flat)))
            ),
        }
        meta = {
            "rank": comm.rank,
            "size": comm.size,
            "steps_taken": self.steps_taken,
            "pp_cost": self._pp_cost,
            "decomp_step": self.decomposer._step,
            "has_pp_acc": self._pp_acc is not None,
            "has_pm_acc": self._pm_acc is not None,
        }
        name = _ckpt.rank_filename(comm.rank, comm.size)
        plan = getattr(comm, "fault_plan", None)
        disk_guard = None
        if plan is not None and not plan.empty:
            wr = getattr(comm, "world_rank", comm.rank)
            disk_guard = lambda p, n: plan.check_disk(wr, p, n)
        write_error = None
        digest = ""
        try:
            digest = _ckpt.write_rank_file(
                step_dir / name, arrays, meta, disk_guard=disk_guard
            )
        except CheckpointSpaceError as exc:
            # stay in the collective: the verdict is agreed below
            write_error = str(exc)
        entries = comm.gather(
            {"rank": comm.rank, "name": name, "sha256": digest,
             "n_particles": len(self.pos), "error": write_error},
            root=0,
        )
        verdict = None
        if comm.rank == 0:
            failed = [e for e in entries if e.get("error")]
            if failed:
                verdict = (
                    f"checkpoint {step_name} abandoned: "
                    + "; ".join(
                        f"rank {e['rank']}: {e['error']}" for e in failed
                    )
                )
        verdict = comm.bcast(verdict, root=0)
        if verdict is not None:
            if comm.rank == 0:
                # remove the partial epoch; LATEST was never flipped,
                # so restore still finds the last complete set
                shutil.rmtree(step_dir, ignore_errors=True)
            comm.barrier()
            raise CheckpointSpaceError(verdict)
        if comm.rank == 0:
            manifest = {
                "version": _ckpt.CHECKPOINT_VERSION,
                "n_ranks": comm.size,
                "divisions": list(self.config.domain.divisions),
                "steps_taken": self.steps_taken,
                "schedule": schedule or {"next_step": next_step},
                "config_hash": self.config.config_hash(include_layout=False),
                "config": self.config.to_dict(),
                "total_particles": int(sum(e["n_particles"] for e in entries)),
                "files": entries,
            }
            if extra:
                manifest.update(extra)
            _ckpt.write_manifest(step_dir, manifest)
            _ckpt.update_latest(checkpoint_dir, step_name)
            keep_last = int(self.config.sdc.keep_last)
            if keep_last:
                # retention: the pointer is durable, so older epochs
                # beyond the window can go
                _ckpt.prune_checkpoints(checkpoint_dir, keep_last)
        # no rank may leave before the manifest exists: a kill after this
        # barrier always finds a complete set on disk
        comm.barrier()
        return step_dir

    @classmethod
    def restore(cls, comm, config: SimulationConfig, step_dir, stepper=None):
        """Rebuild per-rank state from a checkpoint set (collective).

        With the checkpoint's original rank count every rank reloads
        its own file — including force accumulators and the boundary
        history — so the resumed trajectory is bit-for-bit identical to
        an uninterrupted run.  With a different rank count the merged,
        id-ordered particle state is re-scattered and the decomposition
        bootstraps afresh (forces are then recomputed on the first
        step).
        """
        step_dir = Path(step_dir)
        manifest = _ckpt.read_manifest(step_dir)
        want = config.config_hash(include_layout=False)
        if manifest["config_hash"] != want:
            raise CheckpointError(
                f"checkpoint '{step_dir}' was written by a different "
                f"configuration (hash {manifest['config_hash'][:12]}..., "
                f"ours {want[:12]}...)"
            )
        if int(manifest["n_ranks"]) == comm.size:
            entry = manifest["files"][comm.rank]
            path = step_dir / entry["name"]
            if not path.exists():
                raise CheckpointError(
                    f"torn checkpoint '{step_dir}': missing rank file "
                    f"'{entry['name']}'"
                )
            if _ckpt.file_digest(path) != entry["sha256"]:
                raise CheckpointError(
                    f"corrupt checkpoint '{step_dir}': digest mismatch for "
                    f"'{entry['name']}'"
                )
            arrays, meta = _ckpt.read_rank_file(
                path, strict=config.validation.strict_load
            )
            sim = cls(
                comm, config, arrays["pos"], arrays["mom"], arrays["mass"],
                stepper=stepper, ids=arrays["ids"],
            )
            sim.steps_taken = int(manifest["steps_taken"])
            sim._pp_cost = float(meta["pp_cost"])
            if meta["has_pp_acc"]:
                sim._pp_acc = arrays["pp_acc"]
            if meta["has_pm_acc"]:
                sim._pm_acc = arrays["pm_acc"]
            sim.decomp = MultisectionDecomposition.unflatten(
                arrays["decomp"], config.domain.divisions, 1.0
            )
            sim.decomposer._step = int(meta["decomp_step"])
            sim.decomposer._history._history = [
                h.copy() for h in arrays["history"]
            ]
            return sim

        # different rank count: merge (validating the whole set), then
        # re-scatter contiguous id-ordered slices
        if comm.rank == 0:
            merged = _ckpt.load_distributed_checkpoint(
                step_dir, strict=config.validation.strict_load
            )
            n = len(merged["ids"])
            chunks = []
            for r in range(comm.size):
                lo = n * r // comm.size
                hi = n * (r + 1) // comm.size
                chunks.append(
                    {k: merged[k][lo:hi] for k in ("pos", "mom", "mass", "ids")}
                )
        else:
            chunks = None
        part = comm.scatter(chunks, root=0)
        sim = cls(
            comm, config, part["pos"], part["mom"], part["mass"],
            stepper=stepper, ids=part["ids"],
        )
        sim.steps_taken = int(manifest["steps_taken"])
        return sim

    # -- output ------------------------------------------------------------------------

    def gather_state(self):
        """Gather (pos, mom, mass) on rank 0, sorted by particle id
        (i.e. the original global ordering); None elsewhere."""
        parts = self.comm.gather((self.pos, self.mom, self.mass, self.ids), root=0)
        if self.comm.rank != 0:
            return None
        pos = np.vstack([p for p, _, _, _ in parts])
        mom = np.vstack([m for _, m, _, _ in parts])
        mass = np.concatenate([w for _, _, w, _ in parts])
        ids = np.concatenate([i for _, _, _, i in parts])
        order = np.argsort(ids)
        return pos[order], mom[order], mass[order]

    def table1_rows(self) -> Dict[str, float]:
        """This rank's accumulated per-phase seconds, Table I naming."""
        return self.timing.as_dict()

    def report(self) -> "RankReport":
        """Picklable per-rank summary (what a multiprocess rank returns
        instead of the live — unpicklable — simulation object)."""
        return RankReport(
            rank=self.comm.rank,
            size=self.comm.size,
            world_rank=self.comm.world_rank,
            steps_taken=int(self.steps_taken),
            n_local=int(len(self.pos)),
            timing=self.timing.as_dict(),
            interactions=int(self.stats.interactions),
        )


class RankReport:
    """Per-rank run summary that crosses process boundaries.

    Duck-types the result surface drivers and benchmarks consume from a
    :class:`ParallelSimulation` (``timing`` via :meth:`table1_rows`,
    ``steps_taken``); backends whose ranks live in other processes
    return these instead of simulation objects.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        world_rank: int,
        steps_taken: int,
        n_local: int,
        timing: Dict[str, float],
        interactions: int = 0,
    ) -> None:
        self.rank = rank
        self.size = size
        self.world_rank = world_rank
        self.steps_taken = steps_taken
        self.n_local = n_local
        self.timing = timing
        self.interactions = interactions

    def table1_rows(self) -> Dict[str, float]:
        return dict(self.timing)

    @property
    def stats(self) -> "RankReport":
        """Duck-types ``ParallelSimulation.stats.interactions``."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankReport(rank={self.rank}/{self.size}, "
            f"steps={self.steps_taken}, n_local={self.n_local})"
        )


def run_parallel_simulation(
    config: SimulationConfig,
    pos: np.ndarray,
    mom: np.ndarray,
    mass: np.ndarray,
    t_start: float,
    t_end: float,
    n_steps: int,
    stepper=None,
    torus_shape=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    fault_plan=None,
    recv_timeout: Optional[float] = None,
    watchdog_timeout: Optional[float] = None,
    backend="thread",
):
    """Convenience driver: scatter global arrays, run, gather results.

    Returns ``(pos, mom, mass, sims, runtime)`` where ``sims`` is the
    list of per-rank :class:`ParallelSimulation` objects (timings,
    statistics) and ``runtime`` exposes the traffic log / network model.
    ``checkpoint_every``/``checkpoint_dir`` enable distributed
    checkpoints; ``fault_plan``/``recv_timeout``/``watchdog_timeout``
    are forwarded to the backend.

    ``backend`` selects the communicator backend by registry name
    (``"thread"``, ``"multiprocess"``, ``"mpi4py"``) or accepts a
    pre-built :class:`repro.mpi.backend.CommBackend`.  Ranks that run
    in other processes return a picklable :class:`RankReport` in
    ``sims`` instead of the live simulation object.
    """
    n_ranks = config.domain.n_domains
    runtime = create_backend(
        backend,
        n_ranks,
        torus_shape=torus_shape,
        fault_plan=fault_plan,
        recv_timeout=recv_timeout,
        watchdog_timeout=watchdog_timeout,
    )
    in_process = runtime.name == "thread"

    def spmd(comm):
        n = len(pos)
        lo = n * comm.rank // comm.size
        hi = n * (comm.rank + 1) // comm.size
        sim = ParallelSimulation(
            comm, config, pos[lo:hi], mom[lo:hi], mass[lo:hi], stepper=stepper
        )
        sim.run(
            t_start, t_end, n_steps,
            checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        )
        return (sim if in_process else sim.report()), sim.gather_state()

    results = runtime.run(spmd)
    sims = [r[0] for r in results]
    state = results[0][1]
    return state[0], state[1], state[2], sims, runtime


def resume_parallel_simulation(
    config: SimulationConfig,
    checkpoint_dir,
    stepper=None,
    torus_shape=None,
    checkpoint_every: Optional[int] = None,
    fault_plan=None,
    recv_timeout: Optional[float] = None,
    watchdog_timeout: Optional[float] = None,
    backend="thread",
):
    """Resume the schedule stored in the newest complete checkpoint.

    The rank count comes from ``config.domain.n_domains`` — it may
    differ from the count the checkpoint was written with, in which
    case the merged particle state is re-decomposed.  Passing
    ``checkpoint_every`` keeps checkpointing into the same directory.
    Returns the same tuple as :func:`run_parallel_simulation`;
    ``backend`` selects the communicator backend the same way.
    """
    step_dir = _ckpt.latest_checkpoint(checkpoint_dir)
    manifest = _ckpt.read_manifest(step_dir)
    schedule = manifest["schedule"]
    for key in ("t_start", "t_end", "n_steps", "next_step"):
        if key not in schedule:
            raise CheckpointError(
                f"checkpoint '{step_dir}' stores no resumable schedule "
                f"(missing '{key}'); pass the schedule to ParallelSimulation.run"
            )
    n_ranks = config.domain.n_domains
    runtime = create_backend(
        backend,
        n_ranks,
        torus_shape=torus_shape,
        fault_plan=fault_plan,
        recv_timeout=recv_timeout,
        watchdog_timeout=watchdog_timeout,
    )
    in_process = runtime.name == "thread"

    def spmd(comm):
        sim = ParallelSimulation.restore(comm, config, step_dir, stepper=stepper)
        sim.run(
            float(schedule["t_start"]),
            float(schedule["t_end"]),
            int(schedule["n_steps"]),
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir if checkpoint_every else None,
            first_step=int(schedule["next_step"]),
        )
        return (sim if in_process else sim.report()), sim.gather_state()

    results = runtime.run(spmd)
    sims = [r[0] for r in results]
    state = results[0][1]
    return state[0], state[1], state[2], sims, runtime
