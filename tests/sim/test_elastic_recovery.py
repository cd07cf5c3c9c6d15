"""End-to-end elastic shrink-and-continue recovery.

Kill ranks mid-run and require the surviving job to finish the full
schedule with particle count, total mass and total momentum conserved
— via the in-memory buddy path, the disk-checkpoint fallback, and the
clean failure when neither exists.  Includes the randomized
kill-anywhere property test and the LATEST-pointer crash-window
regression."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DomainConfig, PMConfig, SimulationConfig, TreePMConfig
from repro.mpi.faults import FaultPlan
from repro.mpi.recovery import RecoveryError
from repro.sim import checkpoint as _ckpt
from repro.sim.elastic import config_for_ranks, run_elastic_simulation
from repro.sim.io import atomic_write
from repro.sim.parallel import run_parallel_simulation

pytestmark = [pytest.mark.faults, pytest.mark.timeout(300)]

N = 96
N_STEPS = 4
T_END = 0.04


def _cfg(n_ranks=3):
    return SimulationConfig(
        domain=DomainConfig(
            divisions=(n_ranks, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
    )


def _system(seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.random((N, 3)),
        rng.normal(scale=0.01, size=(N, 3)),
        np.full(N, 1.0 / N),
    )


def _assert_conserved(pos0, mom0, mass0, p, m, w):
    assert len(p) == len(pos0)
    assert w.sum() == pytest.approx(mass0.sum(), rel=1e-13)
    p_before = (mass0[:, None] * mom0).sum(axis=0)
    p_after = (w[:, None] * m).sum(axis=0)
    # total momentum moves only by the (approximate) antisymmetry of
    # the tree PP forces over the run — loose but meaningful bound
    np.testing.assert_allclose(p_after, p_before, atol=1e-6)


class TestElasticRecovery:
    def test_fault_free_elastic_matches_plain_run(self):
        pos, mom, mass = _system()
        p_ref, m_ref, w_ref, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS
        )
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS, recv_timeout=5.0
        )
        assert runtime.dead_ranks == []
        assert all(r.events == [] for r in runners)
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(m, m_ref)
        np.testing.assert_array_equal(w, w_ref)

    def test_buddy_recovery_completes_schedule(self):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, 2)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
        )
        assert runtime.dead_ranks == [1]
        live = [r for r in runners if r is not None]
        assert [r.comm.size for r in live] == [2, 2]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        (event,) = live[0].events
        assert event.mode == "buddy"
        assert event.dead_ranks == (1,)
        assert event.n_survivors == 2
        assert event.duration > 0
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_buddy_cadence_replays_lost_steps(self):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(2, 3)
        p, m, w, runners, _ = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=2,
        )
        live = [r for r in runners if r is not None]
        (event,) = live[0].events
        # boundary refreshes land on steps 0 and 2 with K=2: a kill at
        # step 3 rolls back to 2.  Where the failure *surfaces* is
        # per-rank: a survivor still in step 2's tail communication can
        # observe the death before its counter reaches 3.
        assert event.resumed_step == 2
        assert event.failed_step in (2, 3)
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_disk_fallback_when_owner_and_buddy_die(self, tmp_path):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, 2).kill_rank(2, 2)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(4), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        assert sorted(runtime.dead_ranks) == [1, 2]
        live = [r for r in runners if r is not None]
        assert [r.comm.size for r in live] == [2, 2]
        (event,) = live[0].events
        assert event.mode == "disk"
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_no_checkpoint_and_no_buddy_fails_cleanly(self):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(1, 2).kill_rank(2, 2)
        with pytest.raises(RuntimeError) as exc_info:
            run_elastic_simulation(
                _cfg(4), pos, mom, mass, 0.0, T_END, N_STEPS,
                fault_plan=plan, recv_timeout=2.0, buddy_every=1,
            )
        errors = getattr(exc_info.value, "rank_errors", {})
        assert any(isinstance(e, RecoveryError) for e in errors.values())

    def test_elastic_requires_finite_recv_timeout(self):
        pos, mom, mass = _system()
        with pytest.raises(ValueError, match="recv_timeout"):
            run_elastic_simulation(
                _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS, recv_timeout=None
            )

    def test_two_sequential_deaths(self):
        pos, mom, mass = _system()
        plan = FaultPlan().kill_rank(0, 1).kill_rank(2, 3)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(4), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
        )
        assert sorted(runtime.dead_ranks) == [0, 2]
        live = [r for r in runners if r is not None]
        assert [r.comm.size for r in live] == [2, 2]
        assert [len(r.events) for r in live] == [2, 2]
        assert [e.mode for e in live[0].events] == ["buddy", "buddy"]
        assert live[0].events[0].epoch == 1
        assert live[0].events[1].epoch == 2
        _assert_conserved(pos, mom, mass, p, m, w)


class TestKillAnywhereProperty:
    """Satellite: random (rank, step) kills conserve the invariants."""

    @given(
        rank=st.integers(min_value=0, max_value=2),
        step=st.integers(min_value=0, max_value=N_STEPS - 1),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_conservation_under_random_kill(self, rank, step):
        pos, mom, mass = _system(seed=9)
        plan = FaultPlan().kill_rank(rank, step)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=3.0, buddy_every=1,
        )
        assert runtime.dead_ranks == [rank]
        live = [r for r in runners if r is not None]
        assert len(live) == 2
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        assert live[0].events[0].mode == "buddy"
        _assert_conserved(pos, mom, mass, p, m, w)


class TestConfigForRanks:
    def test_retargets_divisions_and_keeps_hash(self):
        cfg = _cfg(4)
        shrunk = config_for_ranks(cfg, 3)
        assert shrunk.domain.n_domains == 3
        assert shrunk.config_hash(include_layout=False) == cfg.config_hash(
            include_layout=False
        )

    def test_clamps_relay_groups(self):
        from repro.config import RelayMeshConfig

        cfg = _cfg(4).with_(relay=RelayMeshConfig(n_groups=4))
        shrunk = config_for_ranks(cfg, 2)
        assert shrunk.relay.n_groups == 2

    def test_pencil_keeps_its_single_group(self):
        from dataclasses import replace

        tp = _cfg(4).treepm
        cfg = _cfg(4).with_(
            treepm=replace(tp, pm=replace(tp.pm, fft_backend="pencil"))
        )
        shrunk = config_for_ranks(cfg, 1)
        assert shrunk.relay.n_groups == 1
        assert shrunk.treepm.pm.fft_backend == "pencil"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            config_for_ranks(_cfg(), 0)


class TestLatestPointerDurability:
    """Satellite: the LATEST flip is fsynced and crash-atomic."""

    def test_update_latest_fsyncs_directories(self, tmp_path, monkeypatch):
        (tmp_path / "step_00001").mkdir()
        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        _ckpt.update_latest(tmp_path, "step_00001")
        inodes = {
            os.stat(p).st_ino
            for p in (tmp_path, tmp_path / "step_00001")
        }
        # both the step dir and the checkpoint dir (rename parent) were
        # fsynced, plus the pointer temp file itself
        assert inodes <= set(synced)
        assert len(synced) >= 3
        assert (tmp_path / _ckpt.LATEST_NAME).read_text().strip() == "step_00001"

    def test_crash_during_flip_preserves_previous_pointer(
        self, tmp_path, monkeypatch
    ):
        for name in ("step_00001", "step_00002"):
            (tmp_path / name).mkdir()
        _ckpt.update_latest(tmp_path, "step_00001")

        real_replace = os.replace

        def crashing_replace(src, dst):
            if str(dst).endswith(_ckpt.LATEST_NAME):
                raise OSError("simulated crash inside the pointer flip")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            _ckpt.update_latest(tmp_path, "step_00002")
        monkeypatch.undo()

        # the previous pointer survives intact, no temp litter remains
        assert (tmp_path / _ckpt.LATEST_NAME).read_text().strip() == "step_00001"
        assert _ckpt.latest_checkpoint(tmp_path) == tmp_path / "step_00001"
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_atomic_write_fsync_parent_flag(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        atomic_write(tmp_path / "a", lambda fh: fh.write(b"x"))
        without_parent = len(synced)
        atomic_write(tmp_path / "b", lambda fh: fh.write(b"x"), fsync_parent=True)
        assert len(synced) == without_parent + 2  # temp file + parent dir
