"""Tests of adaptive stepping and the pencil backend in the drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.cosmology.expansion import Expansion
from repro.cosmology.params import EINSTEIN_DE_SITTER
from repro.integrate.stepper import CosmoStepper
from repro.integrate.timestep import StepController
from repro.sim.parallel import run_parallel_simulation
from repro.sim.serial import SerialSimulation


def _cfg(**kw):
    pm = kw.pop("pm", PMConfig(mesh_size=16))
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=32),
            pm=pm,
            softening=5e-3,
        ),
        **kw,
    )


class TestAdaptiveRun:
    def test_reaches_end_time(self, rng):
        pos = rng.random((64, 3))
        mass = np.full(64, 1.0 / 64)
        sim = SerialSimulation(
            _cfg(), pos, np.zeros_like(pos), mass,
            stepper=CosmoStepper(EINSTEIN_DE_SITTER),
        )
        ctrl = StepController(
            Expansion(EINSTEIN_DE_SITTER), eps=5e-3, max_dloga=0.2
        )
        times = []
        steps = sim.run_adaptive(
            0.02, 0.05, ctrl, on_step=lambda s, t: times.append(t)
        )
        assert steps == len(times)
        assert times[-1] == pytest.approx(0.05)
        assert all(b > a for a, b in zip(times[:-1], times[1:]))

    def test_max_steps_guard(self, rng):
        pos = rng.random((16, 3))
        mass = np.full(16, 1.0 / 16)
        sim = SerialSimulation(
            _cfg(), pos, np.zeros_like(pos), mass,
            stepper=CosmoStepper(EINSTEIN_DE_SITTER),
        )
        ctrl = StepController(
            Expansion(EINSTEIN_DE_SITTER), eps=5e-3, max_dloga=1e-4
        )
        with pytest.raises(RuntimeError, match="max_steps"):
            sim.run_adaptive(0.02, 0.5, ctrl, max_steps=5)


class TestPencilBackendInDriver:
    def test_matches_slab_backend(self):
        rng = np.random.default_rng(21)
        pos = rng.random((96, 3))
        mom = 0.01 * rng.standard_normal((96, 3))
        mass = np.full(96, 1.0 / 96)

        out = {}
        for backend in ("slab", "pencil"):
            cfg = _cfg(
                pm=PMConfig(mesh_size=16, fft_backend=backend),
                domain=DomainConfig(divisions=(2, 2, 1), sample_rate=0.3),
            )
            p, m, w, sims, _ = run_parallel_simulation(
                cfg, pos, mom, mass, 0.0, 0.04, n_steps=1
            )
            out[backend] = (p, m)

        np.testing.assert_allclose(
            out["pencil"][0], out["slab"][0], atol=1e-9
        )
        np.testing.assert_allclose(
            out["pencil"][1], out["slab"][1], atol=1e-8
        )

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="fft_backend"):
            PMConfig(fft_backend="cube")

    def test_pencil_rejects_relay_groups(self):
        """``fft_backend="pencil"`` has no relay mesh: a relay group
        count above 1 is refused up front instead of being ignored."""
        pencil = PMConfig(mesh_size=16, fft_backend="pencil")
        with pytest.raises(ValueError, match="n_groups"):
            _cfg(pm=pencil, relay=RelayMeshConfig(n_groups=2))
        assert _cfg(pm=pencil, relay=RelayMeshConfig(n_groups=1))
