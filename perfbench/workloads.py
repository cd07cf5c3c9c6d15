"""The benchmark's three workloads: inputs, configuration and schedule.

Every workload is a pure function of the seed: :func:`make_inputs`
returns the same particles for the same seed, and the program receives
only those particles plus a fixed configuration.  Why each workload
exists is recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.

* ``halo-pp`` — serial, static: Plummer halos plus a uniform
  background on a 32^3 mesh.  The short-range (tree + PP) part is
  almost the whole step.
* ``cosmo-pm`` — serial, comoving: a 24^3 Zel'dovich lattice on a
  128^3 mesh.  The mesh phases dominate; interaction lists are short.
* ``cosmo-2rank`` — 32^3 Zel'dovich on a 64^3 mesh, two real processes
  under the elastic runner with checkpoints, SDC audits, health
  monitoring and buddy replication on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

#: Plummer halos of the ``halo-pp`` workload.  The centres are fixed:
#: two halos straddle the periodic x faces and two sit in the interior,
#: so every seed sweeps the same mix of wrapped and unwrapped
#: interaction groups.  Centres drawn at random put 41-83% of the pairs
#: in wrapped groups, and the PP time varied by 35% between seeds.
HALO_CENTRES = np.array([
    [0.0, 0.25, 0.25],
    [0.5, 0.75, 0.25],
    [0.5, 0.25, 0.75],
    [0.0, 0.75, 0.75],
])
#: seed-drawn shift of each centre, per axis (keeps the interior halos
#: and their cutoff sphere off the faces)
HALO_JITTER = 0.03
HALO_COUNT = len(HALO_CENTRES)
HALO_PARTICLES = 1000
HALO_MASS_FRACTION = 0.8
HALO_SCALE = 0.02
#: Plummer radius cut, in scale radii (94% of the Plummer mass inside)
HALO_TRUNCATION = 5.0
BACKGROUND_PARTICLES = 1000

#: Largest displacement the schedule allows in one step, in mesh cells.
#: It stays well below the parallel PM's ghost reach (one cell, see
#: ``checks.ghost_reach_cells``), which the output checks enforce.
STEP_DISPLACEMENT_CELLS = 0.05

#: Microhalo-scale cosmology, as in ``examples/cosmological_box.py``
K_FS = 1.0e6
BOX_MPC_H = 40.0 / K_FS
BOOST = 3.0
A_START = 1.0 / 401.0
#: Scale-factor increment per step, as a share of ``A_START``
DA_FRACTION = 0.005

#: ``cosmo-2rank``: checkpoint cadence (steps) of the elastic runner
CHECKPOINT_EVERY = 4


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the configuration that runs them."""

    name: str
    parallel: bool
    mesh: int
    n_per_dim: int = 0  # cosmological lattice; 0 for the halo workload
    softening: float = 1.0e-4

    @property
    def cosmological(self) -> bool:
        return self.n_per_dim > 0

    @property
    def n_particles(self) -> int:
        if self.cosmological:
            return self.n_per_dim**3
        return HALO_COUNT * HALO_PARTICLES + BACKGROUND_PARTICLES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("halo-pp", parallel=False, mesh=32, softening=2.0e-3),
        Workload("cosmo-pm", parallel=False, mesh=128, n_per_dim=24,
                 softening=0.02 / 24),
        Workload("cosmo-2rank", parallel=True, mesh=64, n_per_dim=32,
                 softening=0.02 / 32),
    )
}


# -- inputs ---------------------------------------------------------------------


def _plummer(rng, n: int, mass: float, scale: float):
    """Positions and velocities of an isotropic Plummer sphere (G = 1),
    truncated at ``HALO_TRUNCATION`` scale radii (Aarseth, Henon &
    Wielen 1974)."""
    x_max = HALO_TRUNCATION**3 / (HALO_TRUNCATION**2 + 1.0) ** 1.5
    x = rng.random(n) * x_max
    r = scale / np.sqrt(x ** (-2.0 / 3.0) - 1.0)
    pos = r[:, None] * _unit_vectors(rng, n)
    # speed as a fraction q of the local escape speed, from the
    # distribution q^2 (1 - q^2)^3.5 by rejection
    q = np.empty(0)
    while len(q) < n:
        cand = rng.random(4 * n)
        keep = 0.1 * rng.random(4 * n) < cand**2 * (1.0 - cand**2) ** 3.5
        q = np.concatenate([q, cand[keep]])
    v_esc = np.sqrt(2.0 * mass / np.sqrt(r**2 + scale**2))
    vel = (q[:n] * v_esc)[:, None] * _unit_vectors(rng, n)
    return pos, vel


def _unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def halo_inputs(seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``halo-pp`` particles: Plummer halos at the jittered
    ``HALO_CENTRES`` plus a uniform background; total mass 1, equal
    particle masses."""
    rng = np.random.default_rng(seed)
    n_halo = HALO_COUNT * HALO_PARTICLES
    n = n_halo + BACKGROUND_PARTICLES
    m_halo = HALO_MASS_FRACTION / HALO_COUNT
    pos, vel = [], []
    jitter = HALO_JITTER * (2.0 * rng.random((HALO_COUNT, 3)) - 1.0)
    for c in HALO_CENTRES + jitter:
        p, v = _plummer(rng, HALO_PARTICLES, m_halo, HALO_SCALE)
        pos.append(c + p)
        vel.append(v)
    pos.append(rng.random((BACKGROUND_PARTICLES, 3)))
    vel.append(np.zeros((BACKGROUND_PARTICLES, 3)))
    pos = np.mod(np.vstack(pos), 1.0)
    pos[pos >= 1.0] = 0.0
    return pos, np.vstack(vel), np.full(n, 1.0 / n)


def cosmo_inputs(w: Workload, seed: int):
    """Zel'dovich particles at ``A_START`` (``repro.ic``)."""
    from repro.cosmology.params import WMAP7
    from repro.cosmology.power_spectrum import PowerSpectrum
    from repro.ic.zeldovich import ZeldovichIC

    base = PowerSpectrum(WMAP7, k_fs=K_FS).in_box_units(BOX_MPC_H)
    ic = ZeldovichIC(
        WMAP7,
        lambda k, z=0.0: BOOST**2 * base(k, z),
        n_per_dim=w.n_per_dim,
        mesh_n=2 * w.n_per_dim,
        seed=seed,
    )
    return ic.generate(a_start=A_START)


def make_inputs(w: Workload, seed: int):
    """``(pos, mom, mass)`` of a workload; the same seed gives the same
    particles."""
    if w.cosmological:
        return cosmo_inputs(w, seed)
    return halo_inputs(seed)


# -- configuration and schedule ------------------------------------------------


def make_config(w: Workload):
    from repro.config import (
        DomainConfig,
        HealthConfig,
        PMConfig,
        RelayMeshConfig,
        SdcConfig,
        SimulationConfig,
        TreePMConfig,
    )

    kwargs = {}
    if w.parallel:
        kwargs = dict(
            domain=DomainConfig(divisions=(2, 1, 1), cost_balance=True),
            relay=RelayMeshConfig(n_groups=2),
            sdc=SdcConfig(policy="warn"),
            health=HealthConfig(policy="monitor"),
        )
    return SimulationConfig(
        n_particles=w.n_particles,
        treepm=TreePMConfig(
            pm=PMConfig(mesh_size=w.mesh), softening=w.softening
        ),
        pp_subcycles=2,
        **kwargs,
    )


def make_stepper(w: Workload):
    if not w.cosmological:
        return None
    from repro.cosmology.params import WMAP7
    from repro.integrate.stepper import CosmoStepper

    return CosmoStepper(WMAP7)


def schedule(w: Workload) -> Callable[[int], Tuple[float, float]]:
    """``step -> (t1, t2)``: an open-ended schedule of equal steps, in
    time (static) or scale factor (cosmological).

    The static step moves the fastest possible halo particle (escape
    speed at the Plummer centre) ``STEP_DISPLACEMENT_CELLS`` mesh cells.
    """
    if w.cosmological:
        t0, dt = A_START, DA_FRACTION * A_START
    else:
        v_max = np.sqrt(2.0 * HALO_MASS_FRACTION / HALO_COUNT / HALO_SCALE)
        t0, dt = 0.0, STEP_DISPLACEMENT_CELLS / w.mesh / v_max
    return lambda i: (t0 + i * dt, t0 + (i + 1) * dt)


def probe_indices(n: int, count: int) -> np.ndarray:
    """The fixed force-error probe: ``count`` particle ids spread
    evenly over the id range (independent of the seed)."""
    return np.linspace(0, n - 1, count).astype(np.int64)
