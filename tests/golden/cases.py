"""Golden-digest cases: small fixed runs whose outputs must never change.

Each case returns a dict of named float64 arrays; :func:`digest` hashes
them into sha256 hex strings.  ``digests.json`` holds the values these
cases produced before the PM-cycle and force-path merges, one set per
numpy SIMD dispatch level (see ``capture.py``), and
``test_golden.py`` recomputes and compares them bit for bit.  Native
kernels on and off (``REPRO_NO_NATIVE=1``) must give the same digests.

Regenerate (only when a change is *meant* to alter results, and say so
in the change log)::

    PYTHONPATH=src python -m tests.golden.capture

Parallel cases pin ``DomainConfig(cost_balance=False)``: the default
cost-balanced sampler reads wall-clock PP cost, so its decomposition and
hence the bits of the trajectory vary from run to run.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import numpy as np

from repro.config import (
    DomainConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreePMConfig,
)

MESH = 16
N_STEPS = 2


def digest(arrays: Dict[str, np.ndarray]) -> Dict[str, str]:
    """sha256 of each array's little-endian float64 bytes."""
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
        ).hexdigest()
        for name, a in sorted(arrays.items())
    }


def _static_state(n: int = 256, seed: int = 20121110):
    """A clustered blob plus a uniform background, small random momenta."""
    rng = np.random.default_rng(seed)
    n_blob = n // 2
    pos = np.mod(
        np.vstack(
            [
                0.5 + 0.06 * rng.standard_normal((n_blob, 3)),
                rng.random((n - n_blob, 3)),
            ]
        ),
        1.0,
    )
    mom = 0.02 * rng.standard_normal(pos.shape)
    mass = np.full(n, 1.0 / n)
    return pos, mom, mass


def _config(fft: str = "slab", **kw) -> SimulationConfig:
    pm = PMConfig(mesh_size=MESH, fft_backend=fft)
    return SimulationConfig(treepm=TreePMConfig(pm=pm), **kw)


# -- serial trajectories ---------------------------------------------------------


def serial_static():
    from repro.sim.serial import SerialSimulation

    pos, mom, mass = _static_state()
    sim = SerialSimulation(_config(), pos, mom, mass)
    sim.run(0.0, 0.02, N_STEPS)
    return {"pos": sim.pos, "mom": sim.mom}


def serial_cosmological():
    from repro.cosmology.params import WMAP7
    from repro.cosmology.power_spectrum import PowerSpectrum
    from repro.ic.zeldovich import ZeldovichIC
    from repro.integrate.stepper import CosmoStepper
    from repro.sim.serial import SerialSimulation

    base = PowerSpectrum(WMAP7, k_fs=1.0e6).in_box_units(4.0e-5)
    ic = ZeldovichIC(WMAP7, base, n_per_dim=8, mesh_n=MESH, seed=3)
    pos, mom, mass = ic.generate(a_start=0.02)
    sim = SerialSimulation(
        _config(), pos, mom, mass, stepper=CosmoStepper(WMAP7)
    )
    sim.run(0.02, 0.04, N_STEPS)
    return {"pos": sim.pos, "mom": sim.mom}


# -- parallel trajectories ---------------------------------------------------------


def _parallel(divisions, backend="thread", n_groups=1, fft="slab"):
    from repro.sim.parallel import run_parallel_simulation

    pos, mom, mass = _static_state()
    cfg = _config(
        fft=fft,
        domain=DomainConfig(
            divisions=divisions, sample_rate=0.3, cost_balance=False
        ),
        relay=RelayMeshConfig(n_groups=n_groups),
    )
    pos, mom, _, _, _ = run_parallel_simulation(
        cfg, pos, mom, mass, 0.0, 0.02, N_STEPS, backend=backend
    )
    return {"pos": pos, "mom": mom}


def thread_slab_direct_2():
    return _parallel((2, 1, 1))


def thread_slab_relay_4():
    return _parallel((2, 2, 1), n_groups=2)


def thread_pencil_4():
    return _parallel((2, 2, 1), fft="pencil")


def multiprocess_slab_2():
    return _parallel((2, 1, 1), backend="multiprocess")


# -- single force evaluations ---------------------------------------------------------


def _grid_domains(div):
    doms = []
    for i in range(div[0]):
        for j in range(div[1]):
            for k in range(div[2]):
                lo = np.array([i / div[0], j / div[1], k / div[2]])
                hi = np.array(
                    [(i + 1) / div[0], (j + 1) / div[1], (k + 1) / div[2]]
                )
                doms.append((lo, hi))
    return doms


def _pm_forces(div, **pm_kw):
    """One ``ParallelPM.forces`` call per rank on fixed domains; the
    per-rank results are scattered back into global particle order."""
    from repro.forces.cutoff import S2ForceSplit
    from repro.meshcomm.parallel_pm import ParallelPM
    from repro.mpi.runtime import run_spmd

    pos, _, mass = _static_state(seed=2012)
    split = S2ForceSplit(3.0 / MESH)
    domains = _grid_domains(div)

    def fn(comm):
        lo, hi = domains[comm.rank]
        sel = np.all((pos >= lo) & (pos < hi), axis=1)
        pm = ParallelPM(comm, MESH, split=split, **pm_kw)
        return sel, pm.forces(pos[sel], mass[sel], lo, hi)

    acc = np.full_like(pos, np.nan)
    for sel, a in run_spmd(len(domains), fn):
        acc[sel] = a
    assert not np.isnan(acc).any(), "domains must cover every particle"
    return {"acc": acc}


def pm_slab_direct_2():
    return _pm_forces((2, 1, 1))


def pm_slab_relay_4():
    return _pm_forces((2, 2, 1), n_fft=2, n_groups=2)


def pm_pencil_4():
    return _pm_forces((2, 2, 1), fft="pencil", grid=(2, 2))


def treepm_forces():
    from repro.treepm.solver import TreePMSolver

    pos, _, mass = _static_state(seed=7)
    f = TreePMSolver(TreePMConfig(pm=PMConfig(mesh_size=MESH))).forces(
        pos, mass
    )
    return {
        "total": f.total,
        "short_range": f.short_range,
        "long_range": f.long_range,
    }


CASES: Dict[str, Callable[[], Dict[str, np.ndarray]]] = {
    f.__name__: f
    for f in (
        serial_static,
        serial_cosmological,
        thread_slab_direct_2,
        thread_slab_relay_4,
        thread_pencil_4,
        multiprocess_slab_2,
        pm_slab_direct_2,
        pm_slab_relay_4,
        pm_pencil_4,
        treepm_forces,
    )
}
