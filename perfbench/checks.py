"""Output checks of every benchmark run (the basis of ``pass_frac``).

A run passes when

* all positions and momenta are finite;
* particle count, ids and every particle's mass are conserved exactly;
* the net momentum change is at most ``MOMENTUM_TOL`` of the total
  impulse, ``sum over steps and particles of m |dp|``: the forces'
  asymmetry, independent of how many steps a run takes;
* the probe's rms force error against Ewald summation is below
  ``FORCE_TOL`` of the rms reference force;
* no particle moves farther in one step than the parallel PM's ghost
  reach, :func:`ghost_reach_cells`.

The last check guards the time step.  A step that moves particles by
several mesh cells still runs serially, but on two ranks ``ParallelPM``
then raises "stencil leaves the local mesh".
"""

from __future__ import annotations

import hashlib
import math
from typing import List

import numpy as np

#: largest accepted rms force error, relative to the rms reference force
FORCE_TOL = 0.05
#: largest accepted |sum m p - sum m p0| / (total impulse)
MOMENTUM_TOL = 0.01


def ghost_reach_cells() -> float:
    """How far (in mesh cells) a particle may leave its domain before
    its TSC stencil leaves the parallel PM's ghosted density mesh: the
    ghost width minus the stencil's one-cell half width."""
    from repro.meshcomm.parallel_pm import DENSITY_GHOST

    return float(DENSITY_GHOST - 1)


def check_state(initial: dict, final: dict, max_disp_cells: float,
                impulse: float) -> List[str]:
    """Failures of a final state against the initial one.  ``initial``
    and ``final`` hold ``pos``, ``mom``, ``mass`` and ``ids`` (final in
    id order); ``impulse`` is the run's total ``sum m |dp|``.  Returns an
    empty list when the state is sound."""
    failures = []
    if not (np.isfinite(final["pos"]).all() and np.isfinite(final["mom"]).all()):
        failures.append("non-finite positions or momenta")
    n = len(initial["mass"])
    if len(final["ids"]) != n or not np.array_equal(final["ids"], np.arange(n)):
        failures.append(f"particle ids not conserved ({len(final['ids'])} of {n})")
    elif not np.array_equal(final["mass"], initial["mass"]):
        failures.append("particle masses changed")
    elif math.fsum(final["mass"]) != math.fsum(initial["mass"]):
        failures.append("total mass changed")
    else:
        drift = momentum_drift(initial, final, impulse)
        if not drift <= MOMENTUM_TOL:
            failures.append(
                f"momentum drift {drift:.3g} above {MOMENTUM_TOL:g}"
            )
    reach = ghost_reach_cells()
    if not max_disp_cells < reach:
        failures.append(
            f"a particle moved {max_disp_cells:.3g} mesh cells in one step "
            f"(ghost reach {reach:g})"
        )
    return failures


def momentum_drift(initial: dict, final: dict, impulse: float) -> float:
    """|net momentum change| over the total impulse of the run."""
    p0 = (initial["mass"][:, None] * initial["mom"]).sum(axis=0)
    p1 = (final["mass"][:, None] * final["mom"]).sum(axis=0)
    return float(np.linalg.norm(p1 - p0) / max(impulse, 1e-300))


def force_rms_error(acc: np.ndarray, ref: np.ndarray) -> float:
    """rms |acc - ref| over rms |ref|."""
    err = np.einsum("ij,ij->i", acc - ref, acc - ref).mean()
    return float(np.sqrt(err / np.einsum("ij,ij->i", ref, ref).mean()))


def check_force(err: float) -> List[str]:
    if not err < FORCE_TOL:
        return [f"force rms error {err:.3g} not below {FORCE_TOL:g}"]
    return []


def state_digest(final: dict) -> str:
    """sha256 of the final positions and momenta (information only)."""
    h = hashlib.sha256()
    for key in ("pos", "mom"):
        h.update(np.ascontiguousarray(final[key], dtype=np.float64).tobytes())
    return h.hexdigest()
