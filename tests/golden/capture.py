"""Recompute every golden case and write ``digests.json``.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.capture

The bits depend on the environment, not only on the code: the FFT, the
float64 ``sin``/``cos``/``log`` of the Green's function and force split
go through numpy's SIMD dispatch, which picks a different code path on
each CPU level, and the cosmological case integrates with scipy.  So the
file records the numpy and scipy versions, and one digest set per
numpy dispatch level this host can run: each set is computed in a
subprocess with the higher levels switched off through
``NPY_DISABLE_CPU_FEATURES``.  The digests hold only for those versions
and levels (CI pins them in its golden-digests job).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from tests.golden.cases import CASES, digest

DIGESTS = Path(__file__).with_name("digests.json")
ROOT = Path(__file__).resolve().parents[2]


def simd_targets() -> list:
    """numpy's dispatch targets enabled on this CPU, lowest first."""
    core = getattr(np, "_core", None) or np.core
    umath = core._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def simd_level(targets=None) -> str:
    """Name of a dispatch level: the machine and its enabled targets."""
    targets = simd_targets() if targets is None else targets
    return " ".join([platform.machine(), *(targets or ["baseline"])])


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def compute() -> dict:
    return {name: digest(case()) for name, case in CASES.items()}


def _compute_at(disabled) -> dict:
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.golden.capture import compute; "
         "print(json.dumps(compute()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    targets = simd_targets()
    sets = {
        simd_level(targets[:k]): _compute_at(targets[k:])
        for k in range(len(targets) + 1)
    }
    DIGESTS.write_text(
        json.dumps({**versions(), "sets": sets}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases x {len(sets)} SIMD levels to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
