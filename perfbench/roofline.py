"""Host peak and the PP kernel's place under it.

The peak comes from ``peak.c``, built by the program's own loader
(:func:`repro.native.build.load_library`) with the plan-sweep kernel's
flags, and is measured in the same run as the kernel.  Bytes moved by
the sweep are *computed* from array sizes, not measured: each
interaction streams one source (position and mass, 4 doubles), so a
plan of ``I`` interactions moves ``32 I`` bytes of source data.
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import Optional

#: Source bytes streamed per interaction (x, y, z, m in double).
BYTES_PER_INTERACTION = 32

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak.c")

#: seconds one timed peak measurement aims to last
_TARGET_SECONDS = 0.2


def load_kernel() -> Optional[ctypes.CDLL]:
    """The peak kernel, built with the plan-sweep kernel's flags;
    ``None`` when no compiler is available."""
    from repro.native import build

    extra = ("-fopenmp",) if build.openmp_available() else ()
    lib = build.load_library(_SRC, extra_flags=extra)
    if lib is None:
        return None
    lib.peak_chains.restype = ctypes.c_double
    lib.peak_chains.argtypes = [ctypes.c_int64, ctypes.c_int]
    lib.peak_chain_count.restype = ctypes.c_int
    lib.peak_chain_count.argtypes = []
    return lib


def host_peak_gflops(nthreads: int, repeats: int = 3) -> Optional[float]:
    """Best multiply-add rate of ``nthreads`` threads, in Gflop/s;
    ``None`` when no compiler is available."""
    lib = load_kernel()
    if lib is None:
        return None
    chains = lib.peak_chain_count()
    iters = 1 << 16
    while True:  # calibrate the run length
        t0 = time.perf_counter()
        lib.peak_chains(iters, nthreads)
        dt = time.perf_counter() - t0
        if dt > 0.02:
            break
        iters *= 4
    iters = max(1, int(iters * _TARGET_SECONDS / dt))
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        lib.peak_chains(iters, nthreads)
        dt = time.perf_counter() - t0
        best = max(best, 2.0 * chains * iters * nthreads / dt / 1e9)
    return best
