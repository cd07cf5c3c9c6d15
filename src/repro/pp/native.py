"""Bindings for the native plan-sweep kernel.

The C source (:file:`_plansweep.c`) ships with the package and is built
through the shared compile-on-demand loader
(:mod:`repro.native.build`): compiled once per source/toolchain/flag
combination into a hash-keyed on-disk cache, bound through
:mod:`ctypes`.

The sweep is vectorised across targets, so its build flags follow the
host: :func:`repro.native.build.isa_level` picks a row of
:data:`ISA_FLAGS` (``-O3 -march=x86-64-v4`` or ``-v3``, else the
baseline build), falling down the ladder if a build fails.  Every level
keeps :data:`repro.native.build.BASE_FLAGS`' ``-ffp-contract=off``, so
the kernel performs exactly the individually rounded IEEE double
operations of the numpy executor pipeline — no FMA contraction, no
reassociation — keeping its forces bitwise identical to the pure-numpy
path at every level.

When the toolchain supports OpenMP the library is built with
``-fopenmp`` and the sweep runs parallel over plan groups with
``REPRO_NATIVE_THREADS`` threads.  Plan groups own disjoint output rows,
so the result is bitwise identical for any thread count.

The loader degrades gracefully: if no compiler is present (or the build
fails, or ``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_PP`` is set — checked
on every call) the executor silently falls back to the numpy pipeline.
Nothing outside this module needs to know whether the native kernel is
in use, and no third-party build machinery is involved.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

from repro.native import build as _build

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_plansweep.c")

_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)

_ARGTYPES = [
    ctypes.c_int64,  # n_groups
    _I64P,  # group_lo
    _I64P,  # group_hi
    _I64P,  # part_ptr
    _I64P,  # part_idx
    _I64P,  # node_ptr
    _I64P,  # node_idx
    _F64P,  # pos
    _F64P,  # mass
    _F64P,  # node_com
    _F64P,  # node_mass
    _U8P,  # wrap
    ctypes.c_double,  # box
    ctypes.c_double,  # rbox
    ctypes.c_double,  # eps2
    ctypes.c_int,  # use_split
    ctypes.c_double,  # rcut
    ctypes.c_double,  # rc2
    ctypes.c_double,  # G
    _F64P,  # scratch
    _F64P,  # out
    ctypes.c_int64,  # scratch_stride
    ctypes.c_int,  # nthreads
]

#: Extra compile flags per host ISA level, highest first.
#: ``-fno-math-errno`` changes no value; it lets GCC vectorise ``sqrt``.
ISA_FLAGS = {
    4: ("-O3", "-march=x86-64-v4", "-fno-math-errno"),
    3: ("-O3", "-march=x86-64-v3", "-fno-math-errno"),
    0: (),
}


def load(level: int) -> Optional[ctypes.CDLL]:
    """The kernel built with ``ISA_FLAGS[level]``, or ``None`` when that
    build fails.  Ignores the stage gate and does not check that the
    host can run ``level``."""
    extra = ISA_FLAGS[level]
    if _build.openmp_available():
        extra += ("-fopenmp",)
    lib = _build.load_library(_SRC, extra_flags=extra)
    if lib is not None and not getattr(lib, "_plansweep_declared", False):
        lib.plan_sweep.restype = None
        lib.plan_sweep.argtypes = _ARGTYPES
        lib._plansweep_declared = True
    return lib


def get_lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when unavailable.

    The stage gate (``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_PP``) is
    checked on every call; the build itself happens at most once per
    source/flag combination (see :func:`repro.native.build.load_library`).
    """
    if not _build.stage_enabled("pp"):
        return None
    host = _build.isa_level()
    for level in ISA_FLAGS:
        if level <= host:
            lib = load(level)
            if lib is not None:
                return lib
    return None


def available() -> bool:
    """Whether the native plan-sweep kernel can be used."""
    return get_lib() is not None


def threaded_available() -> bool:
    """Whether the sweep can actually run multi-threaded (OpenMP built)."""
    return _build.openmp_available() and available()


def _ptr(arr, ctype):
    return arr.ctypes.data_as(ctype)


def sweep(
    lib,
    group_lo,
    group_hi,
    part_ptr,
    part_idx,
    node_ptr,
    node_idx,
    pos,
    mass,
    node_com,
    node_mass,
    wrap,
    box,
    rbox,
    eps2,
    use_split,
    rcut,
    rc2,
    G,
    scratch,
    out,
    nthreads: int = 1,
    scratch_stride: int = 0,
) -> None:
    """Invoke ``plan_sweep`` (arrays must be C-contiguous and typed).

    ``rbox`` is the exact reciprocal of a power-of-two ``box`` (the
    sweep then multiplies instead of dividing, with identical bits) and
    ``0.0`` for any other box.

    ``scratch`` holds ``nthreads * scratch_stride`` doubles (one board
    per thread).  Results are bitwise identical for any ``nthreads``.
    """
    lib.plan_sweep(
        ctypes.c_int64(len(group_lo)),
        _ptr(group_lo, _I64P),
        _ptr(group_hi, _I64P),
        _ptr(part_ptr, _I64P),
        _ptr(part_idx, _I64P),
        _ptr(node_ptr, _I64P),
        _ptr(node_idx, _I64P),
        _ptr(pos, _F64P),
        _ptr(mass, _F64P),
        _ptr(node_com, _F64P),
        _ptr(node_mass, _F64P),
        _ptr(wrap, _U8P),
        ctypes.c_double(box),
        ctypes.c_double(rbox),
        ctypes.c_double(eps2),
        ctypes.c_int(use_split),
        ctypes.c_double(rcut),
        ctypes.c_double(rc2),
        ctypes.c_double(G),
        _ptr(scratch, _F64P),
        _ptr(out, _F64P),
        ctypes.c_int64(scratch_stride),
        ctypes.c_int(nthreads),
    )


__all__ = [
    "ISA_FLAGS",
    "available",
    "get_lib",
    "load",
    "sweep",
    "threaded_available",
]
