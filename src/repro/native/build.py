"""Shared compile-on-demand loader for the native kernels.

One function, :func:`load_library`, turns a C source file into a loaded
:class:`ctypes.CDLL`.  Compiled artifacts are cached on disk keyed by a
hash of the source bytes plus the full compiler command line, so

* a source file is compiled at most once per toolchain/flag combination
  across processes, and
* editing a kernel source (or changing flags) can never load a stale
  binary — the key changes, so a fresh ``.so`` is built.

The loader degrades gracefully: no compiler, a failed build, or an
unloadable artifact all yield ``None``, and callers fall back to their
numpy reference pipelines.  Nothing outside this module needs to know
whether a kernel is in use.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from typing import Optional, Sequence, Tuple

__all__ = [
    "BASE_FLAGS",
    "cache_dir",
    "isa_level",
    "load_library",
    "native_threads",
    "openmp_available",
    "source_key",
    "stage_enabled",
]

#: Baseline flags shared by every kernel: no FMA contraction and no
#: reassociation, so each C expression performs exactly the individually
#: rounded IEEE double operations of its numpy counterpart.
BASE_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Per-process memo: cache-key -> CDLL or None (failed).
_loaded: dict = {}


def stage_enabled(stage: str) -> bool:
    """Whether native kernels for ``stage`` are allowed right now.

    Checked per call (cheap environment lookups), so tests and the
    step benchmark can toggle stages inside one process.
    """
    env = os.environ
    if env.get("REPRO_NO_NATIVE"):
        return False
    if env.get(f"REPRO_NO_NATIVE_{stage.upper()}"):
        return False
    return True


def native_threads() -> int:
    """OpenMP thread count requested via ``REPRO_NATIVE_THREADS``."""
    raw = os.environ.get("REPRO_NATIVE_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _compiler() -> str:
    return os.environ.get("CC", "cc")


def cache_dir() -> str:
    """Directory holding compiled ``.so`` artifacts."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def source_key(src_path: str, flags: Sequence[str]) -> Optional[str]:
    """Cache key: hash of the source bytes and the compile command.

    Returns ``None`` when the source cannot be read (missing file).
    """
    try:
        with open(src_path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    h = hashlib.sha256()
    h.update(blob)
    h.update(b"\0")
    h.update(_compiler().encode())
    for f in flags:
        h.update(b"\0")
        h.update(f.encode())
    return h.hexdigest()[:20]


def _compile(src_path: str, so_path: str, flags: Sequence[str]) -> bool:
    """Compile ``src_path`` into ``so_path`` atomically."""
    os.makedirs(os.path.dirname(so_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".build-", suffix=".so", dir=os.path.dirname(so_path)
    )
    os.close(fd)
    cmd = [_compiler(), *flags, "-o", tmp, src_path, "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


@functools.cache
def openmp_available() -> bool:
    """Whether the toolchain can build OpenMP shared objects.

    The verdict gates adding ``-fopenmp`` to kernels that have threaded
    entry points.  The probe is a tiny C source built through
    :func:`load_library`, so it compiles once per toolchain and later
    processes only load the cached artifact.
    """
    return load_library(_probe_src("ompprobe"), ("-fopenmp",)) is not None


@functools.cache
def isa_level() -> int:
    """Highest x86-64 micro-architecture level the host runs (4 or 3),
    or 0 for baseline, including any non-x86 host or a toolchain that
    cannot build the probe.  Built and cached like :func:`openmp_available`.
    """
    lib = load_library(_probe_src("isaprobe"))
    if lib is None:
        return 0
    lib.isa_level.restype = ctypes.c_int
    lib.isa_level.argtypes = []
    return int(lib.isa_level())


def _probe_src(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, f"_{name}.c")


def load_library(
    src_path: str, extra_flags: Sequence[str] = ()
) -> Optional[ctypes.CDLL]:
    """Load (building if needed) the kernel library for a C source.

    The on-disk artifact is keyed by :func:`source_key`, so concurrent
    processes share builds and a modified source always recompiles.
    Returns ``None`` when the source is missing or the build fails;
    the (per-key) outcome is memoized for the life of the process.
    """
    flags = tuple(BASE_FLAGS) + tuple(extra_flags)
    key = source_key(src_path, flags)
    if key is None:
        return None
    name = os.path.splitext(os.path.basename(src_path))[0].lstrip("_")
    memo_key = (name, key)
    if memo_key in _loaded:
        return _loaded[memo_key]
    so_path = os.path.join(cache_dir(), f"{name}-{key}.so")
    lib: Optional[ctypes.CDLL] = None
    if os.path.exists(so_path):
        try:
            lib = ctypes.CDLL(so_path)
        except OSError:
            lib = None
    if lib is None:
        if _compile(src_path, so_path, flags):
            try:
                lib = ctypes.CDLL(so_path)
            except OSError:
                lib = None
    _loaded[memo_key] = lib
    return lib
