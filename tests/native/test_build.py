"""The shared compile-on-demand loader: hash-keyed caching and gating.

The regression being pinned: compiled ``.so`` artifacts are keyed by a
hash of the C source plus the full compiler command line, so editing a
kernel source (or changing flags) can never silently load a stale
binary — the key changes and a fresh build happens.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.native import build as nb

HAVE_CC = shutil.which(os.environ.get("CC", "cc")) is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


def _probe_compiles() -> bool:
    try:
        subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            check=True,
            capture_output=True,
            timeout=30,
        )
        return True
    except (OSError, subprocess.SubprocessError):
        return False


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    return cache


def _write_src(path, body: str) -> None:
    path.write_text(f"double probe_value(void) {{ return {body}; }}\n")


def _value(lib) -> float:
    lib.probe_value.restype = ctypes.c_double
    lib.probe_value.argtypes = []
    return float(lib.probe_value())


def test_source_key_tracks_source_and_flags(tmp_path):
    src = tmp_path / "k.c"
    _write_src(src, "1.0")
    k1 = nb.source_key(str(src), nb.BASE_FLAGS)
    _write_src(src, "2.0")
    k2 = nb.source_key(str(src), nb.BASE_FLAGS)
    k3 = nb.source_key(str(src), nb.BASE_FLAGS + ("-DX",))
    assert k1 and k2 and k3
    assert k1 != k2 and k2 != k3
    assert nb.source_key(str(tmp_path / "missing.c"), nb.BASE_FLAGS) is None


@needs_cc
def test_editing_source_recompiles(fresh_cache, tmp_path):
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    src = tmp_path / "kernel.c"
    _write_src(src, "41.0 + 1.0")
    lib1 = nb.load_library(str(src))
    assert lib1 is not None
    assert _value(lib1) == 42.0
    artifacts = sorted(fresh_cache.glob("kernel-*.so"))
    assert len(artifacts) == 1

    # touching the source must build a fresh artifact, never reuse the
    # stale one (this was the PR's caching bug class)
    _write_src(src, "6.0 * 7.0 + 1.0")
    lib2 = nb.load_library(str(src))
    assert lib2 is not None
    assert _value(lib2) == 43.0
    artifacts = sorted(fresh_cache.glob("kernel-*.so"))
    assert len(artifacts) == 2

    # different flags, same source: a third distinct artifact
    lib3 = nb.load_library(str(src), extra_flags=("-DPROBE",))
    assert lib3 is not None
    assert len(sorted(fresh_cache.glob("kernel-*.so"))) == 3


@needs_cc
def test_existing_artifact_is_reused(fresh_cache, tmp_path):
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    src = tmp_path / "reuse.c"
    _write_src(src, "5.0")
    lib1 = nb.load_library(str(src))
    assert lib1 is not None
    so = sorted(fresh_cache.glob("reuse-*.so"))[0]
    mtime = so.stat().st_mtime_ns
    lib2 = nb.load_library(str(src))
    assert lib2 is lib1  # per-process memo
    assert so.stat().st_mtime_ns == mtime  # no rebuild on disk


def test_missing_compiler_falls_back(fresh_cache, tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "repro-definitely-missing-cc")
    src = tmp_path / "nocc.c"
    _write_src(src, "1.0")
    assert nb.load_library(str(src)) is None


def test_stage_enabled_env_gates(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_NO_NATIVE_MESH", raising=False)
    assert nb.stage_enabled("mesh")
    monkeypatch.setenv("REPRO_NO_NATIVE_MESH", "1")
    assert not nb.stage_enabled("mesh")
    assert nb.stage_enabled("tree")
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert not nb.stage_enabled("tree")


def test_native_threads_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert nb.native_threads() == 1
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    assert nb.native_threads() == 4
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
    assert nb.native_threads() == 1
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "bogus")
    assert nb.native_threads() == 1


_PROBE_CHILD = """
import subprocess, sys
if sys.argv[1] == "cached":
    def _no_compiler(*args, **kwargs):
        raise AssertionError("compiler invoked: " + repr(args))
    subprocess.run = _no_compiler
from repro.native import build
print(build.openmp_available(), build.isa_level())
"""


@needs_cc
def test_probes_are_cached_across_processes(tmp_path):
    """The OpenMP and ISA probes build once: a second fresh process
    loads them from the cache without invoking the compiler, and
    neither process leaves a temporary directory behind."""
    if not _probe_compiles():
        pytest.skip("compiler present but not functional")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        REPRO_NATIVE_CACHE=str(tmp_path / "cache"),
        TMPDIR=str(tmp),
    )

    def child(mode):
        run = subprocess.run(
            [sys.executable, "-c", _PROBE_CHILD, mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout

    fresh = child("fresh")
    if not fresh.startswith("True"):
        pytest.skip("toolchain cannot build OpenMP objects")
    assert child("cached") == fresh
    assert list(tmp.iterdir()) == []
