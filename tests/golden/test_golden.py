"""Golden digests: fixed runs reproduce their committed sha256 values.

The oracle for refactors that must not change a single bit: serial and
parallel trajectories (thread slab-direct, slab-relay and pencil;
multiprocess slab), per-call distributed PM forces for each FFT layout,
and the three ``TreePMSolver.forces`` components.  A mismatch means a
change altered results; it is never skipped.

The digests hold only for the numpy/scipy versions and the numpy SIMD
dispatch levels recorded in ``digests.json`` (see ``capture.py``); in
any other environment every case fails and says so.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.capture import DIGESTS, simd_level, versions
from tests.golden.cases import CASES, digest

WANT = json.loads(DIGESTS.read_text())
LEVEL = simd_level()
HERE = versions()
CAPTURED = {k: WANT[k] for k in HERE}
SET = WANT["sets"].get(LEVEL) if HERE == CAPTURED else None
ENV = (
    f"this host: {HERE} at SIMD level {LEVEL!r}; digests captured "
    f"with {CAPTURED} at {sorted(WANT['sets'])}"
)


def test_every_level_has_every_case():
    for level, digests in WANT["sets"].items():
        assert sorted(digests) == sorted(CASES), level


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert SET is not None, f"no digests for this environment ({ENV})"
    assert digest(CASES[name]()) == SET[name], ENV
