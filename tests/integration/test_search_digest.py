"""Byte-identical tuning and grid outputs, proven by a digest.

Each digest is the sha256 of the canonical JSON of one search or grid
result.  They pin the outputs across hash seeds and across refactors of
the evaluation path; they move only with a deliberate, documented model
correction.
"""

import hashlib

import pytest

from repro.harness.engine import canonical
from repro.perf.batch import GridSpec, evaluate_grid
from repro.tuning.tuner import TuneSpec, run_tune

DIGESTS = {
    "tune-default": (
        lambda: run_tune(TuneSpec()),
        "4c908b4fb4f93d048e5d6f9b7ce37789326b8b5fe94b8156c219e1bee366b940",
    ),
    "tune-random": (
        lambda: run_tune(TuneSpec(strategy="random", samples=24, trials=2, seed=5)),
        "93db24632d5faaede2c474aaf366ed0f2f925332e162ad3b506d39f2cfbd3c1c",
    ),
    "tune-placement-grid": (
        lambda: run_tune(
            TuneSpec(scenario="placement:ecp.nekbone:GNU", strategy="grid")),
        "d0bb488106963648a9c5641e78a989ad64aec948e239eb2fc8a90d905ca2520b",
    ),
    "grid-polybench": (
        lambda: evaluate_grid(GridSpec(suites=("polybench",))),
        "b8f024074055627bd9634b4b11e030c154e52e37a2694ecbe1b25fd7a338310c",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(name):
    produce, expected = DIGESTS[name]
    assert hashlib.sha256(canonical(produce()).encode()).hexdigest() == expected
