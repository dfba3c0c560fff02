"""Byte-identical records on every execution path, proven by a digest.

The full default campaign (108 benchmarks x 5 compilers) must give the
same records serially, in a worker pool, with a cold persistent cache
and with that cache warm.  The digest is the sha256 of the canonical
JSON of the records in sorted cell order; it moves only with a
deliberate, documented model correction.
"""

import hashlib

import pytest

from repro.api import CampaignConfig, CampaignSession
from repro.harness.engine import canonical
from repro.harness.results import record_to_dict

CAMPAIGN_DIGEST = "306c4901c3f13ff31cd31cf5b89336caf56095c182dc6595dfde94510f81df09"
CELLS = 540


def _digest(result) -> str:
    records = result.records
    ordered = [record_to_dict(records[key]) for key in sorted(records)]
    return hashlib.sha256(canonical(ordered).encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
def test_in_memory_paths(workers):
    result = CampaignSession(CampaignConfig(workers=workers)).run()
    assert len(result.records) == CELLS
    assert _digest(result) == CAMPAIGN_DIGEST


def test_cold_then_warm_cache(tmp_path):
    cold = CampaignSession(CampaignConfig(cache_dir=tmp_path)).run()
    assert cold.meta["executed"] == CELLS
    assert _digest(cold) == CAMPAIGN_DIGEST
    warm = CampaignSession(CampaignConfig(cache_dir=tmp_path)).run()
    assert warm.meta["cache_hits"] == CELLS and warm.meta["executed"] == 0
    assert _digest(warm) == CAMPAIGN_DIGEST
