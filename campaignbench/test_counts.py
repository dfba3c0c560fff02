"""Exact per-layer counts of the benchmark's traced runs.

Counts repeat exactly from run to run (the program is deterministic), so
a later change can claim a count change exactly.  The pinned values are
the program's counts when the benchmark was added, with the default
seed 0.  Run from the repository root::

    python3 -m pytest campaignbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS  # noqa: E402

#: campaign_cold, seed 0: one 540-cell campaign in a fresh interpreter.
COLD = {
    "compilers.compile.calls": 665,
    "staticanalysis.lint.calls": 665,
    "staticanalysis.lint.analyses": 133,
    "perf.cost.kernel_cache.gets": 665,
    "perf.cost.kernel_cache.compiles": 665,
    "perf.cost.kernel_cache.disk_hits": 0,
    "perf.cost.kernel_cache.disk_writes": 0,
    "perf.batch.features.calls": 834,
    "perf.batch.features.builds": 834,
    "perf.batch.features.distinct": 347,
    "perf.batch.evaluate.calls": 540,
    "perf.batch.evaluate.placements": 4520,
    "perf.noise.draws": 18722,
    "harness.explore.calls": 540,
    "harness.runner.cells": 540,
    "harness.runner.attempts": 540,
    "harness.engine.cell_cache.gets": 0,
    "harness.journal.appends": 0,
    "harness.engine.pool.chunks": 0,
    "perf.trace.calls": 0,
}

#: trace_oracle, seed 0: the simulated statistics of the drawn nests.
#: A faster simulator must reproduce them exactly.
TRACE = {
    "perf.trace.calls": 18,
    "perf.trace.accesses": 195264,
    "machine.cache.L1d.hits": 179511,
    "machine.cache.L1d.misses": 15753,
    "machine.cache.L2.hits": 5011,
    "machine.cache.L2.misses": 10742,
    "compilers.compile.calls": 0,
    "perf.noise.draws": 0,
}


def traced_counts(workload: str, work: Path, seed: int = 0, index: int = 1) -> dict:
    """The counts of one traced pass in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--workload", workload,
         "--seed", str(seed), "--work", str(work), "--index", str(index),
         "--trace", "--max-passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    (sample,) = json.loads(out.stdout.strip().splitlines()[-1])["passes"]
    assert sample["failed"] == 0
    return {name: sample["layers"][name] for name in COUNTS}


def test_campaign_cold_counts_repeat_and_match_pins(tmp_path):
    first = traced_counts("campaign_cold", tmp_path)
    assert traced_counts("campaign_cold", tmp_path) == first
    assert {name: first[name] for name in COLD} == COLD


def test_trace_oracle_counts_repeat_and_match_pins(tmp_path):
    first = traced_counts("trace_oracle", tmp_path)
    assert traced_counts("trace_oracle", tmp_path) == first
    assert {name: first[name] for name in TRACE} == TRACE


def test_campaign_extend_counts_repeat(tmp_path):
    subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--workload", "extend_prior",
         "--seed", "0", "--work", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    first = traced_counts("campaign_extend", tmp_path, index=1)
    assert traced_counts("campaign_extend", tmp_path, index=2) == first
    assert first["harness.engine.cell_cache.gets"] == 540
    assert first["harness.engine.cell_cache.hits"] == 324
    assert first["harness.engine.cell_cache.puts"] == 216
    assert first["harness.runner.cells"] == 216
    assert first["harness.journal.appends"] == 540


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "campaign_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
