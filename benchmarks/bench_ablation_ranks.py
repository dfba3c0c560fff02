"""Ablation: the recommended 4 ranks x 12 threads vs. the exploration
phase's choices.

Paper (conclusion): "for 'legacy' applications, the recommended usage
model of 4 ranks and 12 threads per A64FX node results in suboptimal
time-to-solution more often than not".
"""

import pytest

from repro.machine import Placement, a64fx
from repro.perf import CompilationCache, evaluate_placements
from repro.suites import all_benchmarks
from repro.suites.base import ParallelKind, ScalingKind


def _regenerate():
    machine = a64fx()
    cache = CompilationCache()
    rows = []
    for bench in all_benchmarks():
        if not (
            bench.parallel is ParallelKind.MPI_OPENMP
            and bench.scaling is ScalingKind.STRONG
        ):
            continue
        recommended = evaluate_placements(
            bench, "FJtrad", machine, (Placement(4, 12),), cache=cache
        )[0]
        if not recommended.valid:
            continue
        # best placement found by the exploration machinery
        from repro.harness import explore

        placement, _, explored = explore(bench, "FJtrad", machine, cache=cache)
        rows.append((bench.full_name, recommended.time_s, explored.time_s, placement))
    return rows


def test_recommended_vs_explored(benchmark):
    rows = benchmark(_regenerate)
    print()
    suboptimal = 0
    for name, rec, best, placement in rows:
        flag = "<-- suboptimal" if best < rec * 0.999 else ""
        print(f"{name:24s} 4x12={rec:8.3f}s best({placement})={best:8.3f}s {flag}")
        if best < rec * 0.999:
            suboptimal += 1
    # "more often than not" (paper conclusion)
    assert suboptimal / len(rows) > 0.5
    # but the recommendation is a sane starting point, never catastrophic
    for _, rec, best, _ in rows:
        assert rec / best < 3.0
