#!/usr/bin/env python3
"""Placement exploration: is 4 ranks x 12 threads really best?

Reproduces the paper's Section 2.4 methodology interactively: sweep the
MPI x OpenMP grid for a few benchmarks under each compiler and show
where the recommended A64FX configuration loses to alternatives —
supporting the conclusion that it is "suboptimal more often than not".

Run:  python examples/placement_exploration.py
"""

from repro.harness import explore, placement_candidates
from repro.machine import Placement, a64fx
from repro.perf import CompilationCache, evaluate_placements
from repro.suites import get_benchmark

BENCHMARKS = ("ecp.comd", "ecp.laghos", "fiber.ccs_qcd", "top500.hpl")
VARIANTS = ("FJtrad", "LLVM", "GNU")


def main() -> None:
    machine = a64fx()
    cache = CompilationCache()
    recommended = machine.recommended_placement()

    for name in BENCHMARKS:
        bench = get_benchmark(name)
        print(f"\n=== {name} ({bench.notes}) ===")
        print(f"candidates: {[str(p) for p in placement_candidates(bench, machine)]}")
        for variant in VARIANTS:
            winner, log, model = explore(bench, variant, machine, cache=cache)
            rec = evaluate_placements(bench, variant, machine, (recommended,), cache=cache)[0]
            verdict = (
                "recommended OK"
                if (winner.ranks, winner.threads) == (4, 12)
                else f"better: {winner} ({rec.time_s / model.time_s:.2f}x vs 4x12)"
            )
            print(f"  {variant:10s} best={winner} t={model.time_s:8.3f}s   {verdict}")
        # full sweep table for one compiler
        print("  FJtrad sweep:")
        for ranks, threads, t in explore(bench, "FJtrad", machine, cache=cache)[1]:
            marker = " <-- recommended" if (ranks, threads) == (4, 12) else ""
            print(f"    {ranks:3d} x {threads:2d}: {t:8.3f}s{marker}")


if __name__ == "__main__":
    main()
