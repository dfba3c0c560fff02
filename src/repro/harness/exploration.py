"""The exploration phase (Section 2.4).

"We employ an exploration phase for each compiler and test various MPI
and/or OMP combinations for all parallelized, strong-scaling benchmarks
..., using three trial runs each.  The fastest time-to-solution
determines the final MPI/OMP setting (individual per compiler) for the
performance runs."

Benchmark constraints honoured: PolyBench is pinned to one core; SWFFT
needs power-of-two ranks; OpenMP-only codes keep one rank; weak-scaling
codes (miniAMR, XSBench) skip exploration and use the recommended
placement.

The candidate set comes from
:func:`repro.tuning.space.benchmark_placements`, and the winner is
picked by :func:`repro.tuning.strategies.select_best`, the rule every
tuning strategy uses.  The arithmetic (per-trial noise keys,
best-of-three minimum, first-wins strict-``<`` tie-break in candidate
order) is bit-identical to the original in-line sweep — ``explore()``
winners are a compatibility contract the golden campaign results
depend on.
"""

from __future__ import annotations

from repro.compilers.base import CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.batch import evaluate_placements
from repro.perf.cost import CompilationCache, ModelResult
from repro.suites.base import Benchmark
from repro.tuning.space import benchmark_placements
from repro.tuning.strategies import fastest_of, select_best

#: Trial runs per placement candidate (Sec. 2.4).
EXPLORATION_TRIALS = 3


def placement_candidates(bench: Benchmark, machine: Machine) -> tuple[Placement, ...]:
    """The placements the exploration phase tries for one benchmark.

    Delegates to :func:`repro.tuning.space.benchmark_placements`; kept
    as the harness-facing name (the candidate order is part of the
    winner-compatibility contract).
    """
    return benchmark_placements(bench, machine)


def explore(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> tuple[Placement, tuple[tuple[int, int, float], ...], ModelResult]:
    """Run the exploration sweep; returns (winner, trial log, its model).

    Each candidate gets :data:`EXPLORATION_TRIALS` noisy trials; the
    placement with the fastest single trial wins (per the paper).
    Failed builds return the *first legal candidate* unexplored — the
    failure is recorded by the performance runner anyway, but the
    placement must still satisfy the benchmark's constraints.  (The
    historical behaviour returned ``machine.recommended_placement()``
    unconditionally, handing pinned-single-core and OpenMP-only codes
    a 4x12 MPI placement they cannot legally run.)

    The whole candidate sweep is costed in one call to
    :func:`repro.perf.batch.evaluate_placements` (kernels compile once,
    features extract once, the per-placement arithmetic is batched).
    Candidates are scored from its ``times`` vector alone; the full
    :class:`~repro.perf.cost.ModelResult` breakdown is built only for
    the winner (or the first candidate of a failed build).  Both are
    bit-identical to the scalar :func:`repro.perf.cost.benchmark_model`
    at that candidate.
    """
    cache = cache if cache is not None else CompilationCache()
    candidates = placement_candidates(bench, machine)
    models = evaluate_placements(
        bench, variant, machine, candidates, flags=flags, cache=cache
    )
    if models.status is not CompileStatus.OK:
        # Build failures are placement-independent; the scalar loop
        # bailed on its first candidate, so hand back the first model —
        # and the first *candidate*, which is legal by construction.
        return candidates[0], (), models[0]

    # The paper's best-of-three noisy trials per candidate; the first
    # strictly fastest wins.
    scores = tuple(
        fastest_of(
            time_s,
            bench.noise_cv,
            EXPLORATION_TRIALS,
            "explore",
            bench.full_name,
            variant,
            str(placement),
        )
        for placement, time_s in zip(candidates, models.times)
    )
    winner_index = select_best(candidates, scores)

    log = tuple(
        (placement.ranks, placement.threads, score)
        for placement, score in zip(candidates, scores)
    )
    return candidates[winner_index], log, models[winner_index]
