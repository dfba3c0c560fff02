"""The tuner: strategies × scenarios on campaign infrastructure.

:func:`run_tune` drives one search: the strategy proposes candidate
batches, the scenario evaluates them noise-free and batched (one
:func:`~repro.perf.batch.evaluate_placements` call per group), the
tuner layers the deterministic trial noise on top and journals every
scored candidate through the same machinery measurement campaigns use:

* **journal resume** — every (config, fidelity) evaluation appends one
  :class:`~repro.harness.results.RunRecord` to a
  :class:`~repro.harness.journalstore.CampaignJournal` under
  ``<cache_dir>/tuning/<scenario>/``.  A killed search resumed with
  ``TuneSpec(resume=True)`` replays the journaled records and appends
  only the remainder — byte-identical to the uninterrupted run, the
  same guarantee the sharded campaign engine makes.
* **content-addressed caching** — finished evaluations land in a
  :class:`~repro.harness.engine.CellCache` keyed by scenario
  fingerprint + candidate identity (strategy-independent, so a random
  probe warms the successive-halving run that follows).
* **sharding** — ``TuneSpec(shard=(i, n))`` evaluates every ``n``-th
  candidate of each batch (:func:`~repro.harness.journalstore.
  shard_indices`), journaling into its own shard file.  Promotion needs
  the whole rung, so a shard that cannot see its siblings' records yet
  returns a partial result; re-running (any shard, any node, shared
  directory) completes the search.
* **telemetry** — a ``tune`` span wraps the search, one ``tune.rung``
  span per batch, with ``tuner.*`` counters and a best-score gauge
  (see :mod:`repro.telemetry.recorder`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import telemetry
from repro.errors import HarnessError
from repro.harness.journalstore import (
    CampaignJournal,
    DirectoryJournalStore,
    shard_indices,
    validate_shard,
)
from repro.harness.results import RunRecord
from repro.machine.machine import Machine
from repro.perf.noise import noise_multiplier
from repro.telemetry.recorder import SPAN_TUNE, SPAN_TUNE_RUNG
from repro.tuning.scenario import Evaluation, Scenario, get_scenario
from repro.tuning.strategies import Candidate, Strategy, make_strategy

__all__ = [
    "RungSummary",
    "TrajectoryPoint",
    "TuneInterrupted",
    "TuneResult",
    "TuneSpec",
    "run_tune",
]

#: Journal/cache format marker for tuning searches.
TUNE_VERSION = 1


class TuneInterrupted(HarnessError):
    """Raised by the ``stop_after_evaluations`` kill-switch (CI's
    mid-search-kill gate); the journal keeps everything appended so far."""


@dataclass(frozen=True)
class TuneSpec:
    """Everything one tuning search needs, in one frozen bundle."""

    #: Scenario object or spec string (``"gemm-int8-sdot"``,
    #: ``"placement:<suite.name>[:<variant>]"``).
    scenario: "Scenario | str" = "gemm-int8-sdot"
    #: ``"grid"``, ``"random"`` or ``"successive-halving"``.
    strategy: str = "successive-halving"
    #: Machine model or registry name; ``None`` = the paper's A64FX.
    machine: "Machine | str | None" = None
    #: Full-fidelity trials per config (the exploration phase's 3; also
    #: the successive-halving cap).
    trials: int = 3
    #: Successive halving's rung-0 trials.
    min_trials: int = 1
    #: Population for ``random`` (required) and successive halving
    #: (``None`` starts from the full grid).
    samples: "int | None" = None
    #: Successive halving's keep-1-in-eta ratio.
    eta: int = 3
    #: Seed for sampled populations.
    seed: int = 0
    #: Root for the tuning journal and evaluation cache; ``None``
    #: disables persistence (no resume, no cross-run cache).
    cache_dir: "str | Path | None" = None
    #: Resume an interrupted search from its journal.
    resume: bool = False
    #: Evaluate only every n-th candidate: 1-based ``(index, count)``.
    shard: "tuple[int, int] | None" = None

    def with_(self, **kwargs: object) -> "TuneSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One scored candidate, in evaluation order."""

    order: int
    rung: int
    label: str
    trials: int
    score: float
    best_so_far: float


@dataclass(frozen=True)
class RungSummary:
    """One strategy batch: population, fidelity, where scores came from."""

    rung: int
    trials: int
    configs: int
    evaluated: int
    from_journal: int
    from_cache: int
    best_label: str
    best_score: float


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning search."""

    scenario: str
    strategy: str
    machine: str
    #: Winner identity and score (``None``/``inf`` when incomplete).
    best_label: str
    best_score: float
    #: Noise-free model time and scenario detail for the winner.
    best_time_s: float
    best_detail: dict = field(default_factory=dict)
    evaluations: int = 0
    from_journal: int = 0
    from_cache: int = 0
    rungs: tuple[RungSummary, ...] = ()
    trajectory: tuple[TrajectoryPoint, ...] = ()
    #: False when a sharded search stopped at a rung barrier waiting
    #: for sibling shards.
    complete: bool = True
    #: The scenario's calibrated answer, when it declares one.
    known_best_label: "str | None" = None
    journal: "str | None" = None
    meta: dict = field(default_factory=dict)

    @property
    def rediscovered(self) -> "bool | None":
        """Did the search find the scenario's known-best config?
        ``None`` when the scenario declares no known best."""
        if self.known_best_label is None:
            return None
        return self.best_label == self.known_best_label

    def to_dict(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "machine": self.machine,
            "best": {
                "label": self.best_label,
                "score": self.best_score,
                "time_s": self.best_time_s,
                "detail": dict(self.best_detail),
            },
            "evaluations": self.evaluations,
            "from_journal": self.from_journal,
            "from_cache": self.from_cache,
            "complete": self.complete,
            "known_best_label": self.known_best_label,
            "journal": self.journal,
            "rungs": [
                {
                    "rung": r.rung,
                    "trials": r.trials,
                    "configs": r.configs,
                    "evaluated": r.evaluated,
                    "from_journal": r.from_journal,
                    "from_cache": r.from_cache,
                    "best_label": r.best_label,
                    "best_score": r.best_score,
                }
                for r in self.rungs
            ],
            "trajectory": [
                {
                    "order": p.order,
                    "rung": p.rung,
                    "label": p.label,
                    "trials": p.trials,
                    "score": p.score,
                    "best_so_far": p.best_so_far,
                }
                for p in self.trajectory
            ],
            "meta": dict(self.meta),
        }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "TuneResult":
        best = doc.get("best", {})
        return cls(
            scenario=str(doc.get("scenario", "")),
            strategy=str(doc.get("strategy", "")),
            machine=str(doc.get("machine", "")),
            best_label=str(best.get("label", "")),
            best_score=float(best.get("score", float("inf"))),
            best_time_s=float(best.get("time_s", float("inf"))),
            best_detail=dict(best.get("detail", {})),
            evaluations=int(doc.get("evaluations", 0)),
            from_journal=int(doc.get("from_journal", 0)),
            from_cache=int(doc.get("from_cache", 0)),
            complete=bool(doc.get("complete", True)),
            known_best_label=doc.get("known_best_label"),
            journal=doc.get("journal"),
            rungs=tuple(
                RungSummary(
                    rung=int(r["rung"]),
                    trials=int(r["trials"]),
                    configs=int(r["configs"]),
                    evaluated=int(r["evaluated"]),
                    from_journal=int(r.get("from_journal", 0)),
                    from_cache=int(r.get("from_cache", 0)),
                    best_label=str(r["best_label"]),
                    best_score=float(r["best_score"]),
                )
                for r in doc.get("rungs", ())
            ),
            trajectory=tuple(
                TrajectoryPoint(
                    order=int(p["order"]),
                    rung=int(p["rung"]),
                    label=str(p["label"]),
                    trials=int(p["trials"]),
                    score=float(p["score"]),
                    best_so_far=float(p["best_so_far"]),
                )
                for p in doc.get("trajectory", ())
            ),
            meta=dict(doc.get("meta", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "TuneResult":
        return cls.from_dict(json.loads(text))


# -- record plumbing ------------------------------------------------------


def _tune_benchmark_name(scenario: Scenario) -> str:
    return f"tune:{scenario.name}"


def candidate_runs(
    scenario: Scenario, evaluation: Evaluation, trials: int
) -> tuple[float, ...]:
    """The candidate's noisy trial times (empty for invalid configs).

    Trial ``i`` is keyed ``("tune", scenario, label, i)`` — independent
    of rung and strategy, so a higher-fidelity re-evaluation *extends*
    the lower rung's trials instead of redrawing them.
    """
    if not evaluation.valid:
        return ()
    return tuple(
        evaluation.time_s
        * noise_multiplier(
            scenario.noise_cv,
            "tune",
            scenario.name,
            evaluation.config.label,
            trial,
        )
        for trial in range(trials)
    )


def candidate_record(
    scenario: Scenario, candidate: Candidate, evaluation: Evaluation
) -> RunRecord:
    """The journal/cache record for one scored candidate."""
    placement = evaluation.placement
    return RunRecord(
        benchmark=_tune_benchmark_name(scenario),
        suite="tune",
        variant=candidate.name,
        ranks=placement.ranks if placement is not None else 1,
        threads=placement.threads if placement is not None else 1,
        runs=candidate_runs(scenario, evaluation, candidate.trials),
        status=evaluation.status,
    )


def _record_score(record: RunRecord) -> float:
    return min(record.runs) if record.runs else float("inf")


def _search_fingerprint(
    scenario: Scenario, strategy: Strategy, machine: Machine, spec: TuneSpec
) -> str:
    """Journal identity: everything that affects the record *sequence*."""
    parts = (
        f"tune|v{TUNE_VERSION}",
        scenario.fingerprint(machine),
        strategy.describe(),
        f"cv={scenario.noise_cv!r}",
        machine.name,
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _eval_fingerprint(scenario: Scenario, machine: Machine) -> str:
    """Cache identity: strategy-independent, so searches share entries."""
    parts = (
        f"tune-eval|v{TUNE_VERSION}",
        scenario.fingerprint(machine),
        f"cv={scenario.noise_cv!r}",
        machine.name,
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _cache_key(eval_fingerprint: str, candidate: Candidate) -> str:
    return hashlib.sha256(
        f"tunecell|{eval_fingerprint}|{candidate.name}".encode()
    ).hexdigest()


# -- the tuner ------------------------------------------------------------


def run_tune(
    spec: "TuneSpec | None" = None,
    *,
    stop_after_evaluations: "int | None" = None,
    **overrides: object,
) -> TuneResult:
    """Run one tuning search (see the module docstring).

    Accepts a :class:`TuneSpec`, keyword overrides on top of one, or
    bare keywords.  ``stop_after_evaluations`` is the CI kill-switch:
    after journaling that many fresh evaluations the search raises
    :class:`TuneInterrupted`, leaving a journal a ``resume=True`` rerun
    completes byte-identically.
    """
    # Late imports: the engine imports the runner, the runner imports
    # exploration, and exploration is a shim over this package — a
    # top-level CellCache import would close that cycle.
    from repro.harness.engine import CellCache
    from repro.machine.select import resolve_machine

    spec = spec if spec is not None else TuneSpec()
    if overrides:
        spec = spec.with_(**overrides)

    scenario = (
        spec.scenario
        if isinstance(spec.scenario, Scenario)
        else get_scenario(spec.scenario)
    )
    machine = resolve_machine(spec.machine)
    strategy = make_strategy(
        spec.strategy,
        samples=spec.samples,
        seed=spec.seed,
        eta=spec.eta,
        trials=spec.trials,
        min_trials=spec.min_trials,
    )
    space = scenario.space(machine)
    shard = validate_shard(spec.shard)
    search_fp = _search_fingerprint(scenario, strategy, machine, spec)
    eval_fp = _eval_fingerprint(scenario, machine)
    bench_name = _tune_benchmark_name(scenario)

    store = journal = cache = None
    known: dict[str, RunRecord] = {}
    if spec.cache_dir is not None:
        root = Path(spec.cache_dir) / "tuning" / scenario.name.replace(":", "-").replace("/", "-")
        store = DirectoryJournalStore(root)
        cache = CellCache(root / "cells")
        if spec.resume:
            merged = store.merge(expect_fingerprint=search_fp)
            if merged is not None:
                known = {
                    variant: record
                    for (_bench, variant), record in merged.records.items()
                }

    gen = strategy.run(space)
    batch = next(gen)
    prior_finished = False
    appended = 0
    if store is not None:
        journal = store.journal(spec.shard)
        if spec.resume:
            loaded = journal.load()
            prior_finished = bool(
                loaded
                and loaded[2]
                and loaded[0].get("fingerprint") == search_fp
            )
        # keep=spec.resume: a resume appends to the matching journal
        # (whose records `known` already carries, via the merge above);
        # a fresh start atomically replaces it with a header-only file.
        journal.start(
            search_fp,
            machine.name,
            [(bench_name, cand.name) for cand in batch],
            shard=spec.shard,
            keep=spec.resume,
        )

    evaluations = from_journal = from_cache = 0
    trajectory: list[TrajectoryPoint] = []
    rungs: list[RungSummary] = []
    best_so_far = float("inf")
    winner: "Candidate | None" = None
    complete = True
    waiting: list[str] = []

    try:
        with telemetry.span(
            SPAN_TUNE, scenario=scenario.name, strategy=strategy.name
        ):
            rung_index = 0
            while True:
                rung_trials = batch[0].trials if batch else 0
                with telemetry.span(
                    SPAN_TUNE_RUNG,
                    rung=rung_index,
                    configs=len(batch),
                    trials=rung_trials,
                ):
                    records: dict[int, RunRecord] = {}
                    rung_journal = rung_cache = 0
                    pending: list[int] = []
                    owned = set(shard_indices(len(batch), *shard))
                    for i, cand in enumerate(batch):
                        held = known.get(cand.name)
                        if held is not None:
                            records[i] = held
                            rung_journal += 1
                            continue
                        if cache is not None:
                            hit = cache.get(_cache_key(eval_fp, cand))
                            if hit is not None:
                                records[i] = hit
                                known[cand.name] = hit
                                rung_cache += 1
                                telemetry.count("tuner.cache_hits")
                                # Owned cache hits are journaled too, so
                                # the journal alone replays the search.
                                if i in owned and journal is not None:
                                    journal.append(hit)
                                    appended += 1
                                continue
                        pending.append(i)

                    mine = [i for i in pending if i in owned]
                    fresh = _evaluate_candidates(
                        scenario, machine, [batch[i] for i in mine]
                    )
                    for i, record in zip(mine, fresh):
                        records[i] = record
                        known[batch[i].name] = record
                        evaluations += 1
                        telemetry.count("tuner.evaluations")
                        if cache is not None:
                            cache.put(_cache_key(eval_fp, batch[i]), record)
                        if journal is not None:
                            journal.append(record)
                            appended += 1
                            if (
                                stop_after_evaluations is not None
                                and evaluations >= stop_after_evaluations
                            ):
                                raise TuneInterrupted(
                                    f"stopped after {evaluations} evaluations "
                                    f"(kill-switch); resume from "
                                    f"{journal.path}"
                                )

                    missing = [i for i in pending if i not in owned]
                    if missing and store is not None:
                        # Rung barrier: look for sibling shards' records.
                        merged = store.merge(expect_fingerprint=search_fp)
                        if merged is not None:
                            for (_b, variant), record in merged.records.items():
                                known.setdefault(variant, record)
                        still = [
                            i
                            for i in missing
                            if batch[i].name not in known
                        ]
                        for i in list(missing):
                            if batch[i].name in known:
                                records[i] = known[batch[i].name]
                                rung_journal += 1
                        missing = still
                    if missing:
                        complete = False
                        waiting = [batch[i].name for i in missing]
                        break

                    from_journal += rung_journal
                    from_cache += rung_cache
                    scores = []
                    rung_best = float("inf")
                    rung_best_label = ""
                    for i, cand in enumerate(batch):
                        score = _record_score(records[i])
                        scores.append(score)
                        if score < best_so_far:
                            best_so_far = score
                        if score < rung_best:
                            rung_best = score
                            rung_best_label = cand.config.label
                        trajectory.append(
                            TrajectoryPoint(
                                order=len(trajectory),
                                rung=cand.rung,
                                label=cand.config.label,
                                trials=cand.trials,
                                score=score,
                                best_so_far=best_so_far,
                            )
                        )
                    rungs.append(
                        RungSummary(
                            rung=rung_index,
                            trials=rung_trials,
                            configs=len(batch),
                            evaluated=len(mine),
                            from_journal=rung_journal,
                            from_cache=rung_cache,
                            best_label=rung_best_label,
                            best_score=rung_best,
                        )
                    )
                    telemetry.count("tuner.rungs")
                try:
                    batch = gen.send(tuple(scores))
                except StopIteration as stop:
                    winner = stop.value
                    break
                rung_index += 1
        # A pure replay of an already-finished journal must not append a
        # second ``done`` line: resuming a complete search is a no-op on
        # disk (the byte-identity contract).
        if journal is not None and complete and not (prior_finished and not appended):
            journal.done()
    finally:
        if journal is not None:
            journal.close()

    known_best = scenario.known_best(machine)
    if winner is None:
        return TuneResult(
            scenario=scenario.name,
            strategy=strategy.name,
            machine=machine.name,
            best_label="",
            best_score=float("inf"),
            best_time_s=float("inf"),
            evaluations=evaluations,
            from_journal=from_journal,
            from_cache=from_cache,
            rungs=tuple(rungs),
            trajectory=tuple(trajectory),
            complete=False,
            known_best_label=known_best.label if known_best else None,
            journal=str(journal.path) if journal is not None else None,
            meta={"waiting": waiting, "shard": list(shard)},
        )

    final = scenario.evaluate((winner.config,), machine)[0]
    winner_record = known.get(winner.name)
    best_score = (
        _record_score(winner_record)
        if winner_record is not None
        else min(candidate_runs(scenario, final, winner.trials) or (float("inf"),))
    )
    return TuneResult(
        scenario=scenario.name,
        strategy=strategy.name,
        machine=machine.name,
        best_label=winner.config.label,
        best_score=best_score,
        best_time_s=final.time_s,
        best_detail=dict(final.detail),
        evaluations=evaluations,
        from_journal=from_journal,
        from_cache=from_cache,
        rungs=tuple(rungs),
        trajectory=tuple(trajectory),
        complete=True,
        known_best_label=known_best.label if known_best else None,
        journal=str(journal.path) if journal is not None else None,
        meta={"shard": list(shard), "space_size": space.size},
    )


def _evaluate_candidates(
    scenario: Scenario,
    machine: Machine,
    candidates: "list[Candidate]",
) -> "list[RunRecord]":
    """Evaluate fresh candidates in one batched scenario call."""
    if not candidates:
        return []
    evaluations = scenario.evaluate(
        tuple(c.config for c in candidates), machine
    )
    return [
        candidate_record(scenario, cand, evaluation)
        for cand, evaluation in zip(candidates, evaluations)
    ]
