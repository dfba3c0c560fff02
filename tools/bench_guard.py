#!/usr/bin/env python
"""Engine performance regression guard.

Times the campaign engine's three load-bearing scenarios —

- ``cold_serial_s``: full polybench x 3 variants, workers=1, no cache
  (best-of-``REPEATS``; the process-global compile/feature memos make
  repeats warm, so this is the steady-state cost a campaign's
  placement sweeps actually pay);
- ``cold_serial_first_s``: the first repeat of the same grid — the
  genuinely cold, memo-empty cost (denominator for the warm ratio);
- ``cold_parallel_s``: the same grid across 4 worker processes;
- ``warm_cache_s``: an identical repeat against a populated cell cache
  (must be nearly free);
- ``chaos_overhead_s``: the serial grid under the committed fault plan
  (resilience machinery must not dominate);
- ``telemetry_on_s``: the serial grid with the flight recorder on
  (spans + metrics + history sampling must stay cheap relative to the
  work they observe);
- ``explore_multi_s``: the ECP suite x the same variants, workers=1
  (best-of-``REPEATS``).  PolyBench is pinned to one core, so each of
  its cells has a single placement candidate; the ECP proxy apps
  explore 220 placements per variant, so this is the scenario that
  runs the vectorized placement evaluation and exploration scoring

— writes the measurements to ``--out`` (``BENCH_engine.json``) and
compares them against the committed baseline
(``benchmarks/BENCH_engine.baseline.json``).

Two kinds of check:

- *absolute*, with a generous ``tolerance`` multiplier (default 3x) so
  slow CI runners don't flap the gate — this catches order-of-magnitude
  regressions (an accidentally quadratic loop, a cache that stopped
  caching);
- *ratio*, machine-independent: warm-cache repeats must stay far
  cheaper than cold runs, and chaos bookkeeping must stay cheap
  relative to the work it wraps;
- *ratchet*, lower-is-better: the baseline's ``ratchets`` block pins a
  hard ceiling per scenario (no tolerance multiplier).  Once a perf win
  lands, the ceiling keeps it: ``--update-baseline`` only ever lowers a
  ratchet (to 2x the new measurement), never raises it.

Refresh the baseline after an intentional perf change::

    python tools/bench_guard.py --update-baseline
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

from toollog import add_logging_args, tool_logging  # noqa: E402

from repro.api import CampaignConfig, CampaignSession  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402

BASELINE = ROOT / "benchmarks" / "BENCH_engine.baseline.json"
SUITES = ("polybench",)
#: Multi-placement grid for ``explore_multi_s``.
MULTI_SUITES = ("ecp",)
VARIANTS = ("GNU", "FJtrad", "LLVM")
REPEATS = 3

#: Absolute tolerance: measured may be up to this multiple of baseline.
TOLERANCE = 3.0
#: Warm-cache repeat must cost at most this fraction of a cold run.
WARM_RATIO_MAX = 0.5
#: The chaos run may cost at most this multiple of the plain serial run
#: (it does strictly more work: every transient fault re-runs a cell).
CHAOS_RATIO_MAX = 3.0

#: The flight-recorder run may cost at most this multiple of the
#: memo-cold serial run (tracing bypasses the compile memo for span
#: fidelity, so the cold first run is the like-for-like denominator) —
#: observability must never dominate the observed work.
TELEMETRY_RATIO_MAX = 2.0


#: --update-baseline lowers a ratchet to this multiple of the new
#: measurement (headroom for runner jitter), and never raises one.
RATCHET_HEADROOM = 2.0


def _time(fn) -> tuple[float, float]:
    """(first-run, best-of-REPEATS) wall-clock of ``fn`` (seconds)."""
    first = best = float("inf")
    for i in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if i == 0:
            first = elapsed
        best = min(best, elapsed)
    return first, best


def measure() -> dict:
    base = CampaignConfig(suites=SUITES, variants=VARIANTS)
    plan = FaultPlan.load(ROOT / "tools" / "chaos_plan.json")
    chaos = base.with_(fault_plan=plan, max_retries=2, retry_backoff_s=0.0)

    results: dict[str, float] = {}
    first, best = _time(lambda: CampaignSession(base).run())
    results["cold_serial_s"] = best
    results["cold_serial_first_s"] = first
    _, results["cold_parallel_s"] = _time(
        lambda: CampaignSession(base.with_(workers=4)).run()
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        warm = base.with_(cache_dir=cache_dir)
        CampaignSession(warm).run()  # populate
        _, results["warm_cache_s"] = _time(lambda: CampaignSession(warm).run())

    _, results["chaos_overhead_s"] = _time(lambda: CampaignSession(chaos).run())
    _, results["telemetry_on_s"] = _time(
        lambda: CampaignSession(base.with_(telemetry=True)).run()
    )
    _, results["explore_multi_s"] = _time(
        lambda: CampaignSession(base.with_(suites=MULTI_SUITES)).run()
    )
    return {
        "scenarios": {k: round(v, 4) for k, v in results.items()},
        "grid": {"suites": list(SUITES), "variants": list(VARIANTS),
                 "multi_suites": list(MULTI_SUITES)},
        "repeats": REPEATS,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
    }


def compare(measured: dict, baseline: dict, tolerance: float,
            say=None) -> list[str]:
    if say is None:
        def say(event, message, **kwargs):  # bare fallback for callers
            print(message)
    broken: list[str] = []
    scenarios = measured["scenarios"]
    for name, base_s in baseline.get("scenarios", {}).items():
        got = scenarios.get(name)
        if got is None:
            broken.append(f"scenario {name!r} missing from measurement")
            continue
        limit = base_s * tolerance
        verdict = "ok" if got <= limit else "REGRESSION"
        say("absolute", f"  {verdict}: {name} = {got:.3f}s "
            f"(baseline {base_s:.3f}s, limit {limit:.3f}s)",
            scenario=name, measured_s=got, limit_s=round(limit, 4),
            ok=got <= limit)
        if got > limit:
            broken.append(
                f"{name}: {got:.3f}s exceeds {tolerance:.1f}x baseline "
                f"({base_s:.3f}s)"
            )

    # Lower-is-better ratchets: hard ceilings, no tolerance multiplier.
    for name, ceiling in baseline.get("ratchets", {}).items():
        got = scenarios.get(name)
        if got is None:
            broken.append(f"ratcheted scenario {name!r} missing from measurement")
            continue
        verdict = "ok" if got <= ceiling else "REGRESSION"
        say("ratchet", f"  {verdict}: ratchet {name} = {got:.3f}s "
            f"(ceiling {ceiling:.4f}s, lower is better)",
            scenario=name, measured_s=got, ceiling_s=ceiling,
            ok=got <= ceiling)
        if got > ceiling:
            broken.append(
                f"{name}: {got:.3f}s exceeds the ratcheted ceiling "
                f"({ceiling:.4f}s) — a won optimization regressed"
            )

    # Machine-independent ratios.  The warm ratio compares against the
    # genuinely cold first run: best-of repeats are memo-warm and would
    # make the cell cache look broken on fast hosts.
    cold_first = scenarios.get("cold_serial_first_s", scenarios["cold_serial_s"])
    cold_best = scenarios["cold_serial_s"]
    warm = scenarios["warm_cache_s"]
    chaos = scenarios["chaos_overhead_s"]
    ratio = warm / cold_first if cold_first else 0.0
    verdict = "ok" if ratio <= WARM_RATIO_MAX else "REGRESSION"
    say("ratio", f"  {verdict}: warm/cold ratio = {ratio:.3f} "
        f"(limit {WARM_RATIO_MAX})",
        ratio="warm/cold", value=round(ratio, 4), limit=WARM_RATIO_MAX,
        ok=ratio <= WARM_RATIO_MAX)
    if ratio > WARM_RATIO_MAX:
        broken.append(
            f"warm-cache repeat costs {ratio:.2f}x a cold run "
            f"(limit {WARM_RATIO_MAX}) — the cell cache stopped caching"
        )
    # Chaos and cold best-of are both memo-warm: like-for-like.
    ratio = chaos / cold_best if cold_best else 0.0
    verdict = "ok" if ratio <= CHAOS_RATIO_MAX else "REGRESSION"
    say("ratio", f"  {verdict}: chaos/cold ratio = {ratio:.3f} "
        f"(limit {CHAOS_RATIO_MAX})",
        ratio="chaos/cold", value=round(ratio, 4), limit=CHAOS_RATIO_MAX,
        ok=ratio <= CHAOS_RATIO_MAX)
    if ratio > CHAOS_RATIO_MAX:
        broken.append(
            f"chaos campaign costs {ratio:.2f}x a plain run "
            f"(limit {CHAOS_RATIO_MAX}) — resilience bookkeeping too heavy"
        )
    # Telemetry vs the memo-cold first run: tracing deliberately
    # bypasses the process-global compile memo (a memo hit would drop
    # the compile spans), so a telemetry run always pays cold-style
    # compile work.  The gate bounds what the *recording* adds on top
    # of that — spans, metrics, history sampling.
    tele = scenarios.get("telemetry_on_s")
    if tele is not None:
        ratio = tele / cold_first if cold_first else 0.0
        verdict = "ok" if ratio <= TELEMETRY_RATIO_MAX else "REGRESSION"
        say("ratio", f"  {verdict}: telemetry/cold ratio = {ratio:.3f} "
            f"(limit {TELEMETRY_RATIO_MAX})",
            ratio="telemetry/cold", value=round(ratio, 4),
            limit=TELEMETRY_RATIO_MAX, ok=ratio <= TELEMETRY_RATIO_MAX)
        if ratio > TELEMETRY_RATIO_MAX:
            broken.append(
                f"telemetry-on campaign costs {ratio:.2f}x a cold run "
                f"(limit {TELEMETRY_RATIO_MAX}) — observability overhead "
                "too heavy"
            )
    return broken


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measurement to --baseline instead of comparing",
    )
    add_logging_args(parser)
    args = parser.parse_args(argv)

    with tool_logging(args, "bench_guard") as say:
        say("start",
            f"measuring engine scenarios ({REPEATS} repeats, best-of) ...",
            repeats=REPEATS)
        measured = measure()
        for name, seconds in measured["scenarios"].items():
            say("scenario", f"  {name} = {seconds:.3f}s",
                scenario=name, seconds=seconds)
        Path(args.out).write_text(json.dumps(measured, indent=2) + "\n")
        say("wrote", f"wrote {args.out}", path=args.out)

        if args.update_baseline:
            path = Path(args.baseline)
            ratchets: dict[str, float] = {}
            if path.exists():
                ratchets = json.loads(path.read_text()).get("ratchets", {})
            won = measured["scenarios"]["cold_serial_s"] * RATCHET_HEADROOM
            ratchets["cold_serial_s"] = round(
                min(ratchets.get("cold_serial_s", float("inf")), won), 4
            )
            measured["ratchets"] = ratchets
            path.write_text(json.dumps(measured, indent=2) + "\n")
            say("baseline", f"baseline updated: {args.baseline}",
                path=args.baseline)
            return 0

        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            say("error", f"no baseline at {baseline_path}; run with "
                "--update-baseline", level="error")
            return 1
        baseline = json.loads(baseline_path.read_text())
        say("compare", f"comparing against {baseline_path} "
            f"(tolerance {args.tolerance:.1f}x):",
            baseline=str(baseline_path), tolerance=args.tolerance)
        broken = compare(measured, baseline, args.tolerance, say=say)
        if broken:
            for line in broken:
                say("regression", f"REGRESSION: {line}", level="error")
            return 1
        say("pass", "regression guard: all scenarios within budget")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
