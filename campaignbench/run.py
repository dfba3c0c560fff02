"""The repository's benchmark: the paper's 540-cell campaign and the
trace oracle, end to end and (with ``--trace 1``) layer by layer.

Run from the repository root::

    python3 campaignbench/run.py --workload campaign_cold --seed 0 --seconds 20 --trace 0

Workloads (see ``campaignbench/README.md`` for why each exists):

``campaign_cold``    the full campaign, serial, every pass with empty process memos;
``campaign_warm``    the same campaign repeated in long-lived interpreters;
``campaign_extend``  a persisted 3-compiler study extended to 5, ``workers=2``;
``trace_oracle``     ``trace_traffic`` over a seeded draw of small nests.

A run is split over child interpreters (``session.py``), every pass is
normalised to the reference host speed with a probe measured beside it,
and every output is checked against ``goldens.json``.  A human-readable table goes to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from session import PROBE_REF_S  # noqa: E402
from tracer import COUNTS, PER_LAYER  # noqa: E402

WORKLOADS = ("campaign_cold", "campaign_warm", "campaign_extend", "trace_oracle")
#: A run is split over this many interpreters, so set-up is sampled
#: several times per run.
SESSIONS = 6
#: A traced session measures at most this many passes (each traced
#: campaign pass records about 25k spans).
TRACED_PASSES = 4
SESSION_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MiB",
    "correct_ops_frac": "ratio",
}
#: Reported beside the per-layer metrics by the traced run.
TRACE_OVERHEAD = {
    "bench.untraced_ops_per_s": "ops/s",
    "bench.traced_ops_per_s": "ops/s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.traced_pass_wall_s": "s",
    "bench.host_factor": "ratio",
}


class BenchError(Exception):
    """A session failed; the run reports no result."""


def unit_of(name: str) -> str:
    if name in TRACE_OVERHEAD:
        return TRACE_OVERHEAD[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_session(workload: str, seed: int, work: Path, index: int, budget: float,
                traced: bool = False,
                spans: "Path | None" = None) -> tuple[float, float, list[dict]]:
    """Launch one session; returns (set-up seconds, its probe, pass samples)."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--index", str(index),
           "--budget", f"{budget:.3f}"]
    if traced:
        cmd += ["--trace", "--max-passes", str(TRACED_PASSES)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"session {index} exceeded {SESSION_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"session {index} exited {proc.returncode}:\n{err[-2000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    return doc["ready"] - launched, doc["probe_s"], doc["passes"]


def prepare(args, work: Path) -> None:
    """Run-level inputs shared by the sessions (not measured)."""
    if args.workload == "campaign_extend":
        _setup, _probe, passes = run_session("extend_prior", args.seed, work, 0, 0.0)
        if any(p["failed"] for p in passes):
            raise BenchError("the prior study of campaign_extend failed its golden check")


def schedule(args):
    """(traced, budget) per session; a traced run alternates the two."""
    return [(bool(args.trace) and index % 2 == 1, args.seconds / SESSIONS)
            for index in range(SESSIONS)]


def normalised_rate(sample: dict) -> float:
    """Operations per second of a pass, at the reference host speed."""
    return sample["ops"] / sample["wall_s"] * sample["probe_s"] / PROBE_REF_S


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setups: list[float] = []
    raw_setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        prepare(args, work)
        spans_written = False
        for index, (is_traced, budget) in enumerate(schedule(args), start=1):
            spans = None
            if is_traced and not spans_written:
                spans = bench_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
                spans_written = True
            setup, probe, passes = run_session(args.workload, args.seed, work, index,
                                               budget, is_traced, spans)
            if is_traced:
                traced.extend(passes)
            else:
                setups.append(setup * PROBE_REF_S / probe)
                raw_setups.append(setup)
                untraced.extend(passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = untraced + traced
    attempted = sum(p["attempted"] for p in samples)
    failed = sum(p["failed"] for p in samples)
    correct = attempted > 0 and failed == 0
    rates = [normalised_rate(p) for p in untraced]
    rss = [p["rss_kib"] / 1024 for p in untraced]

    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced passes, "
          f"{len(traced)} traced, {len(setups)} set-ups", file=sys.stderr)
    for name, values in (("setup_s", setups), ("ops_per_s", rates), ("peak_rss_mb", rss),
                         ("raw setup_s", raw_setups),
                         ("raw ops_per_s", [p["ops"] / p["wall_s"] for p in untraced])):
        q1, q2, q3 = quartiles(values)
        unit = END_TO_END[name.split()[-1]]
        print(f"  {name:<14} median {q2:12.4f} {unit:<6} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"n={len(values)}", file=sys.stderr)
    print(f"  failed_ops_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} outputs)", file=sys.stderr)

    if args.trace:
        layers = [p["layers"] for p in traced]
        for name in COUNTS:
            if len({p[name] for p in layers}) > 1:
                print(f"error: count {name} differs between traced passes: "
                      f"{sorted({p[name] for p in layers})}", file=sys.stderr)
                correct = False
        # One pass's layers (the median one), so its self times add up to
        # its wall time; they are host seconds, scaled by host_factor.
        ranked = sorted(traced, key=normalised_rate)
        median_pass = ranked[len(ranked) // 2]
        values = dict(median_pass["layers"])
        traced_rate = statistics.median(normalised_rate(p) for p in traced)
        values["bench.untraced_ops_per_s"] = statistics.median(rates)
        values["bench.traced_ops_per_s"] = traced_rate
        values["bench.trace_overhead_ratio"] = statistics.median(rates) / traced_rate
        values["bench.traced_pass_wall_s"] = median_pass["wall_s"]
        values["bench.host_factor"] = median_pass["probe_s"] / PROBE_REF_S
        for name, value in values.items():
            print(f"  {name:<40} {value:14.6g} {unit_of(name)}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
            "correct_ops_frac": 1.0 - failed / max(attempted, 1),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
