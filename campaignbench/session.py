"""One benchmark session: an interpreter that sets up one workload and
then measures passes of it until its time budget is used.

On ``campaign_cold`` and ``campaign_extend`` every pass runs in a child
forked from the set-up process: it shares the imports and the inputs,
and its process memos are as empty as a fresh interpreter's because the
set-up process never runs a campaign itself.  So every pass is a first
run, and the interpreter start is paid once per session, not per pass.

``run.py`` starts the sessions and reads the JSON object this script
prints as its last line::

    {"ready": <time.monotonic() when set-up ended>,
     "passes": [{"wall_s", "ops", "rss_kib", "attempted", "failed",
                 "layers"?}, ...]}

``time.monotonic`` is the system-wide monotonic clock on Linux, so the
parent subtracts its own launch time from ``ready`` to get the set-up
time, interpreter start and ``import repro`` included.

Usage (normally only through ``run.py``)::

    python3 campaignbench/session.py --workload campaign_cold --seed 0 \\
        --work .bench_work/x --budget 5 [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

GOLDENS = HERE / "goldens.json"

#: The probe's duration on the reference host (2-vCPU x86-64 VM, Python
#: 3.11) in a quiet phase; normalised rates are quoted at this host speed.
PROBE_REF_S = 0.0285

#: The prior study of ``campaign_extend`` uses this many of the five
#: compilers; the extension adds the rest.
PRIOR_COMPILERS = 3


def probe() -> float:
    """Seconds of a fixed pure-Python loop shaped like the program's hot
    paths (dict lookups, LRU updates, integer hashing): the host's speed
    at this moment.  The host this benchmark was written on slows every
    process by up to 2x for minutes at a time; a probe taken beside a pass
    slows by the same factor, so dividing it out keeps runs comparable."""
    start = time.perf_counter()
    sets: list[dict[int, int]] = [{} for _ in range(64)]
    clock = 0
    for i in range(40000):
        address = (i * 2654435761) & 0xFFFFF
        ways = sets[address % 64]
        tag = address // 64
        clock += 1
        if tag not in ways and len(ways) >= 4:
            del ways[min(ways, key=ways.__getitem__)]
        ways[tag] = clock
    return time.perf_counter() - start


def benchmark_order(seed: int) -> tuple[str, ...]:
    """All 108 benchmarks in a seeded order (records do not depend on it)."""
    from repro.suites.registry import all_benchmarks

    names = [b.full_name for b in all_benchmarks()]
    random.Random(f"order|{seed}").shuffle(names)
    return tuple(names)


def prior_variants(seed: int) -> tuple[str, ...]:
    """The seeded 3 of the 5 compilers that form the prior study."""
    from repro.compilers.registry import STUDY_VARIANTS

    chosen = set(random.Random(f"prior|{seed}").sample(STUDY_VARIANTS, PRIOR_COMPILERS))
    return tuple(v for v in STUDY_VARIANTS if v in chosen)


def record_digest(record) -> str:
    from repro.harness.engine import canonical
    from repro.harness.results import record_to_dict

    return hashlib.sha256(canonical(record_to_dict(record)).encode()).hexdigest()


def campaign_digest(records: dict) -> str:
    """sha256 of the canonical JSON of the records sorted by cell."""
    from repro.harness.engine import canonical
    from repro.harness.results import record_to_dict

    ordered = [record_to_dict(records[key]) for key in sorted(records)]
    return hashlib.sha256(canonical(ordered).encode()).hexdigest()


def check_campaign(result, golden: dict, expected: list[str]) -> tuple[int, int]:
    """(attempted, failed) over the expected cells of one campaign result.

    A cell fails when it is missing, differs from its golden record, or
    carries a harness ``failure`` block.  A full campaign that matches the
    golden digest of all its records passes without per-cell digests.
    """
    cells = golden["cells"]
    if (len(expected) == len(cells) == len(result.records)
            and all(r.failure is None for r in result.records.values())
            and campaign_digest(result.records) == golden["digest"]):
        return len(expected), 0
    failed = 0
    for cell in expected:
        bench, variant = cell.split("/")
        record = result.records.get((bench, variant))
        if (record is None or record.failure is not None
                or record_digest(record) != cells[cell]):
            failed += 1
    failed += max(0, len(result.records) - len(expected))
    return len(expected), failed


class Campaign:
    """A campaign workload: one ``CampaignSession(config).run()`` per pass,
    checked against the golden records of the config's cells."""

    def __init__(self, goldens: dict, config, fresh: bool = True,
                 prior: "Path | None" = None) -> None:
        from repro.api import CampaignSession

        self.session = CampaignSession
        self.config = config
        self.golden = goldens["campaign"]
        self.expected = sorted(c for c in self.golden["cells"]
                               if c.split("/")[1] in config.variants)
        self.ops = len(self.expected)
        #: Run each pass in a forked child with empty process memos.
        self.fresh = fresh
        #: Copied to the config's cache directory before each pass.
        self.prior = prior

    def before_pass(self) -> None:
        if self.prior is not None:
            shutil.copytree(self.prior, self.config.cache_dir)

    def run_pass(self):
        return self.session(self.config).run()

    def check(self, result) -> tuple[int, int]:
        if self.prior is not None:
            shutil.rmtree(self.config.cache_dir, ignore_errors=True)
        return check_campaign(result, self.golden, self.expected)

    def rss_kib(self) -> int:
        """Peak RSS of this process and, with a pool, of its workers."""
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.config.workers > 1:
            rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return rss


def _config(args, **kwargs):
    from repro.api import CampaignConfig

    return CampaignConfig(benchmarks=benchmark_order(args.seed), **kwargs)


def campaign_cold(args, goldens: dict) -> Campaign:
    """The 540-cell campaign, serial, every pass with empty process memos."""
    return Campaign(goldens, _config(args))


def campaign_warm(args, goldens: dict) -> Campaign:
    """The same campaign repeated in one process after a warm-up pass."""
    workload = Campaign(goldens, _config(args), fresh=False)
    workload.run_pass()  # unmeasured: fills the process memos
    return workload


def campaign_extend(args, goldens: dict) -> Campaign:
    """The persisted 3-compiler study extended to all five compilers with
    ``workers=2``, every pass from a fresh copy of its cache directory."""
    cache_dir = Path(args.work) / f"pass-{args.index}"
    return Campaign(goldens, _config(args, workers=2, cache_dir=str(cache_dir)),
                    prior=Path(args.work) / "prior")


def extend_prior(args, goldens: dict) -> Campaign:
    """``campaign_extend``'s prior study, built once per run (not measured)."""
    return Campaign(goldens, _config(args, variants=prior_variants(args.seed),
                                     cache_dir=str(Path(args.work) / "prior")))


class TraceOracle:
    """``trace_oracle``: the seeded draw of nests through both hierarchies."""

    def __init__(self, args, goldens: dict) -> None:
        import nests
        from repro.perf import trace

        self.trace = trace
        self.golden = goldens["trace"]
        self.jobs = [(f"{nid}|{h}", nest, levels)
                     for nid, nest in nests.build_draw(args.seed)
                     for h, levels in nests.HIERARCHIES.items()]
        self.ops = sum(self.golden[key]["accesses"] for key, _n, _l in self.jobs)
        self.fresh = False

    def before_pass(self) -> None:
        pass

    def run_pass(self):
        # Looked up on the module at call time, so a traced run's
        # wrapper sees every call.
        return [(key, self.trace.trace_traffic(nest, levels))
                for key, nest, levels in self.jobs]

    def check(self, results) -> tuple[int, int]:
        failed = sum(1 for key, traffic in results
                     if list(traffic.boundary_bytes) != self.golden[key]["boundary_bytes"])
        return len(self.jobs), failed

    def rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {
    "campaign_cold": campaign_cold,
    "campaign_warm": campaign_warm,
    "campaign_extend": campaign_extend,
    "trace_oracle": TraceOracle,
    "extend_prior": extend_prior,
}


def measure(workload, recorder, spans: "str | None") -> dict:
    """One pass: its wall time, operations, memory, checks and layers."""
    workload.before_pass()
    before = probe()
    if recorder is not None:
        recorder.begin_pass()
    start = time.perf_counter()
    out = workload.run_pass()
    wall = time.perf_counter() - start
    if recorder is not None:
        pass_spans, counts = recorder.end_pass()
    sample = {"wall_s": wall, "ops": workload.ops, "rss_kib": workload.rss_kib(),
              "probe_s": (before + probe()) / 2}
    if recorder is not None:
        sample["layers"] = tracing.layer_metrics(pass_spans, counts)
        if spans:
            recorder.dump(spans)
    sample["attempted"], sample["failed"] = workload.check(out)
    return sample


def in_child(fn):
    """``fn()`` in a forked child; returns its JSON-able result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(fn(), out)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass process {pid} failed (wait status {status})")
    return json.loads(data)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory of the run")
    ap.add_argument("--index", type=int, default=0, help="session number in the run")
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of passes after set-up (at least one pass)")
    ap.add_argument("--max-passes", type=int, help="stop after this many passes")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--spans", help="write the first pass's spans here")
    args = ap.parse_args(argv)

    recorder = tracing.install() if args.trace else None
    goldens = json.loads(GOLDENS.read_text())
    workload = WORKLOADS[args.workload](args, goldens)
    ready = time.monotonic()
    setup_probe = (probe() + probe()) / 2
    if recorder is not None:
        recorder.spans.clear()  # the warm-up is set-up, not a pass

    passes = []
    deadline = ready + args.budget
    while not passes or (time.monotonic() < deadline
                         and (args.max_passes is None or len(passes) < args.max_passes)):
        spans = args.spans if not passes else None
        if workload.fresh:
            passes.append(in_child(lambda: measure(workload, recorder, spans)))
        else:
            passes.append(measure(workload, recorder, spans))
    print(json.dumps({"ready": ready, "probe_s": setup_probe, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
