"""Span tracing of the program's layers from outside the program.

:func:`install` wraps the public functions of each layer (the module
attributes its callers look up at call time) with span recorders.  It
is called before a run starts, so pool workers forked during the run
inherit the wrappers.  A span is ``(id, parent id, name, start, end,
operation id)``; the operation id is the campaign cell
(``benchmark/variant``) or the traced nest the span worked for.  Spans
stay in memory; :meth:`Tracer.dump` writes them out at the end.

Worker spans cross the pool boundary in the snapshot slot of
``_run_chunk``'s result, which the engine only reads when its own
telemetry is on (the benchmark never turns it on: telemetry bypasses the
compile memo, so a run with it does different work).

:func:`layer_metrics` turns one pass's spans and counters into the
per-layer metrics; a layer's self time is its spans' durations minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

#: Span name -> layer whose self time it counts towards.  ``pass`` (the
#: benchmark's root span around one pass) and ``_run_chunk`` count
#: towards the engine: its own work outside every other layer.
LAYERS = {
    "compile_kernel": "compilers.compile",
    "analyze_kernel_cached": "staticanalysis.lint",
    "analyze_kernel": "staticanalysis.lint",
    "CompilationCache.get": "perf.cost.kernel_cache",
    "nest_features": "perf.batch.features",
    "evaluate_placements": "perf.batch.evaluate",
    "noise_multiplier": "perf.noise",
    "explore": "harness.explore",
    "fastest_of": "harness.explore",
    "run_cell": "harness.runner",
    "measure_benchmark": "harness.runner",
    "CellCache.get": "harness.engine.cell_cache.get",
    "CellCache.put": "harness.engine.cell_cache.put",
    "CampaignJournal.append": "harness.journal.append",
    "trace_traffic": "perf.trace",
    "_run_chunk": "harness.engine",
    "pass": "harness.engine",
}

#: Per-layer metric names reported by the traced run, in report order.
PER_LAYER = (
    "compilers.compile.calls", "compilers.compile.self_s",
    "staticanalysis.lint.calls", "staticanalysis.lint.analyses",
    "staticanalysis.lint.self_s",
    "perf.cost.kernel_cache.gets", "perf.cost.kernel_cache.compiles",
    "perf.cost.kernel_cache.disk_hits", "perf.cost.kernel_cache.disk_writes",
    "perf.cost.kernel_cache.hit_ratio", "perf.cost.kernel_cache.self_s",
    "perf.batch.features.calls", "perf.batch.features.builds",
    "perf.batch.features.distinct", "perf.batch.features.useful_ratio",
    "perf.batch.features.self_s",
    "perf.batch.evaluate.calls", "perf.batch.evaluate.placements",
    "perf.batch.evaluate.self_s",
    "perf.noise.draws", "perf.noise.self_s",
    "harness.explore.calls", "harness.explore.self_s",
    "harness.runner.cells", "harness.runner.attempts",
    "harness.runner.cell_p50_ms", "harness.runner.cell_p99_ms",
    "harness.runner.self_s",
    "harness.engine.cell_cache.gets", "harness.engine.cell_cache.hits",
    "harness.engine.cell_cache.hit_ratio", "harness.engine.cell_cache.puts",
    "harness.engine.cell_cache.get_s", "harness.engine.cell_cache.put_s",
    "harness.journal.appends", "harness.journal.append_s",
    "harness.engine.pool.chunks", "harness.engine.pool.payload_bytes",
    "harness.engine.pool.worker_busy_s", "harness.engine.pool.idle_s",
    "harness.engine.self_s",
    "perf.trace.calls", "perf.trace.accesses", "perf.trace.accesses_per_s",
    "perf.trace.self_s",
    "machine.cache.L1d.hits", "machine.cache.L1d.misses",
    "machine.cache.L2.hits", "machine.cache.L2.misses",
)


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Open spans, innermost last: ``(span id, operation id)``.
        self.stack: list[tuple] = []
        self._next = 0
        #: Worker results (spans, counts, feature keys) delivered by pool callbacks;
        #: merged on the main thread by :meth:`end_pass`.
        self.inbox: list[dict] = []
        #: Feature matrices returned so far (id -> (features, info)),
        #: pinned so ids stay unique: a first sighting is a build.
        self.features_seen: dict[int, tuple] = {}
        self.pass_infos: dict[int, object] = {}
        self._content_keys: dict[int, str] = {}
        self.hierarchies: list = []
        self.root: "int | None" = None
        self._mark = 0
        self._pass_start = 0.0

    def new_id(self) -> int:
        self._next += 1
        return os.getpid() * 10_000_000 + self._next

    def wrap(self, name, fn, op_of=None, after=None):
        """``fn`` recording one span per call (and ``after`` counts)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_op = tracer.stack[-1] if tracer.stack else (None, None)
            sid = tracer.new_id()
            op = op_of(*args, **kwargs) if op_of is not None else parent_op
            tracer.stack.append((sid, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, op))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        self._mark = len(self.spans)
        self.counts = Counter()
        self.pass_infos = {}
        self.root = self.new_id()
        self.stack = [(self.root, None)]
        self._pass_start = time.perf_counter()

    def end_pass(self) -> tuple[list[tuple], Counter]:
        """Close the root span; return the pass's spans and counts."""
        end = time.perf_counter()
        self.stack = []
        self.spans.append((self.root, None, "pass", self._pass_start, end, None))
        counts = self.counts
        keys = self.feature_keys()
        for shipped in self.inbox:
            self.spans.extend(shipped["spans"])
            counts.update(shipped["counts"])
            keys.update(shipped["feature_keys"])
        self.inbox.clear()
        counts["perf.batch.features.distinct"] = len(keys)
        return self.spans[self._mark:], counts

    def feature_keys(self) -> set[str]:
        """Content keys of the nests whose features this pass asked for."""
        return {self._content_key(info) for info in self.pass_infos.values()}

    def _content_key(self, info) -> str:
        """The nest plus the annotations its traffic table reads: two
        infos with equal keys get equal traffic rows."""
        key = self._content_keys.get(id(info))
        if key is None:
            from repro.harness.engine import canonical

            content = (info.nest, info.tile_working_set, info.streaming_stores)
            key = hashlib.sha256(canonical(content).encode()).hexdigest()
            self._content_keys[id(info)] = key
        return key

    def dump(self, path: str) -> None:
        """Write every span recorded so far, one JSON object per line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")


def install() -> Tracer:
    """Wrap every traced layer; returns the process's tracer."""
    from repro.harness import engine, exploration, journalstore, runner
    from repro.perf import batch, cost, trace
    from repro.staticanalysis import driver
    from repro.tuning import strategies

    tr = Tracer()

    # compilers / staticanalysis: the compile memo's callee, and the lint
    # the compile driver imports late from the driver module.
    cost.compile_kernel = tr.wrap("compile_kernel", cost.compile_kernel)
    driver.analyze_kernel_cached = tr.wrap("analyze_kernel_cached",
                                           driver.analyze_kernel_cached)
    driver.analyze_kernel = tr.wrap("analyze_kernel", driver.analyze_kernel)

    # perf.cost kernel cache: compiles and disk hits from its counters.
    get = cost.CompilationCache.get

    def kernel_get(self, *args, **kwargs):
        compiles, disk = self.compile_count, self.disk_hits
        result = get(self, *args, **kwargs)
        tr.counts["perf.cost.kernel_cache.compiles"] += self.compile_count - compiles
        tr.counts["perf.cost.kernel_cache.disk_hits"] += self.disk_hits - disk
        if self.compile_count > compiles and self.persist_dir is not None:
            tr.counts["perf.cost.kernel_cache.disk_writes"] += 1
        return result

    cost.CompilationCache.get = tr.wrap("CompilationCache.get",
                                        functools.wraps(get)(kernel_get))

    # perf.batch: feature extraction and the batched evaluator.
    def features_after(features, info, *args, **kwargs):
        tr.pass_infos[id(info)] = info
        if id(features) not in tr.features_seen:
            tr.features_seen[id(features)] = (features, info)
            tr.counts["perf.batch.features.builds"] += 1

    batch.nest_features = tr.wrap("nest_features", batch.nest_features,
                                  after=features_after)

    def placements_after(result, bench, variant, machine, placements, **kwargs):
        tr.counts["perf.batch.evaluate.placements"] += len(placements)

    exploration.evaluate_placements = tr.wrap(
        "evaluate_placements", exploration.evaluate_placements,
        after=placements_after)

    # perf.noise: every draw, from the runner and from exploration scoring.
    runner.noise_multiplier = tr.wrap("noise_multiplier", runner.noise_multiplier)
    strategies.noise_multiplier = tr.wrap("noise_multiplier",
                                          strategies.noise_multiplier)

    # harness.exploration / tuning.strategies, harness.runner.
    runner.explore = tr.wrap("explore", runner.explore)
    exploration.fastest_of = tr.wrap("fastest_of", exploration.fastest_of)
    engine.run_cell = tr.wrap(
        "run_cell", engine.run_cell,
        op_of=lambda bench, variant, *args, **kwargs: f"{bench.full_name}/{variant}")
    runner.measure_benchmark = tr.wrap("measure_benchmark", runner.measure_benchmark)

    # harness.engine cell cache and harness.journalstore.
    def cell_get_after(record, *args, **kwargs):
        if record is not None:
            tr.counts["harness.engine.cell_cache.hits"] += 1

    def record_cell(*args, **kwargs) -> str:
        record = args[-1]  # CellCache.put(key, record), CampaignJournal.append(record)
        return f"{record.benchmark}/{record.variant}"

    engine.CellCache.get = tr.wrap("CellCache.get", engine.CellCache.get,
                                   after=cell_get_after)
    engine.CellCache.put = tr.wrap("CellCache.put", engine.CellCache.put, op_of=record_cell)
    journalstore.CampaignJournal.append = tr.wrap(
        "CampaignJournal.append", journalstore.CampaignJournal.append, op_of=record_cell)

    # harness.engine pool: chunks run in forked workers; their spans and
    # counts travel back in the (otherwise unused) telemetry slot.
    run_chunk = engine._run_chunk

    @functools.wraps(run_chunk)
    def chunk(payload):
        mark = len(tr.spans)
        tr.counts = Counter()
        tr.pass_infos = {}
        sid = tr.new_id()
        tr.stack = [(sid, None)]
        start = time.perf_counter()
        outcomes, snapshot, logs = run_chunk(payload)
        end = time.perf_counter()
        tr.stack = []
        if snapshot is not None:
            raise RuntimeError("campaign telemetry must be off in a traced run")
        tr.spans.append((sid, tr.root, "_run_chunk", start, end, None))
        counts = tr.counts
        counts["harness.engine.pool.chunks"] += 1
        counts["harness.engine.pool.payload_bytes"] += len(pickle.dumps(outcomes))
        shipped = {"spans": tr.spans[mark:], "counts": dict(counts),
                   "feature_keys": tr.feature_keys()}
        del tr.spans[mark:]
        return outcomes, shipped, logs

    engine._run_chunk = chunk

    class TracedPool(ProcessPoolExecutor):
        """Counts request payloads and collects worker spans."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._opened = time.perf_counter()
            self._workers = kwargs.get("max_workers", args[0] if args else 1)

        def submit(self, fn, *args, **kwargs):
            tr.counts["harness.engine.pool.payload_bytes"] += len(pickle.dumps(args))
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(_collect)
            return future

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tr.counts["pool.phase_worker_s"] += (
                (time.perf_counter() - self._opened) * self._workers)

    def _collect(future) -> None:
        if future.exception() is None:
            tr.inbox.append(future.result()[1])

    engine.ProcessPoolExecutor = TracedPool

    # perf.trace / machine.cache: the simulator and the hierarchies it builds.
    hierarchy = trace.CacheHierarchy

    def traced_hierarchy(levels):
        made = hierarchy(levels)
        tr.hierarchies.append(made)
        return made

    def trace_after(result, *args, **kwargs):
        for made in tr.hierarchies:
            for cache in made.caches:
                level = cache.level.name
                tr.counts[f"machine.cache.{level}.hits"] += cache.stats.hits
                tr.counts[f"machine.cache.{level}.misses"] += cache.stats.misses
            tr.counts["perf.trace.accesses"] += made.caches[0].stats.accesses
        tr.hierarchies.clear()

    trace.CacheHierarchy = traced_hierarchy
    trace.trace_traffic = tr.wrap("trace_traffic", trace.trace_traffic,
                                  op_of=lambda nest, levels: nest.label,
                                  after=trace_after)
    return tr


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _op in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one pass (see :data:`PER_LAYER`)."""
    self_s = _self_times(spans)
    by_layer: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for sid, _parent, name, start, end, _op in spans:
        by_layer[LAYERS[name]] += self_s[sid]
        calls[name] += 1
        durations.setdefault(name, []).append(end - start)
    c = counts
    m: dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["compilers.compile.calls"] = calls["compile_kernel"]
    m["compilers.compile.self_s"] = by_layer["compilers.compile"]
    m["staticanalysis.lint.calls"] = calls["analyze_kernel_cached"]
    m["staticanalysis.lint.analyses"] = calls["analyze_kernel"]
    m["staticanalysis.lint.self_s"] = by_layer["staticanalysis.lint"]
    gets = calls["CompilationCache.get"]
    m["perf.cost.kernel_cache.gets"] = gets
    m["perf.cost.kernel_cache.compiles"] = c["perf.cost.kernel_cache.compiles"]
    m["perf.cost.kernel_cache.disk_hits"] = c["perf.cost.kernel_cache.disk_hits"]
    m["perf.cost.kernel_cache.disk_writes"] = c["perf.cost.kernel_cache.disk_writes"]
    m["perf.cost.kernel_cache.hit_ratio"] = ratio(
        gets - c["perf.cost.kernel_cache.compiles"], gets)
    m["perf.cost.kernel_cache.self_s"] = by_layer["perf.cost.kernel_cache"]
    builds = c["perf.batch.features.builds"]
    m["perf.batch.features.calls"] = calls["nest_features"]
    m["perf.batch.features.builds"] = builds
    m["perf.batch.features.distinct"] = c["perf.batch.features.distinct"]
    m["perf.batch.features.useful_ratio"] = ratio(
        min(builds, c["perf.batch.features.distinct"]), builds)
    m["perf.batch.features.self_s"] = by_layer["perf.batch.features"]
    m["perf.batch.evaluate.calls"] = calls["evaluate_placements"]
    m["perf.batch.evaluate.placements"] = c["perf.batch.evaluate.placements"]
    m["perf.batch.evaluate.self_s"] = by_layer["perf.batch.evaluate"]
    m["perf.noise.draws"] = calls["noise_multiplier"]
    m["perf.noise.self_s"] = by_layer["perf.noise"]
    m["harness.explore.calls"] = calls["explore"]
    m["harness.explore.self_s"] = by_layer["harness.explore"]
    cells_ms = [d * 1e3 for d in durations.get("run_cell", [])]
    m["harness.runner.cells"] = calls["run_cell"]
    m["harness.runner.attempts"] = calls["measure_benchmark"]
    m["harness.runner.cell_p50_ms"] = _percentile(cells_ms, 0.50)
    m["harness.runner.cell_p99_ms"] = _percentile(cells_ms, 0.99)
    m["harness.runner.self_s"] = by_layer["harness.runner"]
    cell_gets = calls["CellCache.get"]
    m["harness.engine.cell_cache.gets"] = cell_gets
    m["harness.engine.cell_cache.hits"] = c["harness.engine.cell_cache.hits"]
    m["harness.engine.cell_cache.hit_ratio"] = ratio(
        c["harness.engine.cell_cache.hits"], cell_gets)
    m["harness.engine.cell_cache.puts"] = calls["CellCache.put"]
    m["harness.engine.cell_cache.get_s"] = by_layer["harness.engine.cell_cache.get"]
    m["harness.engine.cell_cache.put_s"] = by_layer["harness.engine.cell_cache.put"]
    m["harness.journal.appends"] = calls["CampaignJournal.append"]
    m["harness.journal.append_s"] = by_layer["harness.journal.append"]
    busy = sum(durations.get("_run_chunk", []))
    m["harness.engine.pool.chunks"] = c["harness.engine.pool.chunks"]
    m["harness.engine.pool.payload_bytes"] = c["harness.engine.pool.payload_bytes"]
    m["harness.engine.pool.worker_busy_s"] = busy
    m["harness.engine.pool.idle_s"] = max(0.0, c["pool.phase_worker_s"] - busy)
    m["harness.engine.self_s"] = by_layer["harness.engine"]
    trace_s = sum(durations.get("trace_traffic", []))
    m["perf.trace.calls"] = calls["trace_traffic"]
    m["perf.trace.accesses"] = c["perf.trace.accesses"]
    m["perf.trace.accesses_per_s"] = ratio(c["perf.trace.accesses"], trace_s)
    m["perf.trace.self_s"] = by_layer["perf.trace"]
    for level in ("L1d", "L2"):
        m[f"machine.cache.{level}.hits"] = c[f"machine.cache.{level}.hits"]
        m[f"machine.cache.{level}.misses"] = c[f"machine.cache.{level}.misses"]
    return m


#: Metrics that are counts: they must repeat exactly from pass to pass.
COUNTS = tuple(name for name in PER_LAYER
               if not name.endswith(("_s", "_ms", "_per_s", "_ratio"))
               and name != "harness.engine.pool.payload_bytes")

