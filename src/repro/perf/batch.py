"""Vectorized grid evaluation: batched ECM costing across placements.

The campaign's result is a (benchmark x variant x placement) grid, and
the scalar path (:func:`repro.perf.cost.benchmark_model`) re-derives
every per-nest quantity — op counts, working-set profiles, boundary
traffic — once *per placement*, although almost all of it only depends
on the (kernel, machine) pair.  This module splits the evaluation into
the two natural halves:

* **feature extraction** (:class:`NestFeatures`) — one pass per
  (compiled nest, machine) that calls the scalar model's own formulas:
  :func:`repro.perf.ecm.cycles_per_iteration` for the in-core term,
  :func:`repro.perf.ecm.irregular_rate_per_core` for the latency-bound
  rate, and :mod:`repro.perf.traffic`'s per-fit rows (``_fit_rows``,
  ``_block_factor``) for a traffic table keyed by layer-condition fit
  depth, built once per distinct (nest, tiling, streaming-store, line
  size) content and shared across variants;
* **batched evaluation** (:func:`evaluate_placements`) — the placements'
  geometry from :func:`repro.perf.cost.placement_geometry`, then the
  `nest_time` transfer arithmetic and the scaling/NUMA/OMP corrections
  applied across *all* placements of a cell at once, as numpy
  elementwise array ops when the placement axis is wide (a single
  placement short-circuits to plain floats — the same IEEE-754
  operations without array overhead).  It returns the placement times
  first (:class:`PlacementResults`) and assembles a placement's full
  breakdown only when a caller reads it.

That placement-axis arithmetic is the only part of the model written
twice.  It replays the scalar path's operation order (numpy elementwise
``+ - * / min max`` on float64 are IEEE-identical per element; sums
stay sequential in scalar order; transcendentals stay in :mod:`math`),
so ``evaluate_placements(...)[i] == benchmark_model(..., placements[i])``
exactly, including failed-build ``inf`` cells and diagnostics order.
``benchmark_model`` stays as the reference: ``tests/perf/test_batch.py``
sweeps the full default grid against it.

In front of the evaluator sits the redesigned grid API —
:class:`GridSpec` / :func:`evaluate_grid` — re-exported from
:mod:`repro.api` as the single entry point for model-space sweeps.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from repro.compilers.base import CodegenNestInfo, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import STUDY_VARIANTS
from repro.ir.loop import LoopNest
from repro.libs.mathlib import library_time_s
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.memo import ContentMemo, IdentityMemo
from repro.perf.cost import (
    CompilationCache,
    ModelResult,
    UnitBreakdown,
    machine_memo_key,
    placement_geometry,
)
from repro.perf.ecm import NestTime, cycles_per_iteration, irregular_rate_per_core
from repro.perf.scaling import omp_region_overhead_s
from repro.perf.traffic import (
    TrafficReport,
    _block_factor,
    _empty_report,
    _fit_rows,
    _report,
    _resident_ws_profile,
)
from repro.suites.base import Benchmark

__all__ = [
    "GridCell",
    "GridResult",
    "GridSpec",
    "NestFeatures",
    "PlacementResults",
    "evaluate_grid",
    "evaluate_placements",
    "nest_features",
]


# -- feature extraction ---------------------------------------------------


# Traffic rows per (fit depth, source-is-memory), from the same
# per-fit aggregation as repro.perf.traffic.nest_traffic.  The
# placement only picks *which* row applies (via the shared cache's
# effective capacity), never changes a row's value.
def _traffic_rows(
    nest: LoopNest,
    tile_working_set: "int | None",
    streaming_stores: bool,
    line: int,
) -> "tuple[tuple[float, ...], dict[tuple[int, bool], tuple[float, float, float]]]":
    trips = {l.var: l.trip_count for l in nest.loops}
    ws_profile = _resident_ws_profile(nest, line)
    block_factor = _block_factor(nest, tile_working_set, ws_profile)
    rows: dict[tuple[int, bool], tuple[float, float, float]] = {}
    for fit in range(nest.depth + 1):
        rows[(fit, False)], rows[(fit, True)] = _fit_rows(
            nest, fit, trips, block_factor, line, streaming_stores
        )
    return ws_profile, rows


#: Working-set profiles and traffic rows by content.  The key holds
#: every input :func:`_traffic_rows` reads (nest, tile working set,
#: streaming-store flag, line size), so compiled nests that agree on
#: them share one read-only table, whichever variant compiled them.
_TRAFFIC_TABLES: "ContentMemo[tuple[tuple[float, ...], Mapping]]" = ContentMemo(4096)


def _traffic_table(
    info: CodegenNestInfo, line_bytes: int
) -> "tuple[tuple[float, ...], Mapping]":
    """The (memoized) ``(ws_profile, rows)`` of one compiled nest."""
    key = (info.nest, info.tile_working_set, info.streaming_stores, line_bytes)
    table = _TRAFFIC_TABLES.get(key)
    if table is None:
        ws_profile, rows = _traffic_rows(*key)
        table = _TRAFFIC_TABLES.put(key, (ws_profile, MappingProxyType(rows)))
    return table


class NestFeatures:
    """The per-(nest, machine) feature matrix of the batched evaluator.

    Everything :func:`repro.perf.ecm.nest_time` needs that does *not*
    depend on the placement: in-core cycles per iteration, the
    latency-bound rate per core, the working-set profile, and
    per-fit-depth traffic rows, each from the scalar model's own
    function.  Evaluating one placement then reduces to
    ``effective_capacity -> fit depth -> table row`` plus a handful of
    float ops.
    """

    __slots__ = (
        "info",
        "machine",
        "iterations",
        "eliminated",
        "empty",
        "cpi",
        "ws_profile",
        "rows",
        "irr_rate_per_core",
        "one_plus_rco",
        "_traffic_memo",
    )

    def __init__(self, info: CodegenNestInfo, machine: Machine) -> None:
        self.info = info
        self.machine = machine
        nest = info.nest
        self.iterations = nest.iterations
        self.eliminated = info.eliminated
        self.empty = info.eliminated or nest.iterations == 0
        self.one_plus_rco = 1.0 + info.runtime_check_overhead
        self._traffic_memo: dict[int, TrafficReport] = {}
        if self.eliminated:
            # The scalar path never costs an eliminated nest; keep the
            # extractor from touching annotations it may not have.
            self.cpi = 0.0
            self.ws_profile = ()
            self.rows = {}
            self.irr_rate_per_core = 0.0
            return

        self.cpi = cycles_per_iteration(info, machine)
        if self.empty:
            self.ws_profile = ()
            self.rows = {}
        else:
            self.ws_profile, self.rows = _traffic_table(info, machine.line_bytes)
        self.irr_rate_per_core = irregular_rate_per_core(info, machine)

    def traffic_for(self, active_cores_per_domain: int) -> TrafficReport:
        """The nest's traffic report for one active-core count (memoized)."""
        report = self._traffic_memo.get(active_cores_per_domain)
        if report is not None:
            return report
        if self.empty:
            report = _empty_report(self.machine)
        else:
            report = _report(
                self.machine,
                self.ws_profile,
                active_cores_per_domain,
                lambda fit, is_memory: self.rows[(fit, is_memory)],
            )
        self._traffic_memo[active_cores_per_domain] = report
        return report


#: Feature matrices by compiled nest (identity) and machine key.
_FEATURES: "IdentityMemo[NestFeatures]" = IdentityMemo(4096)


def nest_features(
    info: CodegenNestInfo,
    machine: Machine,
    machine_key: "str | None" = None,
) -> NestFeatures:
    """The (memoized) feature matrix for one compiled nest on one machine."""
    key = machine_key if machine_key is not None else machine_memo_key(machine)
    features = _FEATURES.get(info, key)
    if features is None:
        features = _FEATURES.put(info, NestFeatures(info, machine), key)
    return features


# -- batched evaluation ---------------------------------------------------


class PlacementResults(Sequence):
    """The results of one :func:`evaluate_placements` call, times first.

    ``times`` holds every placement's model time (comm included) as
    plain floats; ``status`` and ``diagnostics`` are the cell's, shared
    by every placement.  Item ``i``, the full :class:`ModelResult` with
    its unit and nest breakdown, is built on first access and kept, so
    a caller that only ranks placements builds no breakdown at all.
    Otherwise it reads like the tuple it replaces: ``len``, iteration,
    negative indices, slices (a tuple of results), and element-wise
    equality with any sequence of results.
    """

    __slots__ = ("times", "status", "diagnostics", "_build", "_built")

    def __init__(
        self,
        times: tuple[float, ...],
        status: CompileStatus,
        diagnostics: tuple[str, ...],
        build: "Callable[[int], ModelResult] | None",
    ) -> None:
        self.times = times
        self.status = status
        self.diagnostics = diagnostics
        self._build = build
        self._built: "list[ModelResult | None]" = [None] * len(times)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self.times))))
        result = self._built[index]  # IndexError/TypeError as for a tuple
        if result is None:
            p = index + len(self.times) if index < 0 else index
            result = self._built[p] = self._build(p)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"PlacementResults(times={self.times!r}, status={self.status})"


def evaluate_placements(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placements: "tuple[Placement, ...] | list[Placement]",
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> PlacementResults:
    """Cost one (benchmark, variant) cell under many placements at once.

    Returns a :class:`PlacementResults`: the placement times as one
    tuple of floats, the cell's status and diagnostics, and one
    :class:`~repro.perf.cost.ModelResult` per placement, built only
    when read, each bit-identical to ``benchmark_model(bench, variant,
    machine, placement, ...)`` — the scalar oracle.  Kernels compile
    once (not once per placement), nest features extract once, and the
    remaining per-placement arithmetic runs as numpy elementwise
    operations over the placement axis.

    Before compiling anything, raises what
    :func:`~repro.perf.cost.placement_geometry` raises for the first
    placement (in order) it rejects, exactly where a scalar loop over
    the placements would have raised.
    """
    placements = tuple(placements)
    if not placements:
        return PlacementResults((), CompileStatus.OK, (), None)
    (threads_list, rank_domains_list, bw_share_list, wf_list, acpd_list,
     spill_list) = zip(*(placement_geometry(bench, machine, p) for p in placements))

    cache = cache if cache is not None else CompilationCache()
    n = len(placements)
    batched = n > 1
    if batched:
        lift = lambda values: np.asarray(values, dtype=float)  # noqa: E731
        minimum = np.minimum
        max_terms = lambda terms: np.maximum.reduce(terms)  # noqa: E731
        at = lambda x, p: float(x[p]) if isinstance(x, np.ndarray) else x  # noqa: E731
    else:
        lift = lambda values: values[0]  # noqa: E731
        minimum = min
        max_terms = max
        at = lambda x, p: x  # noqa: E731

    # Compile each unit's kernel once; diagnostics accumulate in unit
    # order, exactly as every scalar call would have accumulated them.
    diagnostics: list[str] = []
    compiled_units = []
    for unit in bench.units:
        compiled = None
        if unit.kernel is not None:
            compiled = cache.get(variant, unit.kernel, machine, flags)
            diagnostics.extend(compiled.diagnostics)
            if compiled.status is not CompileStatus.OK:
                # Failed builds fail for every placement: one inf cell each.
                status, diag = compiled.status, tuple(diagnostics)
                return PlacementResults(
                    (float("inf"),) * n,
                    status,
                    diag,
                    lambda p: ModelResult(
                        benchmark=bench.full_name,
                        variant=variant,
                        placement=placements[p],
                        status=status,
                        time_s=float("inf"),
                        diagnostics=diag,
                    ),
                )
        compiled_units.append((unit, compiled))

    machine_key = machine_memo_key(machine)
    frequency = machine.core.frequency_hz
    n_bounds = len(machine.cache_levels)
    wf = lift(wf_list)

    # Parallel-nest geometry vectors (serial nests use the constants 1/1.0).
    par_threads = lift([float(max(1, t)) for t in threads_list])
    par_domains = lift([float(d) for d in rank_domains_list])
    par_numa = lift(spill_list)
    bw_share = lift(bw_share_list)
    bw_by_acpd = {a: machine.memory.bandwidth(a) for a in set(acpd_list)}
    par_bw_raw = lift([bw_by_acpd[a] for a in acpd_list])
    serial_bw_raw = machine.memory.bandwidth(1)

    total = 0.0 if not batched else np.zeros(n)
    unit_rows = []

    for unit, compiled in compiled_units:
        kernel = 0.0 if not batched else np.zeros(n)
        library = 0.0 if not batched else np.zeros(n)
        omp = 0.0 if not batched else np.zeros(n)
        nest_rows = []
        if compiled is not None:
            for info in compiled.nest_infos:
                features = nest_features(info, machine, machine_key)
                if features.eliminated:
                    report = features.traffic_for(1)
                    zero = 0.0 if not batched else np.zeros(n)
                    nest_rows.append((zero, [zero] * n_bounds, zero, zero, [report] * n))
                    # cost.py still charges the OMP region overhead for
                    # eliminated parallel nests; fall through below.
                    cs = transfers = None
                else:
                    if info.parallel:
                        t_f = par_threads
                        nest_acpd = acpd_list
                        dom_f = par_domains
                        numa_f = par_numa
                        bw_raw = par_bw_raw
                    else:
                        t_f = 1.0
                        nest_acpd = None
                        dom_f = 1.0
                        numa_f = 1.0
                        bw_raw = serial_bw_raw
                    iterations = features.iterations * wf
                    cs = iterations * features.cpi / frequency / t_f
                    if nest_acpd is None:
                        reports = [features.traffic_for(1)] * n
                    else:
                        reports = [features.traffic_for(a) for a in nest_acpd]
                    transfers = []
                    for b in range(n_bounds):
                        volume = lift([reports[p].boundaries[b].total_bytes for p in range(n)]) * wf
                        if b == n_bounds - 1:  # memory boundary
                            frac = lift([
                                reports[p].boundaries[b].latency_exposed_fraction
                                for p in range(n)
                            ])
                            regular = volume * (1.0 - frac)
                            irregular = volume * frac
                            bw = bw_raw * dom_f * bw_share * info.memory_schedule_quality
                            t = regular / bw
                            rate = minimum(features.irr_rate_per_core * t_f, bw)
                            t = t + irregular / rate
                            transfers.append(t * numa_f)
                        else:
                            level = machine.cache_levels[b + 1]
                            per_core = level.bytes_per_cycle_per_core * frequency
                            transfers.append(volume / (per_core * t_f))
                    nest_total = max_terms([cs] + transfers) * features.one_plus_rco
                    memory_s = transfers[-1]
                    kernel = kernel + nest_total
                    nest_rows.append((cs, transfers, memory_s, nest_total, reports))
                if info.parallel:
                    scaling_q = max(info.omp_scaling_quality, 1e-9)
                    omp = omp + lift([
                        omp_region_overhead_s(
                            info.omp_fork_us,
                            info.omp_barrier_us,
                            threads_list[p],
                            bench.barriers_per_invocation,
                        ) / scaling_q if threads_list[p] > 1 else 0.0
                        for p in range(n)
                    ])
            kernel = kernel * compiled.anomaly_multiplier
        if unit.library is not None:
            library = lift([
                library_time_s(
                    unit.library,
                    machine,
                    threads=placements[p].threads,
                    domains=rank_domains_list[p],
                    work_fraction=wf_list[p],
                )
                for p in range(n)
            ])
        unit_total = (kernel + library + omp) * unit.invocations
        total = total + unit_total
        unit_rows.append((
            unit.kernel.name if unit.kernel else "<library>",
            kernel, library, omp, nest_rows, unit.invocations,
        ))

    if batched:
        totals = np.maximum(total, 2e-6).tolist()
    else:
        totals = [max(total, 2e-6)]

    comm = [0.0] * n
    if bench.parallel.uses_mpi:
        for p, placement in enumerate(placements):
            if placement.ranks > 1:
                t_node_work = totals[p] * placement.total_cores_used / machine.total_cores
                comm[p] = bench.mpi.comm_time_s(t_node_work, placement.ranks)
                totals[p] += comm[p]
    times = tuple(totals)
    diag = tuple(diagnostics)

    def build(p: int) -> ModelResult:
        # The compute and memory totals sum the nest terms in the scalar
        # path's order; an eliminated nest adds an exact zero.
        units = []
        compute_total = memory_total = 0.0
        for name, kernel, library, omp, nest_rows, invocations in unit_rows:
            nest_times = tuple(
                NestTime(
                    compute_s=at(cs, p),
                    transfer_s=tuple(at(t, p) for t in transfers),
                    memory_s=at(memory_s, p),
                    total_s=at(nest_total, p),
                    traffic=reports[p],
                )
                for cs, transfers, memory_s, nest_total, reports in nest_rows
            )
            for nest in nest_times:
                compute_total += nest.compute_s * invocations
                memory_total += nest.memory_s * invocations
            units.append(
                UnitBreakdown(
                    kernel_name=name,
                    kernel_s=at(kernel, p) * invocations,
                    library_s=at(library, p) * invocations,
                    omp_overhead_s=at(omp, p) * invocations,
                    nest_times=nest_times,
                )
            )
        return ModelResult(
            benchmark=bench.full_name,
            variant=variant,
            placement=placements[p],
            status=CompileStatus.OK,
            time_s=times[p],
            compute_s=compute_total,
            memory_s=memory_total,
            comm_s=comm[p],
            units=tuple(units),
            diagnostics=diag,
        )

    return PlacementResults(times, CompileStatus.OK, diag, build)


# -- the grid API ---------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """What to evaluate: the model-space analogue of ``CampaignConfig``.

    Selects a (benchmark x variant x placement) grid.  ``placements``
    ``None`` (the default) evaluates each benchmark over its own
    exploration candidates (:func:`repro.harness.exploration.
    placement_candidates`); an explicit tuple applies to every
    benchmark and must satisfy each benchmark's placement constraints.
    """

    #: Machine model or registry name ("a64fx", "xeon", "thunderx2");
    #: ``None`` selects the paper's A64FX node.
    machine: "Machine | str | None" = None
    #: Compiler variants (Figure 2 columns).
    variants: tuple[str, ...] = STUDY_VARIANTS
    #: Suite names to include; ``None`` (with ``benchmarks=None``)
    #: evaluates all seven suites.
    suites: "tuple[str, ...] | None" = None
    #: Individual benchmark full names ("suite.name"); overrides
    #: ``suites`` when set.
    benchmarks: "tuple[str, ...] | None" = None
    #: Placements to cost for every cell; ``None`` uses each
    #: benchmark's exploration candidates.
    placements: "tuple[Placement, ...] | None" = None
    #: Flag override applied to every variant (ablation studies).
    flags: "CompilerFlags | None" = None

    def with_(self, **kwargs: object) -> "GridSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class GridCell:
    """One (benchmark, variant) cell: a model result per placement."""

    benchmark: str
    variant: str
    placements: tuple[Placement, ...]
    results: tuple[ModelResult, ...]

    @property
    def best(self) -> ModelResult:
        """The fastest placement's model (first cell on failed builds)."""
        return min(self.results, key=lambda r: r.time_s)

    @property
    def ranked(self) -> tuple[ModelResult, ...]:
        """All placements, fastest first; ties keep candidate order
        (the exploration phase's first-wins convention)."""
        order = sorted(
            range(len(self.results)), key=lambda i: (self.results[i].time_s, i)
        )
        return tuple(self.results[i] for i in order)


@dataclass(frozen=True)
class GridResult:
    """The evaluated grid, cells in (benchmark-major, variant) order."""

    machine: str
    cells: tuple[GridCell, ...]

    def cell(self, benchmark: str, variant: str) -> GridCell:
        for c in self.cells:
            if c.benchmark == benchmark and c.variant == variant:
                return c
        raise KeyError(f"{benchmark}/{variant}")


def evaluate_grid(spec: "GridSpec | None" = None, **overrides: object) -> GridResult:
    """Evaluate the cost model over a (benchmark x variant x placement)
    grid in one batched pass — no noise, no performance runs, just the
    ideal :class:`~repro.perf.cost.ModelResult` per grid point.

    Accepts a :class:`GridSpec`, keyword overrides on top of one, or
    bare keywords (``evaluate_grid(suites=("polybench",))``).
    """
    spec = spec if spec is not None else GridSpec()
    if overrides:
        spec = spec.with_(**overrides)
    # Late imports: the harness/suites layers import repro.perf.
    from repro.harness.exploration import placement_candidates
    from repro.machine.select import resolve_machine
    from repro.suites.registry import all_benchmarks, get_benchmark, get_suite

    machine = resolve_machine(spec.machine)
    if spec.benchmarks is not None:
        benches = tuple(get_benchmark(name) for name in spec.benchmarks)
    elif spec.suites is not None:
        benches = tuple(
            bench for name in spec.suites for bench in get_suite(name).benchmarks
        )
    else:
        benches = tuple(all_benchmarks())

    cache = CompilationCache()
    cells = []
    for bench in benches:
        for variant in spec.variants:
            placements = (
                spec.placements
                if spec.placements is not None
                else placement_candidates(bench, machine)
            )
            results = evaluate_placements(
                bench, variant, machine, placements, flags=spec.flags, cache=cache
            )
            cells.append(
                GridCell(bench.full_name, variant, tuple(placements), tuple(results))
            )
    return GridResult(machine.name, tuple(cells))
