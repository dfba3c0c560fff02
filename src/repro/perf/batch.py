"""Vectorized grid evaluation: batched ECM costing across placements.

The campaign's result is a (benchmark x variant x placement) grid, and
the scalar path (:func:`repro.perf.cost.benchmark_model`) re-derives
every per-nest quantity — op counts, working-set profiles, boundary
traffic — once *per placement*, although almost all of it only depends
on the (kernel, machine) pair.  This module splits the evaluation into
the two natural halves:

* **feature extraction** (:class:`NestFeatures`) — one pass per
  (compiled nest, machine): op counts, trip counts, the line-granular
  working-set profile, and a traffic table keyed by layer-condition fit
  depth, computed with the exact per-access loop of
  :mod:`repro.perf.traffic` once per distinct (nest, tiling,
  streaming-store, line size) content and shared across variants;
* **batched evaluation** (:func:`evaluate_placements`) — the
  `cycles_per_iteration`/`nest_time` arithmetic and the
  scaling/NUMA/OMP corrections applied across *all* placements of a
  cell at once, as numpy elementwise array ops when the placement axis
  is wide (a single placement short-circuits to plain floats — the
  same IEEE-754 operations without array overhead).

Bit-identity with the scalar oracle is a hard contract: every formula
below replays the scalar path's operation order (numpy elementwise
``+ - * / min max`` on float64 are IEEE-identical per element; sums
stay sequential in scalar order; transcendentals stay in :mod:`math`),
so ``evaluate_placements(...)[i] == benchmark_model(..., placements[i])``
exactly, including failed-build ``inf`` cells and diagnostics order.
``tests/perf/test_batch.py`` sweeps the full default grid to enforce
this.

In front of the evaluator sits the redesigned grid API —
:class:`GridSpec` / :func:`evaluate_grid` — re-exported from
:mod:`repro.api` as the single entry point for model-space sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from repro.compilers.base import CodegenNestInfo, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError
from repro.ir.loop import LoopNest
from repro.ir.types import AccessKind
from repro.libs.mathlib import library_time_s
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.memo import ContentMemo, IdentityMemo
from repro.perf.cost import (
    CompilationCache,
    ModelResult,
    UnitBreakdown,
    _rank_geometry,
    machine_memo_key,
)
from repro.perf.ecm import NestTime, _body_ops
from repro.perf.scaling import numa_spill_penalty, omp_region_overhead_s
from repro.perf.traffic import (
    BoundaryTraffic,
    TrafficReport,
    _bytes_per_distinct_element,
    _fit_depth,
    _misses_beyond,
    _resident_ws_profile,
)
from repro.suites.base import Benchmark, ParallelKind, ScalingKind

__all__ = [
    "GridCell",
    "GridResult",
    "GridSpec",
    "NestFeatures",
    "evaluate_grid",
    "evaluate_placements",
    "nest_features",
]


# -- feature extraction ---------------------------------------------------


# Traffic rows per (fit depth, source-is-memory), aggregated with the
# exact per-access loop of repro.perf.traffic.nest_traffic.  The
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

    block_factor = 1.0
    if tile_working_set is not None and ws_profile[0] > tile_working_set:
        n_arrays = max(1, len(nest.arrays))
        elem = 8
        side = math.sqrt(tile_working_set / (elem * n_arrays))
        block_factor = max(1.0, side)

    rows: dict[tuple[int, bool], tuple[float, float, float]] = {}
    for fit in range(nest.depth + 1):
        captured_vars = frozenset(l.var for l in nest.loops[max(fit - 1, 0):])
        per_access = []
        for acc in nest.accesses:
            fetch_bytes_per_element = _bytes_per_distinct_element(acc, captured_vars, line)
            misses = _misses_beyond(acc, nest, fit, trips, block_factor)
            volume = misses * fetch_bytes_per_element
            irregular = acc.indirect or fetch_bytes_per_element >= line
            per_access.append((acc.kind, volume, irregular))
        for is_memory in (False, True):
            read_bytes = 0.0
            write_bytes = 0.0
            irregular_bytes = 0.0
            for kind, volume, irregular in per_access:
                if kind is AccessKind.READ:
                    read_bytes += volume
                    if irregular:
                        irregular_bytes += volume
                elif kind is AccessKind.WRITE:
                    write_bytes += volume
                    if is_memory and not streaming_stores:
                        read_bytes += volume
                else:  # UPDATE: read-modify-write
                    read_bytes += volume
                    write_bytes += volume
                    if irregular:
                        irregular_bytes += volume
            frac = irregular_bytes / read_bytes if read_bytes > 0 else 0.0
            rows[(fit, is_memory)] = (read_bytes, write_bytes, min(1.0, frac))
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
    depend on the placement: in-core cycles per iteration (from the op
    counts), the working-set profile, and per-fit-depth traffic rows
    aggregated with the scalar model's per-access loop.  Evaluating one
    placement then reduces to ``effective_capacity -> fit depth ->
    table row`` plus a handful of float ops.
    """

    __slots__ = (
        "info",
        "machine",
        "iterations",
        "trip_counts",
        "n_loads",
        "n_stores",
        "n_indirect",
        "eliminated",
        "empty",
        "cpi",
        "ws_profile",
        "rows",
        "irr_rate_per_core",
        "one_plus_rco",
        "_empty_report",
        "_traffic_memo",
    )

    def __init__(self, info: CodegenNestInfo, machine: Machine) -> None:
        self.info = info
        self.machine = machine
        nest = info.nest
        self.iterations = nest.iterations
        self.trip_counts = tuple(l.trip_count for l in nest.loops)
        self.n_loads = sum(1 for a in nest.accesses if a.kind.reads)
        self.n_stores = sum(1 for a in nest.accesses if a.kind.writes)
        self.n_indirect = sum(1 for a in nest.accesses if a.indirect)
        self.eliminated = info.eliminated
        self.empty = info.eliminated or nest.iterations == 0
        self.one_plus_rco = 1.0 + info.runtime_check_overhead
        self._traffic_memo: dict[int, TrafficReport] = {}

        names = [lvl.name for lvl in machine.cache_levels[1:]] + ["memory"]
        self._empty_report = TrafficReport(
            tuple(BoundaryTraffic(name, 0.0, 0.0) for name in names)
        )
        if self.eliminated:
            # The scalar path never costs an eliminated nest; keep the
            # extractor from touching annotations it may not have.
            self.cpi = 0.0
            self.ws_profile = ()
            self.rows = {}
            self.irr_rate_per_core = 0.0
            return

        self.cpi = self._cycles_per_iteration(_body_ops(info))
        if self.empty:
            self.ws_profile = ()
            self.rows = {}
        else:
            self.ws_profile, self.rows = _traffic_table(info, machine.line_bytes)

        # Irregular (latency-bound) stream rate per core: placement
        # independent.  The line size comes from the machine model via
        # MemorySystem.latency_bound_rate — one geometry source for the
        # batch and scalar paths.
        if info.latency_serialized:
            concurrency = 1.3
        else:
            prefetch = max(info.sw_prefetch, machine.hw_prefetch_quality * 0.3)
            concurrency = 4.0 + 28.0 * prefetch
        latency = machine.memory.latency
        if not info.large_pages:
            latency *= 1.0 + 12e-9 / machine.memory.latency * (
                65536 / max(machine.base_page_bytes, 4096)
            ) * 0.25
        self.irr_rate_per_core = machine.memory.latency_bound_rate(
            concurrency, machine.line_bytes, latency=latency
        )

    # The in-core model, evaluated once from the extracted op counts.
    # Operation-for-operation the same arithmetic as
    # repro.perf.ecm.cycles_per_iteration (the differential tests hold
    # the two implementations together).
    def _cycles_per_iteration(self, ops) -> float:
        info, machine = self.info, self.machine
        core = machine.core

        lanes = info.vec_lanes if info.vectorized else 1
        vec_eff = info.vec_efficiency if info.vectorized else 1.0

        fp_instr = (
            ops.fp_instructions if info.fma_contracted else ops.fp_instructions_uncontracted
        )
        fp_simple = max(0.0, fp_instr - ops.fdiv - ops.fsqrt - ops.fspecial)
        fp_cycles = fp_simple / (lanes * core.fp_pipes * vec_eff) if fp_simple else 0.0
        dtype = info.dominant_dtype
        width_ratio = min(1.0, (lanes * dtype.size * 8) / core.fp_pipe_bits)
        slow_scale = math.sqrt(width_ratio)
        fp_cycles += ops.fdiv * core.fdiv_cycles * slow_scale / lanes
        fp_cycles += ops.fsqrt * core.fsqrt_cycles * slow_scale / lanes
        fp_cycles += (
            ops.fspecial
            * core.fspecial_cycles
            * slow_scale
            / (lanes * max(info.math_library_quality, 1e-9))
        )

        n_loads, n_stores = self.n_loads, self.n_stores
        ls_cycles = (
            n_loads / (lanes * core.load_ports) + n_stores / (lanes * core.store_ports)
        ) / max(vec_eff, 1e-9) if (n_loads or n_stores) else 0.0
        if info.uses_gather:
            ls_cycles += self.n_indirect * info.vector_isa.gather_cost_per_element

        int_cycles = ops.iops / (core.int_pipes * (lanes if info.vectorized else 1))
        branch_cycles = ops.branches * (1.0 + 0.05 * core.branch_miss_penalty)

        cycles = max(fp_cycles, ls_cycles) + int_cycles + branch_cycles

        if info.vectorized:
            sched = min(1.0, 0.25 + 0.75 * core.ooo_quality + 0.05 * math.log2(max(info.unroll_factor, 1)))
        else:
            sched = min(1.0, core.ooo_quality + 0.07 * math.log2(max(info.unroll_factor, 1)))
            cycles /= max(info.scalar_quality, 1e-9)
        cycles /= max(sched, 1e-9)

        cycles += 1.0 / (max(info.unroll_factor, 1) * lanes)
        return cycles

    def traffic_for(self, active_cores_per_domain: int) -> TrafficReport:
        """The nest's traffic report for one active-core count (memoized)."""
        report = self._traffic_memo.get(active_cores_per_domain)
        if report is not None:
            return report
        if self.empty:
            report = self._empty_report
        else:
            machine = self.machine
            boundaries = []
            n_levels = len(machine.cache_levels)
            for idx, level in enumerate(machine.cache_levels):
                capacity = level.effective_capacity(active_cores_per_domain)
                fit = _fit_depth(self.ws_profile, capacity)
                is_memory = idx + 1 >= n_levels
                source = "memory" if is_memory else machine.cache_levels[idx + 1].name
                read_bytes, write_bytes, frac = self.rows[(fit, is_memory)]
                boundaries.append(BoundaryTraffic(source, read_bytes, write_bytes, frac))
            report = TrafficReport(tuple(boundaries))
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


def evaluate_placements(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placements: "tuple[Placement, ...] | list[Placement]",
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> tuple[ModelResult, ...]:
    """Cost one (benchmark, variant) cell under many placements at once.

    Returns one :class:`~repro.perf.cost.ModelResult` per placement,
    each bit-identical to ``benchmark_model(bench, variant, machine,
    placement, ...)`` — the scalar oracle.  Kernels compile once (not
    once per placement), nest features extract once, and the remaining
    per-placement arithmetic runs as numpy elementwise operations over
    the placement axis.

    Raises :class:`~repro.errors.HarnessError` on the first placement
    (in order) the benchmark's constraints reject, exactly where a
    scalar loop over the placements would have raised.
    """
    placements = tuple(placements)
    if not placements:
        return ()
    for placement in placements:
        if bench.parallel is ParallelKind.SERIAL and placement.total_cores_used > 1:
            raise HarnessError(f"{bench.full_name} is serial; placement {placement} invalid")
        if not bench.parallel.uses_mpi and placement.ranks > 1:
            raise HarnessError(f"{bench.full_name} has no MPI; placement {placement} invalid")
        if bench.pow2_ranks and placement.ranks & (placement.ranks - 1):
            raise HarnessError(f"{bench.full_name} requires power-of-two ranks")

    cache = cache if cache is not None else CompilationCache()
    topo = machine.topology
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

    # Per-placement geometry, via the same helpers as the scalar path.
    threads_list: list[int] = []
    rank_domains_list: list[int] = []
    bw_share_list: list[float] = []
    wf_list: list[float] = []
    acpd_list: list[int] = []
    spill_list: list[float] = []
    for placement in placements:
        threads, rank_domains, bw_share = _rank_geometry(bench, machine, placement)
        work_fraction = (
            1.0 / placement.ranks
            if bench.parallel.uses_mpi and bench.scaling is ScalingKind.STRONG
            else 1.0
        )
        domains_used = placement.domains_used(topo)
        acpd = max(1, min(
            topo.cores_per_domain,
            -(-placement.total_cores_used // domains_used),
        ))
        threads_list.append(threads)
        rank_domains_list.append(rank_domains)
        bw_share_list.append(bw_share)
        wf_list.append(work_fraction)
        acpd_list.append(acpd)
        spill_list.append(numa_spill_penalty(placement, topo))

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
                return tuple(
                    ModelResult(
                        benchmark=bench.full_name,
                        variant=variant,
                        placement=placement,
                        status=compiled.status,
                        time_s=float("inf"),
                        diagnostics=tuple(diagnostics),
                    )
                    for placement in placements
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
    compute_total = 0.0 if not batched else np.zeros(n)
    memory_total = 0.0 if not batched else np.zeros(n)
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
                    compute_total = compute_total + cs * unit.invocations
                    memory_total = memory_total + memory_s * unit.invocations
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
        total = np.maximum(total, 2e-6)
    else:
        total = max(total, 2e-6)

    totals = [at(total, p) for p in range(n)]
    comm = [0.0] * n
    if bench.parallel.uses_mpi:
        for p, placement in enumerate(placements):
            if placement.ranks > 1:
                t_node_work = totals[p] * placement.total_cores_used / machine.total_cores
                comm[p] = bench.mpi.comm_time_s(t_node_work, placement.ranks)
                totals[p] += comm[p]

    diag = tuple(diagnostics)
    results = []
    for p, placement in enumerate(placements):
        units = []
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
            units.append(
                UnitBreakdown(
                    kernel_name=name,
                    kernel_s=at(kernel, p) * invocations,
                    library_s=at(library, p) * invocations,
                    omp_overhead_s=at(omp, p) * invocations,
                    nest_times=nest_times,
                )
            )
        results.append(
            ModelResult(
                benchmark=bench.full_name,
                variant=variant,
                placement=placement,
                status=CompileStatus.OK,
                time_s=totals[p],
                compute_s=at(compute_total, p),
                memory_s=at(memory_total, p),
                comm_s=comm[p],
                units=tuple(units),
                diagnostics=diag,
            )
        )
    return tuple(results)


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
                GridCell(bench.full_name, variant, tuple(placements), results)
            )
    return GridResult(machine.name, tuple(cells))
