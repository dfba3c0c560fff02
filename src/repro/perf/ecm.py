"""Execution-Cache-Memory (ECM) style cost model.

Combines, for one compiled nest on one machine:

* **in-core execution time** — FP/integer/branch instruction streams
  through the port model of :class:`repro.machine.core.CoreModel`,
  scaled by the codegen annotations (vector width and efficiency, FMA
  contraction, gathers, unrolling vs. out-of-order quality, scalar
  code quality);
* **data transfer time** — the per-boundary byte volumes from
  :mod:`repro.perf.traffic` over the level bandwidths, with the
  latency-exposed fraction of memory traffic rated at a
  concurrency-limited rate instead of the bandwidth limit.

The nest time is the ECM-style max of the compute and transfer times
(modern cores overlap them), inflated by runtime-check overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compilers.base import CodegenNestInfo
from repro.ir.statement import OpCount
from repro.machine.machine import Machine
from repro.perf.traffic import TrafficReport, nest_traffic


@dataclass(frozen=True)
class NestTime:
    """Timing breakdown for one execution of one nest."""

    compute_s: float
    transfer_s: tuple[float, ...]  # per boundary, L1<->L2 first
    memory_s: float  # the last boundary (DRAM/HBM), for reports
    total_s: float
    traffic: TrafficReport

    @property
    def bound(self) -> str:
        """"compute" or "memory" — which side dominates."""
        slowest_transfer = max(self.transfer_s, default=0.0)
        return "compute" if self.compute_s >= slowest_transfer else "memory"


def _body_ops(info: CodegenNestInfo) -> OpCount:
    total = OpCount()
    for stmt in info.nest.body:
        total = total + stmt.ops
    return total


def cycles_per_iteration(info: CodegenNestInfo, machine: Machine) -> float:
    """In-core cycles per innermost iteration point of the nest."""
    core = machine.core
    ops = _body_ops(info)

    lanes = info.vec_lanes if info.vectorized else 1
    vec_eff = info.vec_efficiency if info.vectorized else 1.0

    # --- FP pipeline ------------------------------------------------------
    fp_instr = (
        ops.fp_instructions if info.fma_contracted else ops.fp_instructions_uncontracted
    )
    fp_simple = max(0.0, fp_instr - ops.fdiv - ops.fsqrt - ops.fspecial)
    fp_cycles = fp_simple / (lanes * core.fp_pipes * vec_eff) if fp_simple else 0.0
    # Divide/sqrt/special are unpipelined-ish.  The per-op latencies in
    # the core model are quoted for a full native-width vector; narrower
    # (in particular scalar) versions are faster, roughly with the
    # square root of the width ratio.
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

    # --- load/store issue --------------------------------------------------
    n_loads = sum(1 for a in info.nest.accesses if a.kind.reads)
    n_stores = sum(1 for a in info.nest.accesses if a.kind.writes)
    ls_cycles = (
        n_loads / (lanes * core.load_ports) + n_stores / (lanes * core.store_ports)
    ) / max(vec_eff, 1e-9) if (n_loads or n_stores) else 0.0
    # Gathers serialize element by element.
    if info.uses_gather:
        n_indirect = sum(1 for a in info.nest.accesses if a.indirect)
        ls_cycles += n_indirect * info.vector_isa.gather_cost_per_element

    # --- integer / branch --------------------------------------------------
    int_cycles = ops.iops / (core.int_pipes * (lanes if info.vectorized else 1))
    branch_cycles = ops.branches * (1.0 + 0.05 * core.branch_miss_penalty)

    cycles = max(fp_cycles, ls_cycles) + int_cycles + branch_cycles

    # --- scheduling quality -----------------------------------------------
    # Vector streams are easy to schedule; scalar dependency chains
    # expose the core's OoO depth, partially recovered by unrolling.
    if info.vectorized:
        sched = min(1.0, 0.25 + 0.75 * core.ooo_quality + 0.05 * math.log2(max(info.unroll_factor, 1)))
    else:
        sched = min(1.0, core.ooo_quality + 0.07 * math.log2(max(info.unroll_factor, 1)))
        cycles /= max(info.scalar_quality, 1e-9)
    cycles /= max(sched, 1e-9)

    # Loop control overhead (decrement/compare/branch per iteration,
    # amortized by unrolling and vector width).
    cycles += 1.0 / (max(info.unroll_factor, 1) * lanes)

    return cycles


def irregular_rate_per_core(info: CodegenNestInfo, machine: Machine) -> float:
    """Bytes/s one core moves on the nest's latency-bound memory streams."""
    # Concurrency-limited: outstanding lines per core set by the
    # hardware MSHRs plus software prefetch coverage — unless each
    # miss's address depends on the previous one (dependent-load
    # chains), which serializes everything.
    if info.latency_serialized:
        concurrency = 1.3
    else:
        prefetch = max(info.sw_prefetch, machine.hw_prefetch_quality * 0.3)
        concurrency = 4.0 + 28.0 * prefetch
    # Scattered streams also miss the TLB; huge pages (-Klargepage)
    # remove the page-walk latency add-on.
    latency = machine.memory.latency
    if not info.large_pages:
        latency *= 1.0 + 12e-9 / machine.memory.latency * (
            65536 / max(machine.base_page_bytes, 4096)
        ) * 0.25
    return machine.memory.latency_bound_rate(
        concurrency, machine.line_bytes, latency=latency
    )


def nest_time(
    info: CodegenNestInfo,
    machine: Machine,
    *,
    threads: int = 1,
    active_cores_per_domain: int | None = None,
    domains: int = 1,
    work_fraction: float = 1.0,
    bandwidth_share: float = 1.0,
    numa_penalty: float = 1.0,
) -> NestTime:
    """Wall-clock model for one execution of a compiled nest.

    ``threads`` — cores working on this nest (1 for serial nests);
    ``domains`` — NUMA domains those cores span;
    ``work_fraction`` — this rank's share of the nest's iteration space
    (strong scaling across MPI ranks);
    ``bandwidth_share`` — fraction of the spanned domains' memory
    bandwidth available to this rank (ranks co-located on a domain
    split it);
    ``numa_penalty`` — multiplier (>= 1) on memory-transfer time when a
    rank's threads straddle NUMA domains (first-touch pages remote to
    most threads).
    """
    if info.eliminated:
        empty = nest_traffic(info, machine)
        return NestTime(0.0, (0.0,) * len(empty.boundaries), 0.0, 0.0, empty)

    threads = max(1, threads)
    if active_cores_per_domain is None:
        active_cores_per_domain = max(1, threads // max(domains, 1))

    iterations = info.nest.iterations * work_fraction
    cpi = cycles_per_iteration(info, machine)
    compute_s = iterations * cpi / machine.core.frequency_hz / threads

    traffic = nest_traffic(info, machine, active_cores_per_domain)
    transfer: list[float] = []
    for idx, boundary in enumerate(traffic.boundaries):
        volume = boundary.total_bytes * work_fraction
        if boundary.source == "memory":
            regular = volume * (1.0 - boundary.latency_exposed_fraction)
            irregular = volume * boundary.latency_exposed_fraction
            bw = (
                machine.memory.bandwidth(active_cores_per_domain)
                * domains
                * bandwidth_share
                * info.memory_schedule_quality
            )
            t = regular / bw if regular else 0.0
            if irregular:
                rate = min(irregular_rate_per_core(info, machine) * threads, bw)
                t += irregular / rate
            transfer.append(t * numa_penalty)
        else:
            level = machine.cache_levels[idx + 1]
            per_core = level.bytes_per_cycle_per_core * machine.core.frequency_hz
            transfer.append(volume / (per_core * threads))

    total = max([compute_s] + transfer) * (1.0 + info.runtime_check_overhead)
    return NestTime(
        compute_s=compute_s,
        transfer_s=tuple(transfer),
        memory_s=transfer[-1] if transfer else 0.0,
        total_s=total,
        traffic=traffic,
    )
