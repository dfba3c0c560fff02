"""Energy-to-solution model (extension).

The paper's introduction frames A64FX through TOP500 *and Green500*
submissions; this module extends the performance model with a simple
power model so compiler choice can be studied in joules as well as
seconds (a slower binary on the same node burns proportionally more
energy — compiler choice is an energy lever, which is the Green500
subtext of the study).

Node power is modelled as

    P = P_idle + P_core * busy_cores * util_compute + P_bw * BW_drawn

with per-machine constants calibrated so the A64FX node lands near
Fugaku's Green500 operating point (~180 W and ~15 GF/W during HPL).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compilers.flags import CompilerFlags
from repro.errors import MachineConfigError
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.batch import evaluate_placements
from repro.perf.cost import CompilationCache
from repro.suites.base import Benchmark


@dataclass(frozen=True)
class PowerModel:
    """Node-level power constants."""

    machine: str
    #: Watts with the node idle (memory refresh, uncore, fans share).
    idle_w: float
    #: Watts per busy core at full arithmetic utilization.
    core_w: float
    #: Watts per GB/s of sustained memory traffic.
    bw_w_per_gbs: float

    def __post_init__(self) -> None:
        if min(self.idle_w, self.core_w, self.bw_w_per_gbs) < 0:
            raise MachineConfigError("power constants must be non-negative")


#: Calibrated per-machine power models.
POWER_MODELS: dict[str, PowerModel] = {
    # Fugaku node: Green500 gives ~15 GF/W at ~2.8 TF/s HPL -> ~180 W.
    "A64FX": PowerModel("A64FX", idle_w=60.0, core_w=2.2, bw_w_per_gbs=0.10),
    "Xeon": PowerModel("Xeon", idle_w=90.0, core_w=8.5, bw_w_per_gbs=0.25),
    "ThunderX2": PowerModel("ThunderX2", idle_w=80.0, core_w=4.5, bw_w_per_gbs=0.30),
}


@dataclass(frozen=True)
class EnergyReport:
    """Energy analysis of one benchmark run."""

    benchmark: str
    variant: str
    time_s: float
    avg_power_w: float
    energy_j: float
    gflops_per_w: float

    def __str__(self) -> str:
        return (
            f"{self.benchmark} [{self.variant}]: {self.time_s:.3f} s at "
            f"{self.avg_power_w:.0f} W -> {self.energy_j / 1e3:.2f} kJ "
            f"({self.gflops_per_w:.1f} GF/W)"
        )


def power_model_for(machine: Machine) -> PowerModel:
    try:
        return POWER_MODELS[machine.name]
    except KeyError:
        raise MachineConfigError(f"no power model for machine {machine.name!r}") from None


def benchmark_energy(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placement: Placement,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> EnergyReport:
    """Energy-to-solution for one benchmark/variant/placement."""
    pm = power_model_for(machine)
    result = evaluate_placements(
        bench, variant, machine, (placement,), flags=flags, cache=cache
    )[0]
    if not result.valid or result.time_s <= 0:
        return EnergyReport(bench.full_name, variant, float("inf"), pm.idle_w, float("inf"), 0.0)

    busy_cores = placement.total_cores_used
    # Compute utilization: fraction of wall time the cores execute
    # arithmetic rather than stalling on memory; opaque library time
    # (SSL2 DGEMM) counts as arithmetic.
    library_s = sum(u.library_s for u in result.units)
    util = min(1.0, (result.compute_s + library_s) / result.time_s) if result.time_s else 0.0
    # Average drawn bandwidth over the run.
    total_flops = sum(
        (u.kernel.total_flops() if u.kernel is not None else (u.library.flops if u.library else 0.0))
        * u.invocations
        for u in bench.units
    )
    mem_bytes_per_s = 0.0
    if result.time_s > 0 and result.memory_s > 0:
        bw_cap = machine.memory.sustained_bandwidth * machine.topology.numa_domains
        mem_bytes_per_s = min(bw_cap, bw_cap * result.memory_s / result.time_s)

    avg_power = (
        pm.idle_w
        + pm.core_w * busy_cores * max(util, 0.15)  # clock/leakage floor
        + pm.bw_w_per_gbs * mem_bytes_per_s / 1e9
    )
    energy = avg_power * result.time_s
    gfpw = (total_flops / result.time_s / 1e9) / avg_power if avg_power > 0 else 0.0
    return EnergyReport(
        benchmark=bench.full_name,
        variant=variant,
        time_s=result.time_s,
        avg_power_w=avg_power,
        energy_j=energy,
        gflops_per_w=gfpw,
    )
