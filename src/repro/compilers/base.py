"""Compiler-model core: codegen annotations, pass framework, driver.

A *compiler model* is a pipeline of passes over each loop nest of a
kernel.  Passes perform **real transformations** (interchange decided by
dependence legality + a stride cost model, vectorization gated by the
legality analysis of :mod:`repro.ir.dependence`) and record **codegen
annotations** in :class:`CodegenNestInfo`, which the performance model
(:mod:`repro.perf`) later costs on a machine model.

What differs between the five study variants is *capability*, encoded
in :class:`~repro.compilers.quirks.CompilerCapabilities` tables: which
transformations each compiler attempts, per-language codegen quality,
OpenMP runtime costs, and the small set of empirical anomalies
(compile errors, runtime faults, dead-code-elimination incidents) the
paper's Figure 2 reports.
"""

from __future__ import annotations

import enum
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from repro import telemetry

from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.ir.types import DType, Language
from repro.machine.isa import SCALAR, VectorISA
from repro.machine.machine import Machine

from repro.compilers.flags import CompilerFlags
from repro.compilers.quirks import CompilerCapabilities


class CompileStatus(enum.Enum):
    """Outcome of building one kernel (Figure 2 reports failures as data)."""

    OK = "ok"
    #: The toolchain rejected/crashed on the code ("compiler error").
    COMPILE_ERROR = "compile-error"
    #: The build succeeded but the binary is miscompiled and faults when
    #: run ("runtime error" cells — GNU produced six of these on the
    #: micro kernels).
    RUNTIME_FAULT = "runtime-fault"


@dataclass
class CodegenNestInfo:
    """Codegen annotations for one (possibly transformed) loop nest."""

    nest: LoopNest
    #: Vector ISA the loop body was emitted for (SCALAR if unvectorized).
    vector_isa: VectorISA = SCALAR
    vectorized: bool = False
    #: SIMD lanes at the nest's dominant element type.
    vec_lanes: int = 1
    #: Multiplier in (0, 1] on vector throughput: predication overhead,
    #: unaligned accesses, remainder epilogues, codegen quality.
    vec_efficiency: float = 1.0
    #: Vector body uses gather/scatter for some streams.
    uses_gather: bool = False
    #: Multiply+add pairs contracted to FMAs.
    fma_contracted: bool = True
    unroll_factor: int = 1
    #: Quality in [0, 1] of software prefetching inserted for this nest.
    sw_prefetch: float = 0.0
    #: After tiling: bytes of the per-tile working set the traffic model
    #: should use instead of the loop-level working sets (None = untiled).
    tile_working_set: int | None = None
    #: Nest was outlined for OpenMP and runs multi-threaded.
    parallel: bool = False
    #: OpenMP runtime costs (set by the OpenMP pass from the variant's
    #: runtime library) in microseconds at the reference 12 threads.
    omp_fork_us: float = 0.0
    omp_barrier_us: float = 0.0
    #: Thread affinity/scheduling quality of the OpenMP runtime, (0, 1].
    omp_scaling_quality: float = 1.0
    #: Fraction of runtime added by runtime alias checks/multiversioning.
    runtime_check_overhead: float = 0.0
    #: Multiplier in (0, 1] on scalar instruction throughput (register
    #: allocation, scheduling, addressing-mode quality).
    scalar_quality: float = 1.0
    #: Vector math library quality in (0, 1]: throughput multiplier for
    #: exp/log/trig/pow calls (SSL2/SVML vs. plain libm).
    math_library_quality: float = 1.0
    #: The whole nest was removed as dead code.
    eliminated: bool = False
    #: Stores bypass the cache without read-for-ownership.
    streaming_stores: bool = False
    #: Multiplier in (0, 1] applied to achievable memory bandwidth for
    #: this nest (quality of the generated load/store/prefetch schedule;
    #: calibrated from the BabelStream deltas).
    memory_schedule_quality: float = 1.0
    #: Irregular traffic is a dependent-load chain: memory-level
    #: parallelism collapses to ~1 outstanding miss regardless of
    #: prefetching (pointer chasing, binary search).
    latency_serialized: bool = False
    #: Binary was linked for large/huge pages (-Klargepage): TLB misses
    #: stop inflating the latency of scattered access streams.
    large_pages: bool = False
    #: Names of the passes that changed this nest, for reports.
    applied_passes: tuple[str, ...] = ()

    def mark(self, pass_name: str) -> None:
        self.applied_passes = self.applied_passes + (pass_name,)

    @property
    def dominant_dtype(self) -> DType:
        """Element type that dominates the nest's data traffic."""
        best: tuple[int, DType] | None = None
        for acc in self.nest.accesses:
            size = acc.array.nbytes
            if best is None or size > best[0]:
                best = (size, acc.array.dtype)
        return best[1] if best else DType.F64


@dataclass(frozen=True)
class CompiledKernel:
    """The result of compiling one kernel with one compiler variant."""

    kernel: Kernel
    nest_infos: tuple[CodegenNestInfo, ...]
    compiler: str
    flags: CompilerFlags
    status: CompileStatus = CompileStatus.OK
    diagnostics: tuple[str, ...] = ()
    #: Empirical Figure 2 outlier correction (see quirks.py); the cost
    #: model multiplies the kernel's time by this.
    anomaly_multiplier: float = 1.0
    #: Static-analysis findings for the source kernel (the pre-compile
    #: lint pass; see :mod:`repro.staticanalysis`).  Variant-independent:
    #: the same kernel lints identically under every compiler.
    lint: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status is CompileStatus.OK

    def info_for(self, nest: LoopNest) -> CodegenNestInfo:
        for info in self.nest_infos:
            if info.nest.label == nest.label:
                return info
        raise KeyError(f"no codegen info for nest {nest.label!r}")


@dataclass
class PassContext:
    """Everything a pass may consult."""

    machine: Machine
    flags: CompilerFlags
    caps: CompilerCapabilities
    language: Language
    kernel: Kernel


class Pass(ABC):
    """One transformation/annotation stage of a compiler pipeline."""

    #: Short identifier recorded in ``applied_passes``.
    name: str = "pass"

    @abstractmethod
    def run(self, info: CodegenNestInfo, ctx: PassContext) -> None:
        """Inspect/transform ``info`` in place."""


class Compiler(ABC):
    """A compiler variant: capabilities + a pass pipeline."""

    #: Variant name as it appears in the paper's Figure 2 column header.
    variant: str = "base"

    def __init__(self, caps: CompilerCapabilities) -> None:
        self.caps = caps

    @abstractmethod
    def pipeline(self, ctx: PassContext) -> list[Pass]:
        """The ordered pass list for one compilation."""

    @abstractmethod
    def default_flags(self) -> CompilerFlags:
        """The paper's recommended flags for this variant."""

    # -- driver ----------------------------------------------------------

    def compile(
        self,
        kernel: Kernel,
        machine: Machine,
        flags: CompilerFlags | None = None,
    ) -> CompiledKernel:
        """Run the pipeline over every nest of ``kernel``.

        Traced as a ``compile`` span (nested under the cell's
        ``explore``/``simulate`` spans when telemetry is active) with a
        compile-time histogram and success/failure counters.
        """
        # Pre-compile static analysis: variant-independent findings,
        # attached to the artifact so downstream consumers (campaign
        # lint gate, reports) see them next to the codegen outcome.
        # Late import: the OPT010 rule reaches back into the pass layer.
        from repro.staticanalysis.driver import analyze_kernel_cached

        lint = analyze_kernel_cached(kernel, machine)
        t0 = time.monotonic()
        with telemetry.span("compile", kernel=kernel.name, variant=self.variant):
            compiled = replace(self._compile(kernel, machine, flags), lint=lint)
        telemetry.observe("compile.time_s", time.monotonic() - t0)
        telemetry.count("compile.count")
        if compiled.status is not CompileStatus.OK:
            telemetry.count("compile.failed")
        return compiled

    def _compile(
        self,
        kernel: Kernel,
        machine: Machine,
        flags: CompilerFlags | None,
    ) -> CompiledKernel:
        flags = flags if flags is not None else self.default_flags()
        diagnostics: list[str] = []

        if kernel.name in self.caps.compile_error_kernels:
            return CompiledKernel(
                kernel=kernel,
                nest_infos=(),
                compiler=self.variant,
                flags=flags,
                status=CompileStatus.COMPILE_ERROR,
                diagnostics=(f"{self.variant}: internal compiler error on {kernel.name}",),
            )

        ctx = PassContext(
            machine=machine,
            flags=flags,
            caps=self.caps,
            language=kernel.language,
            kernel=kernel,
        )
        # Kernel-level prepass: loop fusion rewrites the nest list for
        # capability-enabled variants before the per-nest pipeline.
        from repro.compilers.passes.fusion import fuse_kernel

        kernel_opt = fuse_kernel(kernel, ctx)
        ctx.kernel = kernel_opt
        passes = self.pipeline(ctx)
        infos: list[CodegenNestInfo] = []
        for nest in kernel_opt.nests:
            info = CodegenNestInfo(nest=nest)
            for p in passes:
                p.run(info, ctx)
            infos.append(info)

        status = CompileStatus.OK
        if kernel.name in self.caps.runtime_fault_kernels:
            status = CompileStatus.RUNTIME_FAULT
            diagnostics.append(
                f"{self.variant}: miscompiled {kernel.name} (faults at runtime)"
            )

        multiplier = self.caps.kernel_multipliers.get(kernel.name, 1.0)
        if flags.polly:
            multiplier *= self.caps.polly_kernel_multipliers.get(kernel.name, 1.0)
        return CompiledKernel(
            kernel=kernel,
            nest_infos=tuple(infos),
            compiler=self.variant,
            flags=flags,
            status=status,
            diagnostics=tuple(diagnostics),
            anomaly_multiplier=multiplier,
        )
