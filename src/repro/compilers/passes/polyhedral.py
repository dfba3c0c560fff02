"""The Polly model: polyhedral rescheduling and tiling of SCoPs.

Polly (LLVM's polyhedral optimizer, enabled by ``-mllvm -polly``) only
operates on *static control parts*: loop nests with affine bounds and
subscripts and no data-dependent control flow.  That gate — checked for
real by :func:`repro.ir.analysis.is_scop` — is why the paper finds
Polly transformative on PolyBench but "rarely applicable or beneficial"
on production codes, which are full of indirect accesses, calls, and
irregular control.

On a SCoP, the model performs:

* **optimal loop permutation** — unconstrained by the frontend language
  (Polly works on LLVM-IR), using the same stride cost model as the
  plain interchange pass;
* **cache tiling** — when the nest carries enough temporal reuse, the
  per-tile working set is pinned to half of L1-adjacent L2 capacity,
  which is how the traffic model sees the improved locality;
* a small **multiversioning overhead** for the runtime context checks
  Polly emits.
"""

from __future__ import annotations

import itertools

from repro.compilers.base import CodegenNestInfo, Pass, PassContext
from repro.compilers.passes.interchange import _fixed_prefix, stride_cost
from repro.ir.analysis import is_scop, nest_is_static_control, reuse_potential
from repro.ir.dependence import nest_dependences, permutation_legal

#: Minimum temporal-reuse score for tiling to be considered profitable.
_TILING_REUSE_THRESHOLD = 0.5

#: Fractional runtime cost of Polly's runtime context/alias versioning.
_VERSIONING_OVERHEAD = 0.02


class PolyhedralPass(Pass):
    """Reschedule and tile static control parts."""

    name = "polly"

    def run(self, info: CodegenNestInfo, ctx: PassContext) -> None:
        if info.eliminated:
            return
        if not (ctx.caps.polyhedral and ctx.flags.polly):
            return
        if not is_scop(ctx.kernel) or not nest_is_static_control(info.nest):
            return

        nest = info.nest
        prefix = _fixed_prefix(nest)
        movable = nest.loop_vars[prefix:]
        changed = False

        # Optimal permutation (Polly schedules on LLVM-IR: no language gate).
        if 2 <= len(movable) <= 4:
            line = ctx.machine.line_bytes
            original = nest.loop_vars
            best_order, best_cost = original, stride_cost(nest, original, line)
            deps = nest_dependences(nest)
            for perm in itertools.permutations(movable):
                order = original[:prefix] + perm
                if order == original:
                    continue
                cost = stride_cost(nest, order, line)
                if cost < best_cost - 1e-12 and permutation_legal(
                    deps, original, order, allow_reduction_reorder=ctx.flags.fast_math
                ):
                    best_order, best_cost = order, cost
            if best_order != original:
                nest = nest.permuted(best_order)
                info.nest = nest
                changed = True

        # Cache tiling for reuse-rich nests.
        if reuse_potential(nest) >= _TILING_REUSE_THRESHOLD and nest.depth >= 2:
            l2 = ctx.machine.cache_levels[-1]
            threads = ctx.machine.topology.cores_per_domain if info.parallel else 1
            info.tile_working_set = l2.effective_capacity(threads) // 2
            changed = True

        if changed:
            info.runtime_check_overhead += _VERSIONING_OVERHEAD
            info.mark(self.name)
