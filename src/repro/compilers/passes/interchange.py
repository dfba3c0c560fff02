"""Loop interchange, driven by dependence legality and a stride cost
model.

This pass is the mechanical heart of the paper's Figure 1 anomaly:
Intel's icc interchanges PolyBench's row-major C loop nests so the
innermost streams become contiguous, while Fujitsu's traditional-mode
loop optimizer only performs the transformation on Fortran input.  The
capability gate is ``caps.interchange_languages``; everything else —
which permutations are legal, which is profitable — is computed from
the IR.
"""

from __future__ import annotations

import itertools

from repro.compilers.base import CodegenNestInfo, Pass, PassContext
from repro.ir.analysis import StrideClass, classify_access
from repro.ir.dependence import nest_dependences, permutation_legal
from repro.ir.loop import LoopNest


def stride_cost(nest: LoopNest, order: tuple[str, ...], line_bytes: int) -> float:
    """Cost of a loop order: expected cache lines touched per innermost
    iteration, summed over accesses (smaller is better).

    Contiguous streams cost ``element/line``; invariant streams are
    free; strided streams cost up to one full line per iteration.
    Order ties are broken in favour of the original order by the caller.
    """
    innermost = order[-1]
    total = 0.0
    for acc in nest.accesses:
        pat = classify_access(acc, innermost)
        elem = acc.array.dtype.size
        if pat.stride_class is StrideClass.INVARIANT:
            continue
        if pat.stride_class is StrideClass.INDIRECT:
            total += 1.0
            continue
        stride_bytes = abs(pat.byte_stride)
        total += min(stride_bytes, line_bytes) / line_bytes if stride_bytes >= elem else elem / line_bytes
    return total


def _fixed_prefix(nest: LoopNest) -> int:
    """Loops up to and including the last OpenMP-parallel loop are not
    moved (the parallel loop anchors the outlined region)."""
    last_par = -1
    for i, loop in enumerate(nest.loops):
        if loop.parallel:
            last_par = i
    return last_par + 1


def candidate_orders(
    movable: tuple[str, ...], max_depth: int
) -> "list[tuple[str, ...]]":
    """Loop orders a depth-limited interchanger considers.

    A compiler whose interchange window covers the whole movable nest
    considers every permutation; a pairwise interchanger (e.g. LLVM's
    loop-interchange, which swaps two loops at a time) considers every
    single-swap order of deeper nests.
    """
    if len(movable) <= max_depth:
        return [p for p in itertools.permutations(movable) if p != movable]
    out: list[tuple[str, ...]] = []
    for a in range(len(movable)):
        for b in range(a + 1, len(movable)):
            order = list(movable)
            order[a], order[b] = order[b], order[a]
            out.append(tuple(order))
    return out


class InterchangePass(Pass):
    """Permute the (movable suffix of the) nest to minimize stride cost."""

    name = "interchange"

    def run(self, info: CodegenNestInfo, ctx: PassContext) -> None:
        if info.eliminated:
            return
        caps = ctx.caps
        if ctx.language not in caps.interchange_languages:
            return
        if caps.max_interchange_depth < 2:
            return
        nest = info.nest
        prefix = _fixed_prefix(nest)
        movable = nest.loop_vars[prefix:]
        if len(movable) < 2:
            return

        line = ctx.machine.line_bytes
        original = nest.loop_vars
        best_order = original
        best_cost = stride_cost(nest, original, line)
        deps = nest_dependences(nest)
        for perm in candidate_orders(movable, caps.max_interchange_depth):
            order = original[:prefix] + perm
            cost = stride_cost(nest, order, line)
            if cost >= best_cost - 1e-12:
                continue
            if permutation_legal(
                deps, original, order, allow_reduction_reorder=ctx.flags.fast_math
            ):
                best_order = order
                best_cost = cost

        if best_order != original:
            info.nest = nest.permuted(best_order)
            info.mark(self.name)
