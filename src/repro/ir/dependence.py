"""Data-dependence analysis on affine loop nests.

Implements the classical per-dimension subscript tests (ZIV, strong and
weak SIV, and a GCD fallback for MIV subscripts), merges them into
per-loop constraints, and *enumerates* the resulting direction vectors
(dropping lexicographically-negative vectors, which describe the
mirrored dependence).  The compiler passes use these results to decide
transformation legality:

* loop interchange is legal iff every dependence direction vector stays
  lexicographically non-negative under the permutation;
* innermost-loop vectorization is legal iff no dependence is carried by
  the innermost loop, or the carrying statements are recognized
  reductions (which, for FP types, additionally require reassociation —
  fast-math-style flags).

The tests are deliberately conservative: an inconclusive subscript pair
yields the full ``{<,=,>}`` direction set rather than independence.
This mirrors production compilers, whose *differences in conservatism*
are exactly what the paper measures.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from repro.ir.expr import AffineExpr
from repro.ir.loop import LoopNest
from repro.ir.statement import Statement
from repro.ir.types import AccessKind
from repro.memo import ContentMemo


class Direction(enum.Enum):
    """Dependence direction for one loop level (source vs. sink)."""

    EQ = "="
    LT = "<"
    GT = ">"
    #: Unknown (used only by the conservative fallback paths: indirect
    #: subscripts and oversized enumeration).
    ANY = "*"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"


class DepKind(enum.Enum):
    """Classification by source/sink access kinds."""

    FLOW = "flow"  # write -> read
    ANTI = "anti"  # read -> write
    OUTPUT = "output"  # write -> write


@dataclass(frozen=True)
class Dependence:
    """A data dependence between two statements in a nest."""

    src: Statement
    dst: Statement
    array: str
    kind: DepKind
    #: One entry per nest loop, outermost first.
    directions: tuple[Direction, ...]
    #: Exact distance per loop where known (None otherwise).
    distances: tuple[int | None, ...]
    #: True when both endpoints belong to a recognized reduction update
    #: (compilers may break the recurrence with partial sums).
    is_reduction: bool = False

    @property
    def is_loop_independent(self) -> bool:
        """All-equal direction vector: same iteration, ordering by text."""
        return all(d is Direction.EQ for d in self.directions)

    def carried_level(self) -> int | None:
        """Outermost loop level that carries the dependence.

        A dependence is carried at the first level whose direction is not
        ``EQ``.  Returns ``None`` for loop-independent dependences.
        """
        for lvl, d in enumerate(self.directions):
            if d is not Direction.EQ:
                return lvl
        return None

    def __str__(self) -> str:
        vec = "".join(d.value for d in self.directions)
        return (
            f"{self.kind.value} dep on {self.array}: {self.src.name}->{self.dst.name} ({vec})"
        )


# --------------------------------------------------------------------------
# per-dimension subscript tests
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _DimResult:
    """Outcome of testing one subscript dimension pair."""

    independent: bool
    #: var -> exact distance constraint (dst - src), where provable.
    fixed: dict[str, int]
    #: vars mentioned but not exactly constrained.
    loose: frozenset[str]


def _gcd_test(e_src: AffineExpr, e_dst: AffineExpr) -> bool:
    """GCD feasibility for ``e_src(i) = e_dst(i')``.

    Returns True when a solution may exist (dependence possible), False
    when the GCD of all coefficients does not divide the constant term.
    """
    coeffs = list(e_src.coeffs.values()) + [-c for c in e_dst.coeffs.values()]
    delta = e_dst.const - e_src.const
    if not coeffs:
        return delta == 0
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return delta == 0
    return delta % g == 0


def _test_dimension(
    e_src: AffineExpr, e_dst: AffineExpr, trip_counts: dict[str, int]
) -> _DimResult:
    """Test one subscript pair; constrain loop variables where possible."""
    vars_all = e_src.variables | e_dst.variables

    # ZIV: both subscripts constant.
    if not vars_all:
        return _DimResult(e_src.const != e_dst.const, {}, frozenset())

    # General feasibility: a failed GCD test proves independence for any
    # number of variables.
    if not _gcd_test(e_src, e_dst):
        return _DimResult(True, {}, frozenset())

    if len(vars_all) == 1:
        (v,) = vars_all
        a_src = e_src.coefficient(v)
        a_dst = e_dst.coefficient(v)
        delta = e_src.const - e_dst.const
        if a_src == a_dst and a_src != 0:
            # Strong SIV: a*i + c1 = a*i' + c2  =>  i' - i = (c1-c2)/a.
            if delta % a_src != 0:
                return _DimResult(True, {}, frozenset())
            dist = delta // a_src
            trip = trip_counts.get(v, 0)
            if trip and abs(dist) >= trip:
                return _DimResult(True, {}, frozenset())
            return _DimResult(False, {v: dist}, frozenset())
        if a_src == 0 or a_dst == 0:
            # Weak-zero SIV: one side does not move with v.  The moving
            # side must land exactly on the fixed subscript; feasibility
            # needs divisibility and an in-bounds solution.
            a = a_src or a_dst
            if delta % a != 0:
                return _DimResult(True, {}, frozenset())
            point = abs(delta // a)
            trip = trip_counts.get(v, 0)
            if trip and point >= trip:
                return _DimResult(True, {}, frozenset())
            return _DimResult(False, {}, frozenset({v}))
        # Weak-crossing / general SIV: keep conservative.
        return _DimResult(False, {}, frozenset({v}))

    # MIV: GCD already passed; stay conservative about directions.
    return _DimResult(False, {}, frozenset(vars_all))


def _merge_dimensions(results: list[_DimResult]) -> _DimResult | None:
    """Combine per-dimension constraints; None means proven independent."""
    fixed: dict[str, int] = {}
    loose: set[str] = set()
    for r in results:
        if r.independent:
            return None
        for v, d in r.fixed.items():
            if v in fixed and fixed[v] != d:
                # Two dimensions demand different exact distances for the
                # same variable -> infeasible -> independent.
                return None
            fixed[v] = d
        loose |= set(r.loose)
    loose -= set(fixed)
    return _DimResult(False, fixed, frozenset(loose))


# --------------------------------------------------------------------------
# direction-vector enumeration
# --------------------------------------------------------------------------

#: Above this many unconstrained loops we fall back to a single ANY
#: vector instead of enumerating 3^n possibilities.
_MAX_ENUMERATED_FREE_VARS = 6

_SIGN_TO_DIR = {0: Direction.EQ, 1: Direction.LT, -1: Direction.GT}


def _enumerate_vectors(
    merged: _DimResult,
    loop_vars: tuple[str, ...],
    same_statement: bool,
) -> list[tuple[tuple[Direction, ...], tuple[int | None, ...]]]:
    """All legitimate direction vectors for a constrained access pair.

    Unconstrained/loose variables take each of ``<``, ``=``, ``>``;
    vectors whose first non-EQ direction is ``>`` are dropped (they are
    the mirrored dependence, generated when the pair is visited in the
    other orientation or meaningless for self-pairs), and the all-EQ
    vector is dropped for self-pairs (same iteration, same access).
    """
    free = [v for v in loop_vars if v not in merged.fixed]
    if len(free) > _MAX_ENUMERATED_FREE_VARS:
        directions = tuple(
            _SIGN_TO_DIR[_sign(merged.fixed[v])] if v in merged.fixed else Direction.ANY
            for v in loop_vars
        )
        distances = tuple(merged.fixed.get(v) for v in loop_vars)
        return [(directions, distances)]

    out: list[tuple[tuple[Direction, ...], tuple[int | None, ...]]] = []
    for combo in itertools.product((Direction.LT, Direction.EQ, Direction.GT), repeat=len(free)):
        free_dirs = dict(zip(free, combo))
        directions: list[Direction] = []
        distances: list[int | None] = []
        for v in loop_vars:
            if v in merged.fixed:
                d = merged.fixed[v]
                directions.append(_SIGN_TO_DIR[_sign(d)])
                distances.append(d)
            else:
                directions.append(free_dirs[v])
                distances.append(0 if free_dirs[v] is Direction.EQ else None)
        # Drop lexicographically-negative vectors.
        lead = next((d for d in directions if d is not Direction.EQ), None)
        if lead is Direction.GT:
            continue
        if lead is None and same_statement:
            continue  # same iteration, same statement: not a dependence
        out.append((tuple(directions), tuple(distances)))
    return out


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _classify(src_kind: AccessKind, dst_kind: AccessKind) -> list[DepKind]:
    kinds: list[DepKind] = []
    if src_kind.writes and dst_kind.reads:
        kinds.append(DepKind.FLOW)
    if src_kind.reads and dst_kind.writes:
        kinds.append(DepKind.ANTI)
    if src_kind.writes and dst_kind.writes:
        kinds.append(DepKind.OUTPUT)
    return kinds


#: Dependence sets by nest content.  The analysis reads nothing but the
#: nest, and the compiler variants hand it equal nests as distinct
#: objects; the returned statements may belong to an equal nest, which
#: consumers cannot tell apart (they read the statement names).
_DEPENDENCES: "ContentMemo[tuple[Dependence, ...]]" = ContentMemo(4096)


def nest_dependences(nest: LoopNest) -> tuple[Dependence, ...]:
    """All data dependences within one loop nest (memoized by content).

    Considers every ordered statement pair (including self-pairs) and
    every access pair on the same array with at least one write.
    Duplicate (src, dst, array, kind, direction) tuples are collapsed.
    """
    found = _DEPENDENCES.get(nest)
    if found is None:
        found = _DEPENDENCES.put(nest, _analyze_dependences(nest))
    return found


def _analyze_dependences(nest: LoopNest) -> tuple[Dependence, ...]:
    """The uncached analysis behind :func:`nest_dependences`."""
    trip_counts = {l.var: l.trip_count for l in nest.loops}
    if any(count == 0 for count in trip_counts.values()):
        # An empty iteration space executes no statement instance, so
        # every candidate dependence is vacuous.
        return ()
    loop_vars = nest.loop_vars
    seen: dict[tuple, Dependence] = {}

    # Both pair orientations are visited: the enumeration drops
    # lexicographically-negative vectors, whose mirror image belongs to
    # (and is produced by) the opposite orientation.
    for s_idx, src_stmt in enumerate(nest.body):
        for d_idx in range(len(nest.body)):
            dst_stmt = nest.body[d_idx]
            same_statement = s_idx == d_idx
            for a_src in src_stmt.accesses:
                for a_dst in dst_stmt.accesses:
                    if a_src.array.name != a_dst.array.name:
                        continue
                    if not (a_src.kind.writes or a_dst.kind.writes):
                        continue
                    if a_src.indirect or a_dst.indirect:
                        # Indirect subscripts defeat affine analysis:
                        # assume a dependence in every loop.  This is what
                        # makes sparse kernels hard to auto-vectorize
                        # without runtime checks or explicit pragmas.
                        vectors = [
                            (
                                tuple(Direction.ANY for _ in loop_vars),
                                tuple(None for _ in loop_vars),
                            )
                        ]
                    else:
                        dims = [
                            _test_dimension(es, ed, trip_counts)
                            for es, ed in zip(a_src.indices, a_dst.indices)
                        ]
                        merged = _merge_dimensions(dims)
                        if merged is None:
                            continue
                        same_access = same_statement and a_src == a_dst
                        vectors = _enumerate_vectors(merged, loop_vars, same_access)
                    is_red = (
                        src_stmt.is_reduction
                        and dst_stmt.is_reduction
                        and same_statement
                        and a_src.kind is AccessKind.UPDATE
                        and a_dst.kind is AccessKind.UPDATE
                    )
                    for directions, distances in vectors:
                        for kind in _classify(a_src.kind, a_dst.kind):
                            key = (
                                src_stmt.name,
                                dst_stmt.name,
                                a_src.array.name,
                                kind,
                                directions,
                            )
                            if key not in seen:
                                seen[key] = Dependence(
                                    src=src_stmt,
                                    dst=dst_stmt,
                                    array=a_src.array.name,
                                    kind=kind,
                                    directions=directions,
                                    distances=distances,
                                    is_reduction=is_red,
                                )
    return tuple(seen.values())


# --------------------------------------------------------------------------
# legality queries used by compiler passes
# --------------------------------------------------------------------------


def permutation_legal(
    deps: tuple[Dependence, ...],
    old_order: tuple[str, ...],
    new_order: tuple[str, ...],
    *,
    allow_reduction_reorder: bool = True,
) -> bool:
    """Is permuting the nest loops from ``old_order`` to ``new_order`` legal?

    Legal iff every dependence's permuted direction vector remains
    lexicographically non-negative, treating ``ANY`` as potentially
    ``GT``.  Reduction self-dependences with exact distances already
    permute safely; the ``allow_reduction_reorder`` escape additionally
    forgives ANY entries on reduction dependences (reassociation).
    """
    perm = [old_order.index(v) for v in new_order]
    for dep in deps:
        vec = [dep.directions[p] for p in perm]
        for d in vec:
            if d is Direction.LT:
                break  # carried by an outer loop -> order preserved
            if d is Direction.EQ:
                continue
            if dep.is_reduction and allow_reduction_reorder:
                break
            # GT or ANY before the first LT -> possibly reversed.
            return False
    return True


def carried_dependences(
    deps: tuple[Dependence, ...], level: int
) -> tuple[Dependence, ...]:
    """Dependences that *may* be carried at ``level``.

    A dependence may be carried at a level when all outer directions may
    be EQ and the direction at the level may be non-EQ.
    """
    out = []
    for dep in deps:
        outer_ok = all(
            d in (Direction.EQ, Direction.ANY) for d in dep.directions[:level]
        )
        here = dep.directions[level] if level < len(dep.directions) else Direction.EQ
        if outer_ok and here is not Direction.EQ:
            out.append(dep)
    return tuple(out)


@dataclass(frozen=True)
class VectorizationLegality:
    """Verdict for vectorizing the innermost loop of a nest."""

    legal: bool
    #: True when legality hinges on reassociating FP reductions.
    needs_reduction_reassociation: bool
    #: True when legality hinges on runtime alias/overlap checks
    #: (conservative ANY directions from inconclusive tests).
    needs_runtime_checks: bool
    blockers: tuple[str, ...] = ()


def innermost_vectorization_legality(
    nest: LoopNest, deps: tuple[Dependence, ...] | None = None
) -> VectorizationLegality:
    """Can the innermost loop be vectorized, and at what price?"""
    if deps is None:
        deps = nest_dependences(nest)
    level = nest.depth - 1
    carried = carried_dependences(deps, level)
    needs_reassoc = False
    needs_checks = False
    blockers: list[str] = []
    for dep in carried:
        if dep.is_reduction:
            needs_reassoc = True
            continue
        at_level = dep.directions[level]
        if at_level is Direction.ANY:
            # Inconclusive: a compiler can emit runtime overlap checks
            # or multiversioned code.
            needs_checks = True
            continue
        dist = dep.distances[level]
        if dist is not None and dist != 0:
            blockers.append(str(dep))
        elif at_level in (Direction.LT, Direction.GT):
            blockers.append(str(dep))
    return VectorizationLegality(
        legal=not blockers,
        needs_reduction_reassociation=needs_reassoc,
        needs_runtime_checks=needs_checks,
        blockers=tuple(blockers),
    )
