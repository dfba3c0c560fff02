"""Whole-kernel structural validation.

Construction-time checks in the dataclasses catch local errors; this
module adds the cross-cutting checks (consistent array declarations
across nests, subscripts within bounds at the extreme loop values,
reduction annotations referring to real loops) that suite definitions
occasionally get wrong.  The suite registry validates every kernel at
import time in the test suite.

Findings are reported as :class:`~repro.staticanalysis.diagnostics.Diagnostic`
objects under the same stable rule IDs the lint driver uses —
``STRUCT001`` for structural problems, ``BND002`` for out-of-bounds
subscripts — so the ``repro lint`` pipeline and the construction-time
validator cannot drift apart.
"""

from __future__ import annotations

from repro.errors import IRValidationError
from repro.ir.analysis import subscript_interval
from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity


def _struct(message: str, **loc: str) -> Diagnostic:
    return Diagnostic(
        rule_id="STRUCT001",
        severity=Severity.ERROR,
        category=Category.STRUCTURE,
        message=message,
        **loc,
    )


def validate_nest(nest: LoopNest) -> list[Diagnostic]:
    """Return the problems found in one nest (empty = valid)."""
    problems: list[Diagnostic] = []
    bounds = {l.var: (l.lower, l.upper - 1) for l in nest.loops if l.trip_count > 0}
    for stmt in nest.body:
        if stmt.reduction_over is not None and stmt.reduction_over not in {
            l.var for l in nest.loops
        }:
            problems.append(
                _struct(
                    f"statement {stmt.name!r}: reduction over unknown loop "
                    f"{stmt.reduction_over!r}",
                    nest=nest.label,
                    statement=stmt.name,
                    hint="annotate the reduction with a loop of this nest",
                )
            )
        for acc in stmt.accesses:
            if acc.indirect:
                continue
            for pos, expr in enumerate(acc.indices):
                lo, hi = subscript_interval(expr, bounds)
                extent = acc.array.shape[pos]
                if lo < 0 or hi >= extent:
                    problems.append(
                        Diagnostic(
                            rule_id="BND002",
                            severity=Severity.ERROR,
                            category=Category.CORRECTNESS,
                            message=(
                                f"statement {stmt.name!r}: subscript {pos} of "
                                f"{acc.array.name!r} spans [{lo},{hi}] outside "
                                f"[0,{extent - 1}]"
                            ),
                            nest=nest.label,
                            statement=stmt.name,
                            array=acc.array.name,
                            hint="shrink the loop bounds or grow the array",
                        )
                    )
    return problems


def validate_kernel(kernel: Kernel) -> list[Diagnostic]:
    """Return the problems found in a kernel (empty = valid)."""
    problems: list[Diagnostic] = []
    declared: dict[str, tuple] = {}
    for nest in kernel.nests:
        for arr in nest.arrays:
            sig = (arr.shape, arr.dtype, arr.layout)
            prev = declared.get(arr.name)
            if prev is not None and prev != sig:
                problems.append(
                    _struct(
                        f"array {arr.name!r} used with inconsistent signatures "
                        f"{prev} vs {sig}",
                        nest=nest.label,
                        array=arr.name,
                        hint="declare the array once and share the object",
                    )
                )
            declared[arr.name] = sig
        problems.extend(validate_nest(nest))
    return [d.with_kernel(kernel.name) for d in problems]


def check_kernel(kernel: Kernel) -> None:
    """Raise :class:`IRValidationError` when a kernel is malformed."""
    problems = validate_kernel(kernel)
    if problems:
        raise IRValidationError(
            f"kernel {kernel.name!r} failed validation:\n  "
            + "\n  ".join(d.message for d in problems)
        )
