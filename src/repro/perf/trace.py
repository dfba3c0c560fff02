"""Trace-based traffic measurement (ground truth for the analytic model).

Executes a loop nest's exact address stream through the reference
set-associative simulators of :mod:`repro.machine.cache` and reports
the bytes crossing each hierarchy boundary.  This is O(iterations) and
only practical for small kernel instances; the test suite uses it to
cross-validate :func:`repro.perf.traffic.nest_traffic`, and it is part
of the public API for users studying individual loops.

The stream is built with numpy, one fixed-size chunk of iterations at a
time: loop bounds are constants, so every loop variable is a function
of the flat iteration index, and every affine access is
``const + sum(coeff * var)`` over those arrays.  Each chunk goes through
:meth:`repro.machine.cache.CacheHierarchy.access_lines`, which leaves
the caches exactly as the one-access-at-a-time loop would.

Indirect accesses are materialized with a deterministic pseudo-random
permutation (SplitMix64 of the iteration number and the array's base
address), matching the "random gather" assumption of the analytic
model.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import IRError
from repro.ir.loop import LoopNest
from repro.machine.cache import CacheHierarchy, CacheLevel

#: Refuse traces above this many iterations (keeps tests honest).
MAX_TRACE_ITERATIONS = 2_000_000

#: Iterations per chunk of the vectorized address stream; bounds the
#: size of every temporary whatever the nest's trip count.
CHUNK_ITERATIONS = 1 << 15


@dataclass(frozen=True)
class TraceTraffic:
    """Measured bytes crossing each boundary (line granularity)."""

    #: bytes fetched from each source, innermost boundary first; the
    #: last entry is memory.
    boundary_bytes: tuple[float, ...]

    @property
    def memory_bytes(self) -> float:
        return self.boundary_bytes[-1]


def _array_bases(nest: LoopNest, alignment: int = 4096) -> dict[str, int]:
    """Assign each array a disjoint, aligned base address."""
    bases: dict[str, int] = {}
    cursor = alignment
    for arr in nest.arrays:
        bases[arr.name] = cursor
        cursor += ((arr.nbytes + alignment - 1) // alignment + 1) * alignment
    return bases


def _indirect_targets(array_elements: int, keys: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random element indices for indirect accesses
    (SplitMix64 mixing of each key, in wrapping ``uint64`` arithmetic)."""
    z = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(array_elements)).astype(np.int64)


def _address_chunks(nest: LoopNest) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(addresses, widths, is_write)`` arrays for each chunk of the
    nest's execution, in program order (reads before writes for updates).
    """
    if nest.iterations > MAX_TRACE_ITERATIONS:
        raise ValueError(
            f"trace of {nest.iterations} iterations exceeds "
            f"MAX_TRACE_ITERATIONS={MAX_TRACE_ITERATIONS}"
        )
    bases = _array_bases(nest)
    loops = nest.loops
    trips = [l.trip_count for l in loops]
    # Flat iteration index -> position along each loop (C order).
    inner = [math.prod(trips[d + 1:]) for d in range(len(loops))]

    # Per access: base, width, how many events it makes (an update reads
    # then writes the same element), and either the gathered array's
    # size or the affine offset ``const + sum(step * position)``.
    plans = []
    events: list[tuple[int, bool]] = []
    for acc in nest.accesses:
        width = acc.array.dtype.size
        kinds = [False] * acc.kind.reads + [True] * acc.kind.writes
        events += [(width, is_write) for is_write in kinds]
        affine = None
        if not acc.indirect:
            linear = acc.linearized()
            unbound = linear.variables - set(nest.loop_vars)
            if unbound:
                raise IRError(f"unbound variable {min(unbound)!r} in affine evaluation")
            coeffs = [linear.coefficient(l.var) for l in loops]
            affine = (linear.const + sum(c * l.lower for c, l in zip(coeffs, loops)),
                      [c * l.step for c, l in zip(coeffs, loops)])
        plans.append((bases[acc.array.name], width, len(kinds), acc.array.elements, affine))
    widths_row = np.array([width for width, _ in events], dtype=np.int64)
    writes_row = np.array([is_write for _, is_write in events], dtype=bool)

    total = nest.iterations
    for start in range(0, total, CHUNK_ITERATIONS):
        serial = np.arange(start, min(start + CHUNK_ITERATIONS, total), dtype=np.int64)
        position = [(serial // inner[d]) % trips[d] for d in range(len(loops))]
        columns = []
        for base, width, n_events, elements, affine in plans:
            if affine is None:
                elem = _indirect_targets(elements, serial * 1031 + base)
            else:
                const, steps = affine
                elem = np.full(serial.size, const, dtype=np.int64)
                for pos, step in zip(position, steps):
                    if step:
                        elem += step * pos
            columns += [base + elem * width] * n_events
        addresses = np.stack(columns, axis=1).ravel()
        if addresses.min() < 0:
            raise ValueError("addresses must be non-negative")
        yield addresses, np.tile(widths_row, serial.size), np.tile(writes_row, serial.size)


def iterate_addresses(nest: LoopNest):
    """Yield (byte_address, nbytes, is_write) for the nest's full
    execution, in program order."""
    for addresses, widths, writes in _address_chunks(nest):
        yield from zip(addresses.tolist(), widths.tolist(), writes.tolist())


def trace_traffic(nest: LoopNest, levels: "tuple[CacheLevel, ...] | list[CacheLevel]") -> TraceTraffic:
    """Run the nest's address stream through reference caches.

    Returns per-boundary byte counts at line granularity.  Writes are
    modelled write-allocate (a store miss fetches the line) — matching
    the analytic model's non-streaming-store path.
    """
    hierarchy = CacheHierarchy(list(levels))
    line = levels[0].line_bytes
    n_levels = len(levels)
    served_counts = np.zeros(n_levels + 1, dtype=np.int64)
    for addresses, widths, _writes in _address_chunks(nest):
        first = addresses // line
        spans = (addresses + widths - 1) // line - first + 1
        if (spans == 1).all():
            lines = first
        else:
            # An access straddling lines touches each of them in turn.
            lines = np.repeat(first, spans)
            lines += np.arange(lines.size) - np.repeat(np.cumsum(spans) - spans, spans)
        served = hierarchy.access_lines(lines)
        served_counts += np.bincount(served, minlength=n_levels + 1)
    # A fetch served by level k crosses boundaries 0..k-1 (boundary i
    # sits between level i and level i+1).
    return TraceTraffic(tuple(float(line * int(served_counts[b + 1:].sum()))
                              for b in range(n_levels)))
