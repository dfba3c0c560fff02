"""Differential exactness tests for the vectorized trace oracle.

The batch cache path (:meth:`SetAssociativeCache.access_lines`,
:meth:`CacheHierarchy.access_lines`) and the numpy address stream of
:mod:`repro.perf.trace` must reproduce the one-access-at-a-time
simulation exactly: the same bytes, the same hit/miss counts, and the
same final cache state (tags *and* LRU clock values).  The reference
below is the original per-access implementation, kept here as the
oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir.array import Access, Array
from repro.ir.expr import AffineExpr
from repro.ir.loop import Loop, LoopNest
from repro.ir.statement import Statement
from repro.ir.types import AccessKind, DType
from repro.machine import CacheHierarchy, CacheLevel, SetAssociativeCache
from repro.machine.a64fx import A64FX_L1, A64FX_L2
from repro.perf import trace
from repro.perf.trace import (
    MAX_TRACE_ITERATIONS,
    TraceTraffic,
    _array_bases,
    _indirect_targets,
    iterate_addresses,
    trace_traffic,
)
from repro.units import KiB

# -- the per-access reference ----------------------------------------------


def _indirect_target(array_elements: int, key: int) -> int:
    """Scalar SplitMix64 gather target (Python integers, explicit masks)."""
    z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) % array_elements


def reference_addresses(nest: LoopNest):
    """Yield (byte_address, nbytes, is_write) by walking the nest one
    iteration at a time."""
    if nest.iterations > MAX_TRACE_ITERATIONS:
        raise ValueError("trace too large")
    bases = _array_bases(nest)
    loops = nest.loops
    prepared = [
        (acc, bases[acc.array.name], acc.array.dtype.size,
         None if acc.indirect else acc.linearized())
        for stmt in nest.body for acc in stmt.accesses
    ]

    def rec(depth, env, serial):
        if depth == len(loops):
            for acc, base, width, linear in prepared:
                if linear is None:
                    elem = _indirect_target(acc.array.elements, serial[0] * 1031 + base)
                else:
                    elem = linear.evaluate(env)
                addr = base + elem * width
                if acc.kind.reads:
                    yield (addr, width, False)
                if acc.kind.writes:
                    yield (addr, width, True)
            serial[0] += 1
            return
        loop = loops[depth]
        for value in range(loop.lower, loop.upper, loop.step):
            env[loop.var] = value
            yield from rec(depth + 1, env, serial)

    yield from rec(0, {}, [0])


def reference_trace(nest: LoopNest, levels) -> tuple[TraceTraffic, CacheHierarchy]:
    """The per-access trace: every line through ``CacheHierarchy.access``."""
    hierarchy = CacheHierarchy(list(levels))
    line = levels[0].line_bytes
    boundary_bytes = [0.0] * len(levels)
    for addr, width, _is_write in reference_addresses(nest):
        for ln in range(addr // line, (addr + width - 1) // line + 1):
            served_by = hierarchy.access(ln * line)
            for b in range(min(served_by, len(levels))):
                boundary_bytes[b] += line
    return TraceTraffic(tuple(boundary_bytes)), hierarchy


def _state(cache: SetAssociativeCache):
    return (cache.stats, [list(ways.items()) for ways in cache._sets], cache._clock)


def _traced(nest: LoopNest, levels) -> tuple[TraceTraffic, CacheHierarchy]:
    """``trace_traffic`` plus the hierarchy it built (looked up on the
    module at call time, as the benchmark's tracer relies on)."""
    made = []
    original = trace.CacheHierarchy

    def recording(lv):
        made.append(original(lv))
        return made[-1]

    trace.CacheHierarchy = recording
    try:
        result = trace_traffic(nest, levels)
    finally:
        trace.CacheHierarchy = original
    return result, made[0]


# -- strategies ---------------------------------------------------------------


def _level(name, capacity, line, ways):
    return CacheLevel(name, capacity, line, ways, 4, 64)


#: Small geometries that force evictions, including line sizes an
#: element can straddle.
GEOMETRIES = [
    (_level("L1d", 256, 64, 2), _level("L2", 1 * KiB, 64, 4)),
    (_level("L1d", 4 * KiB, 64, 4), _level("L2", 16 * KiB, 64, 8)),
    (_level("L1d", 96, 12, 2), _level("L2", 288, 12, 3)),
    (_level("L1d", 192, 24, 1),),
    (A64FX_L1, A64FX_L2),
]

VARS = ("i", "j", "k")


@st.composite
def nests(draw):
    depth = draw(st.integers(1, 3))
    loops = []
    for var in VARS[:depth]:
        lower = draw(st.integers(0, 3))
        step = draw(st.integers(1, 3))
        upper = lower + draw(st.integers(-1, 7))
        loops.append(Loop(var, lower, upper, step))
    arrays = [
        Array(f"a{n}", tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=2))),
              draw(st.sampled_from(list(DType))))
        for n in range(draw(st.integers(1, 3)))
    ]

    def index():
        coeffs = {v: draw(st.integers(-2, 3)) for v in VARS[:depth]
                  if draw(st.booleans())}
        return AffineExpr(coeffs, draw(st.integers(-3, 6)))

    body = []
    for s in range(draw(st.integers(1, 2))):
        accesses = []
        for _ in range(draw(st.integers(1, 3))):
            arr = draw(st.sampled_from(arrays))
            accesses.append(Access(arr, tuple(index() for _ in arr.shape),
                                   draw(st.sampled_from(list(AccessKind))),
                                   draw(st.booleans())))
        body.append(Statement(f"s{s}", tuple(accesses)))
    return LoopNest(tuple(loops), tuple(body))


# -- batch LRU vs access() ------------------------------------------------------


class TestAccessLines:
    @settings(max_examples=150, deadline=None)
    @given(
        sets=st.sampled_from([1, 2, 4]),
        ways=st.sampled_from([1, 2, 4]),
        lines=st.lists(st.integers(0, 40), max_size=300),
        cuts=st.lists(st.integers(0, 300), max_size=4),
    )
    def test_matches_scalar_loop_in_any_chunking(self, sets, ways, lines, cuts):
        level = _level("t", sets * ways * 64, 64, ways)
        scalar, batch = SetAssociativeCache(level), SetAssociativeCache(level)
        expected = [not scalar.access(ln * 64) for ln in lines]
        bounds = [0, *sorted(c for c in cuts if c < len(lines)), len(lines)]
        got = []
        for lo, hi in zip(bounds, bounds[1:]):
            got.extend(batch.access_lines(np.array(lines[lo:hi], dtype=np.int64)).tolist())
        assert got == expected
        assert _state(batch) == _state(scalar)

    @settings(max_examples=60, deadline=None)
    @given(prefix=st.lists(st.integers(0, 30), max_size=60),
           lines=st.lists(st.integers(0, 30), max_size=120))
    def test_batch_after_scalar_accesses(self, prefix, lines):
        level = _level("t", 4 * 2 * 64, 64, 2)
        scalar, mixed = SetAssociativeCache(level), SetAssociativeCache(level)
        for ln in prefix:
            scalar.access(ln * 64)
            mixed.access(ln * 64)
        expected = [not scalar.access(ln * 64) for ln in lines]
        assert mixed.access_lines(lines).tolist() == expected
        assert _state(mixed) == _state(scalar)

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(0, 60), max_size=300))
    def test_hierarchy_matches_scalar_loop(self, lines):
        levels = GEOMETRIES[0]
        scalar, batch = CacheHierarchy(list(levels)), CacheHierarchy(list(levels))
        expected = [scalar.access(ln * 64) for ln in lines]
        assert batch.access_lines(lines).tolist() == expected
        for got, want in zip(batch.caches, scalar.caches):
            assert _state(got) == _state(want)

    def test_empty_batch_is_a_no_op(self):
        cache = SetAssociativeCache(GEOMETRIES[0][0])
        assert cache.access_lines([]).size == 0
        assert cache.stats.accesses == 0 and cache._clock == 0

    def test_negative_line_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(GEOMETRIES[0][0]).access_lines([3, -1])


# -- vectorized trace vs the per-access reference ----------------------------


class TestTraceMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(nest=nests(), levels=st.sampled_from(GEOMETRIES))
    def test_bytes_counts_and_state_identical(self, nest, levels):
        try:
            expected, ref = reference_trace(nest, levels)
        except ValueError:
            with pytest.raises(ValueError):
                trace_traffic(nest, levels)
            return
        got, made = _traced(nest, levels)
        assert got == expected
        for cache, want in zip(made.caches, ref.caches):
            assert cache.level.name == want.level.name
            assert _state(cache) == _state(want)

    @settings(max_examples=100, deadline=None)
    @given(nest=nests())
    def test_iterate_addresses_matches_reference(self, nest):
        expected = list(reference_addresses(nest))
        if any(addr < 0 for addr, _w, _is_write in expected):
            with pytest.raises(ValueError):
                list(iterate_addresses(nest))
            return
        assert list(iterate_addresses(nest)) == expected

    def test_stream_crosses_chunk_boundaries(self, monkeypatch):
        arr = Array("A", (50, 50))
        nest = LoopNest(
            (Loop("i", 0, 50), Loop("j", 1, 50, 3)),
            (Statement("s", (Access(arr, (AffineExpr({"j": 1}), AffineExpr({"i": 1})),
                                    AccessKind.UPDATE),
                             Access(Array("x", (999,)), (AffineExpr({}, 0),),
                                    indirect=True))),),
        )
        monkeypatch.setattr(trace, "CHUNK_ITERATIONS", 7)
        for levels in GEOMETRIES:
            expected, ref = reference_trace(nest, levels)
            got, made = _traced(nest, levels)
            assert got == expected
            assert [_state(c) for c in made.caches] == [_state(c) for c in ref.caches]
        assert list(iterate_addresses(nest)) == list(reference_addresses(nest))

    def test_negative_address_rejected(self):
        arr = Array("A", (2000,))
        nest = LoopNest((Loop("i", 0, 4),),
                        (Statement("s", (Access(arr, (AffineExpr({"i": 1}, -1000),)),)),))
        with pytest.raises(ValueError):
            trace_traffic(nest, GEOMETRIES[0])
        with pytest.raises(ValueError):
            list(iterate_addresses(nest))

    def test_unbound_variable_raises_ir_error(self):
        arr = Array("A", (8,))
        nest = LoopNest((Loop("i", 0, 4),),
                        (Statement("s", (Access(arr, (AffineExpr({"i": 1}),)),)),))
        stray = replace(nest.body[0], accesses=(Access(arr, (AffineExpr({"z": 1}),)),))
        object.__setattr__(nest, "body", (stray,))
        with pytest.raises(IRError):
            list(iterate_addresses(nest))


# -- SplitMix64 pin ---------------------------------------------------------------


class TestIndirectTargets:
    KEYS = [0, 1, 1031, 2**32 - 1, 2**32, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1,
            2**64 - 0x9E3779B97F4A7C15, 2**64 - 0x9E3779B97F4A7C15 - 1,
            2**64 - 3, 2**64 - 2, 2**64 - 1]
    SIZES = [1, 3, 7, 1000, 1031, (1 << 21) + 1, 999_999_937, 2**40 + 15]

    def test_matches_scalar_near_2_64_and_odd_sizes(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in self.SIZES:
                got = _indirect_targets(size, keys)
                assert got.dtype == np.int64
                assert got.tolist() == [_indirect_target(size, k) for k in self.KEYS]

    def test_matches_scalar_on_trace_keys(self):
        serial = np.arange(0, MAX_TRACE_ITERATIONS, 4099, dtype=np.int64)
        for base, size in [(4096, 1000), (3 * 4096, (1 << 21) + 1), (77 * 4096, 12345)]:
            got = _indirect_targets(size, serial * 1031 + base)
            assert got.tolist() == [_indirect_target(size, int(s) * 1031 + base)
                                    for s in serial]
