"""Tests for the batched grid evaluator (repro.perf.batch).

The scalar :func:`repro.perf.cost.benchmark_model` is the reference
oracle: the differential tests sweep the full default campaign grid and
assert the batched path reproduces every scalar ``ModelResult``
bit-identically, failed-build ``inf`` cells included, and its times,
status and diagnostics vectors with them.  ``PlacementResults`` must
read like the tuple of results it replaced while building a result
only when one is read.  Property tests pin the feature-matrix extractor
to the scalar traffic/ECM models on degenerate (zero-trip) and
triangular-approximated nests.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GridSpec, evaluate_grid
from repro.compilers.base import CodegenNestInfo, CompileStatus
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError
from repro.harness import STATUS_OK, measure_benchmark, placement_candidates
from repro.ir import AccessKind, KernelBuilder, Language
from repro.ir.builder import AccessSpec
from repro.machine import CacheLevel, Machine, SCALAR, a64fx
from repro.machine.core import CoreModel
from repro.machine.memory import MemorySystem
from repro.machine.topology import Topology
from repro.perf import (
    CompilationCache,
    benchmark_model,
    evaluate_placements,
    nest_features,
)
from repro.perf import batch as batch_mod
from repro.perf.ecm import cycles_per_iteration
from repro.perf.traffic import nest_traffic
from repro.suites import all_benchmarks, micro_suite
from repro.tuning.scenario import PlacementScenario
from repro.units import KiB, gb_per_s, ghz
from tests.conftest import build_gemm


class TestDifferentialFullGrid:
    def test_full_default_grid_bit_identical(self, a64fx_machine):
        """Every (benchmark, variant, placement) cell of the default
        campaign grid: batched == scalar, exactly."""
        cache = CompilationCache()
        cells = 0
        failed = 0
        for bench in all_benchmarks():
            placements = placement_candidates(bench, a64fx_machine)
            for variant in STUDY_VARIANTS:
                batched = evaluate_placements(
                    bench, variant, a64fx_machine, placements, cache=cache
                )
                assert len(batched) == len(placements)
                for i, placement in enumerate(placements):
                    want = benchmark_model(
                        bench, variant, a64fx_machine, placement, cache=cache
                    )
                    where = (bench.full_name, variant, placement)
                    assert batched.times[i] == want.time_s, where
                    assert batched.status is want.status, where
                    assert batched.diagnostics == want.diagnostics, where
                    got = batched[i]
                    assert got == want, where
                    cells += 1
                    if not want.valid:
                        failed += 1
                        assert got.time_s == float("inf")
        assert cells > 4000
        # Figure 2's compile/runtime-failure cells must be represented.
        assert failed > 0

    def test_failed_build_cell_is_inf(self, a64fx_machine):
        # micro.k22 is a compile-error cell under FJclang (Figure 2).
        bench = micro_suite().get("k22")
        placements = placement_candidates(bench, a64fx_machine)
        results = evaluate_placements(bench, "FJclang", a64fx_machine, placements)
        assert results.times == (float("inf"),) * len(placements)
        assert results.status is CompileStatus.COMPILE_ERROR
        for r in results:
            assert not r.valid
            assert r.time_s == float("inf")
            assert r.status is results.status
            assert r.diagnostics == results.diagnostics

    def test_results_are_plain_floats(self, a64fx_machine):
        # Record times are json-serialized downstream: no numpy scalar
        # types may leak out of the batched path.
        bench = micro_suite().get("k04")
        placements = placement_candidates(bench, a64fx_machine)
        assert len(placements) > 1  # exercises the vectorized branch
        for cell in (placements, placements[3:4]):  # vectorized, single
            results = evaluate_placements(bench, "GNU", a64fx_machine, cell)
            assert len(results.times) == len(cell)
            for t, r in zip(results.times, results):
                assert type(t) is float and t == r.time_s
                assert type(r.time_s) is float
                assert type(r.compute_s) is float
                assert type(r.memory_s) is float
                assert type(r.comm_s) is float


class TestPlacementResults:
    """The times-first return type reads like the tuple it replaced."""

    @staticmethod
    def _cell(machine, name="top500.hpl", variant="GNU"):
        bench = next(b for b in all_benchmarks() if b.full_name == name)
        placements = placement_candidates(bench, machine)
        results = evaluate_placements(bench, variant, machine, placements)
        oracle = tuple(
            benchmark_model(bench, variant, machine, p) for p in placements
        )
        return results, oracle

    def test_len_iteration_indices_and_slices(self, a64fx_machine):
        results, oracle = self._cell(a64fx_machine)
        n = len(oracle)
        assert n > 4 and len(results) == n
        assert list(results) == list(oracle)
        assert results[-1] == oracle[-1]
        assert results[-n] == oracle[0]
        for window in (slice(1, 4), slice(None, None, -2), slice(n - 2, None)):
            assert type(results[window]) is tuple
            assert results[window] == oracle[window]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                results[bad]
        assert results.index(oracle[3]) == 3
        assert oracle[2] in results

    def test_equality_both_directions(self, a64fx_machine):
        results, oracle = self._cell(a64fx_machine)
        assert results == oracle and oracle == results
        assert results == list(oracle) and list(oracle) == results
        assert not (results != oracle) and not (oracle != results)
        assert results != oracle[:-1] and oracle[:-1] != results
        assert results != oracle[::-1]
        assert results != 3

    def test_item_is_built_once(self, a64fx_machine):
        results, _ = self._cell(a64fx_machine)
        assert results[2] is results[2]
        assert results[-1] is results[len(results) - 1]
        assert tuple(results)[2] is results[2]

    def test_empty_placements(self, a64fx_machine):
        results = evaluate_placements(micro_suite().get("k04"), "GNU", a64fx_machine, ())
        assert len(results) == 0 and results.times == () and results == ()


@pytest.fixture
def built(monkeypatch):
    """Counts the ModelResult and UnitBreakdown objects repro.perf.batch
    constructs while the test runs."""
    counts = {"ModelResult": 0, "UnitBreakdown": 0}
    for name in counts:
        real = getattr(batch_mod, name)

        def make(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(batch_mod, name, make)
    return counts


class TestLazyBreakdown:
    """Exploration and tuning read the placement times; only a read
    item builds a ModelResult and its unit breakdowns."""

    def test_measure_builds_only_the_winner(self, a64fx_machine, built):
        # micro.k22 fails to build under FJclang; every micro cell
        # explores eight candidates.
        cache = CompilationCache()
        failed = 0
        for bench in micro_suite().benchmarks:
            assert len(placement_candidates(bench, a64fx_machine)) > 1
            before = dict(built)
            record = measure_benchmark(bench, "FJclang", a64fx_machine, cache=cache)
            models = built["ModelResult"] - before["ModelResult"]
            units = built["UnitBreakdown"] - before["UnitBreakdown"]
            assert models == 1, bench.full_name
            if record.status == STATUS_OK:
                assert units == len(bench.units), bench.full_name
            else:
                failed += 1
                assert units == 0, bench.full_name
        assert failed == 1

    def test_placement_scenario_builds_none(self, a64fx_machine, built):
        bench = next(b for b in all_benchmarks() if b.full_name == "top500.hpl")
        scenario = PlacementScenario(bench, variants=("GNU", "LLVM"))
        configs = scenario.space(a64fx_machine).grid()
        evaluations = scenario.evaluate(configs, a64fx_machine)
        assert len(evaluations) == len(configs) > 50
        assert built == {"ModelResult": 0, "UnitBreakdown": 0}
        failed = PlacementScenario(micro_suite().get("k22"), "FJclang")
        configs = failed.space(a64fx_machine).grid()
        assert not any(e.valid for e in failed.evaluate(configs, a64fx_machine))
        assert built == {"ModelResult": 0, "UnitBreakdown": 0}


class TestEvaluateGrid:
    def test_grid_matches_evaluate_placements(self, a64fx_machine):
        grid = evaluate_grid(
            GridSpec(suites=("top500",), variants=("GNU", "LLVM"))
        )
        assert grid.machine == "A64FX"
        assert len(grid.cells) == 6  # 3 benchmarks x 2 variants
        for cell in grid.cells:
            bench = next(
                b for b in all_benchmarks() if b.full_name == cell.benchmark
            )
            want = evaluate_placements(
                bench, cell.variant, a64fx_machine, cell.placements
            )
            assert cell.results == want

    def test_grid_result_pickles(self):
        grid = evaluate_grid(suites=("top500",))
        assert all(type(cell.results) is tuple for cell in grid.cells)
        assert pickle.loads(pickle.dumps(grid)) == grid

    def test_overrides_and_cell_lookup(self):
        grid = evaluate_grid(benchmarks=("polybench.gemm",), variants=("GNU",))
        cell = grid.cell("polybench.gemm", "GNU")
        assert cell.best.valid
        assert cell.best.time_s == min(r.time_s for r in cell.results)

    def test_unknown_machine_rejected(self):
        with pytest.raises(HarnessError):
            evaluate_grid(GridSpec(machine="cray-1"))

    def test_spec_with_(self):
        spec = GridSpec().with_(variants=("GNU",))
        assert spec.variants == ("GNU",)


def _machine(l1_kib: int = 32) -> Machine:
    core = CoreModel("p", ghz(2.0), 2, 512, 2, 2, 1, 40, 50, 60, 10, 0.6)
    l1 = CacheLevel("L1d", l1_kib * KiB, 64, 4, 4, 128, 1)
    l2 = CacheLevel("L2", 4096 * KiB, 64, 8, 30, 64, 4)
    mem = MemorySystem("mem", gb_per_s(100), 0.8, 100e-9)
    return Machine("p", core, (l1, l2), mem, Topology("t", 1, 4), (SCALAR,))


@st.composite
def triangularish_nest(draw):
    """A 2-deep nest with triangular-style bounds: a nonzero lower
    bound and/or a halved inner trip (the polybench_la approximation),
    possibly zero-trip."""
    n = draw(st.sampled_from([0, 1, 16, 48]))
    lo = draw(st.integers(0, 8))
    hi = lo + draw(st.sampled_from([0, n // 2 if n else 0, n]))
    b = KernelBuilder("tri", Language.C)
    b.array("L", (64, 64))
    b.array("x", (64,))
    specs = [
        AccessSpec("L", ("i", "j"), AccessKind.READ),
        AccessSpec(
            "x",
            (draw(st.sampled_from(["i", "j"])),),
            draw(st.sampled_from([AccessKind.READ, AccessKind.UPDATE])),
        ),
    ]
    stmt = b.stmt(*specs, fadd=draw(st.integers(0, 3)), fmul=draw(st.integers(0, 2)))
    return b.nest([("i", n), ("j", lo, hi)], [stmt])


class TestFeatureMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(triangularish_nest(), st.sampled_from([1, 3, 12]))
    def test_traffic_matches_scalar_oracle(self, nest, acpd):
        machine = _machine()
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        assert features.traffic_for(acpd) == nest_traffic(info, machine, acpd)

    @settings(max_examples=40, deadline=None)
    @given(triangularish_nest())
    def test_cpi_matches_scalar_oracle(self, nest):
        machine = _machine()
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        if features.empty:
            assert nest.iterations == 0
        else:
            assert features.cpi == cycles_per_iteration(info, machine)
            assert math.isfinite(features.cpi) and features.cpi > 0

    def test_zero_trip_nest_is_empty(self):
        machine = _machine()
        b = KernelBuilder("z", Language.C)
        b.array("A", (8, 8))
        stmt = b.stmt(AccessSpec("A", ("i", "j"), AccessKind.READ), fadd=1)
        nest = b.nest([("i", 0), ("j", 8)], [stmt])
        info = CodegenNestInfo(nest=nest)
        features = nest_features(info, machine)
        assert features.empty
        report = features.traffic_for(1)
        assert report == nest_traffic(info, machine, 1)
        assert all(bd.total_bytes == 0.0 for bd in report.boundaries)

    def test_features_memoized_by_identity(self):
        machine = a64fx()
        b = KernelBuilder("memo", Language.C)
        b.array("A", (16, 16))
        stmt = b.stmt(AccessSpec("A", ("i", "j"), AccessKind.READ), fadd=1)
        nest = b.nest([("i", 16), ("j", 16)], [stmt])
        info = CodegenNestInfo(nest=nest)
        assert nest_features(info, machine) is nest_features(info, machine)


def _campaign_infos(machine):
    """(variant, compiled nest info) for every compiled nest of the
    default 540-cell campaign."""
    cache = CompilationCache()
    for bench in all_benchmarks():
        for variant in STUDY_VARIANTS:
            for unit in bench.units:
                if unit.kernel is None:
                    continue
                compiled = cache.get(variant, unit.kernel, machine, None)
                if compiled.status is CompileStatus.OK:
                    for info in compiled.nest_infos:
                        yield variant, info


class TestTrafficTables:
    """Working-set profiles and traffic rows are shared by content key;
    the shared table must be the one a fresh computation gives."""

    def test_every_campaign_nest_matches_fresh_table(self, a64fx_machine):
        line = a64fx_machine.line_bytes
        by_key = {}
        for variant, info in _campaign_infos(a64fx_machine):
            features = nest_features(info, a64fx_machine)
            if features.empty:
                continue
            fresh = batch_mod._traffic_rows(
                info.nest, info.tile_working_set, info.streaming_stores, line
            )
            assert (features.ws_profile, features.rows) == fresh, info.nest.label
            key = (info.nest, info.tile_working_set, info.streaming_stores)
            by_key.setdefault(key, []).append((variant, info, features))
        # The variants do hand the memo equal nests as distinct objects,
        # and those share one table object.
        shared = [
            group for group in by_key.values()
            if len({id(info) for _, info, _ in group}) > 1
            and len({variant for variant, _, _ in group}) > 1
        ]
        assert shared
        for group in shared:
            rows = group[0][2].rows
            assert all(features.rows is rows for _, _, features in group)

    @staticmethod
    def _stream_nest():
        b = KernelBuilder("tables", Language.C)
        b.array("a", (4096, 64))
        b.array("x", (4096, 64))
        b.array("y", (4096, 64))
        stmt = b.stmt(
            AccessSpec("a", ("i", "j"), AccessKind.WRITE),
            AccessSpec("x", ("i", "j"), AccessKind.READ),
            AccessSpec("y", ("j", "i"), AccessKind.READ),
            fma=1,
        )
        return b.nest([("i", 4096), ("j", 64)], [stmt])

    def test_streaming_stores_is_part_of_the_key(self, a64fx_machine):
        nest = self._stream_nest()
        plain = nest_features(CodegenNestInfo(nest=nest), a64fx_machine)
        streaming = nest_features(
            CodegenNestInfo(nest=nest, streaming_stores=True), a64fx_machine
        )
        assert plain.rows != streaming.rows

    def test_tile_working_set_is_part_of_the_key(self, a64fx_machine):
        # Tiling divides the refetches of accesses independent of an
        # outer loop (gemm's A[i,k] under j), so the rows must differ.
        nest = build_gemm(256).nests[0]
        plain = nest_features(CodegenNestInfo(nest=nest), a64fx_machine)
        tiled = nest_features(
            CodegenNestInfo(nest=nest, tile_working_set=64 * KiB), a64fx_machine
        )
        assert plain.ws_profile == tiled.ws_profile
        assert plain.rows != tiled.rows

    def test_equal_nests_from_two_variants_share_one_table(self, a64fx_machine):
        nest = self._stream_nest()
        a = nest_features(CodegenNestInfo(nest=nest, vec_lanes=8), a64fx_machine)
        b = nest_features(
            CodegenNestInfo(nest=pickle.loads(pickle.dumps(nest)), vec_lanes=4),
            a64fx_machine,
        )
        assert a is not b
        assert a.rows is b.rows and a.ws_profile is b.ws_profile


class TestGridCellRanked:
    def test_ranked_fastest_first_ties_keep_order(self, a64fx_machine):
        grid = evaluate_grid(benchmarks=("ecp.nekbone",), variants=("GNU",))
        cell = grid.cell("ecp.nekbone", "GNU")
        ranked = cell.ranked
        assert len(ranked) == len(cell.results)
        times = [r.time_s for r in ranked]
        assert times == sorted(times)
        assert ranked[0] == cell.best
        # a permutation, nothing dropped
        assert sorted(ranked, key=id) != [] and set(
            id(r) for r in ranked
        ) == set(id(r) for r in cell.results)
