"""Tests for the dependence analysis — the legality engine behind the
compiler models."""

import pytest

from repro.ir import (
    DepKind,
    Direction,
    KernelBuilder,
    Language,
    carried_dependences,
    innermost_vectorization_legality,
    nest_dependences,
    permutation_legal,
    read,
    update,
    write,
)
from tests.conftest import build_gemm


def _single_nest(builder_fn):
    return builder_fn().nests[0]


def gemm_nest(n=32):
    return build_gemm(n).nests[0]


class TestGemm:
    """The canonical reduction nest: C[i][j] += A[i][k] * B[k][j]."""

    def test_reduction_dep_vector(self):
        deps = nest_dependences(gemm_nest())
        flows = [d for d in deps if d.kind is DepKind.FLOW]
        assert flows, "gemm must carry a flow dependence on C"
        for d in flows:
            assert d.directions == (Direction.EQ, Direction.EQ, Direction.LT)
            assert d.is_reduction

    def test_all_interchanges_legal(self):
        # Reordering a pure reduction nest never reverses the k-chain.
        nest = gemm_nest()
        deps = nest_dependences(nest)
        for order in [("i", "k", "j"), ("k", "i", "j"), ("j", "i", "k")]:
            assert permutation_legal(deps, nest.loop_vars, order)

    def test_vectorization_needs_reassociation_with_k_inner(self):
        verdict = innermost_vectorization_legality(gemm_nest())
        assert verdict.legal
        assert verdict.needs_reduction_reassociation

    def test_vectorization_free_with_j_inner(self):
        nest = gemm_nest().permuted(("i", "k", "j"))
        verdict = innermost_vectorization_legality(nest)
        assert verdict.legal
        assert not verdict.needs_reduction_reassociation


class TestOverwrite:
    """Overwrites: the last writer must stay last."""

    def _nest_1free(self):
        b = KernelBuilder("ow", Language.C)
        b.array("C", (16,))
        b.array("A", (16, 16))
        return b.nest(
            [("i", 16), ("k", 16)],
            [b.stmt(write("C", "i"), read("A", "i", "k"), fadd=1)],
        )

    def _nest_2free(self):
        b = KernelBuilder("ow2", Language.C)
        b.array("C", (16,))
        b.array("A", (16, 16, 16))
        return b.nest(
            [("i", 16), ("k", 16), ("l", 16)],
            [b.stmt(write("C", "i"), read("A", "i", "k", "l"), fadd=1)],
        )

    def test_output_dep_exists(self):
        deps = nest_dependences(self._nest_1free())
        assert any(d.kind is DepKind.OUTPUT for d in deps)

    def test_single_free_loop_interchange_legal(self):
        # With one overwriting loop, interchange preserves the per-element
        # write order (k still ascends for every i) — legal.
        nest = self._nest_1free()
        deps = nest_dependences(nest)
        assert permutation_legal(deps, ("i", "k"), ("k", "i"), allow_reduction_reorder=False)

    def test_two_free_loops_interchange_illegal(self):
        # Swapping k and l reorders the writes to C[i]: the (=,<,>)
        # dependence vector becomes lexicographically negative.
        nest = self._nest_2free()
        deps = nest_dependences(nest)
        assert not permutation_legal(
            deps, ("i", "k", "l"), ("i", "l", "k"), allow_reduction_reorder=False
        )


class TestStencils:
    def test_jacobi_two_arrays_no_loop_carried(self):
        b = KernelBuilder("jac", Language.C)
        b.array("A", (64,))
        b.array("B", (64,))
        nest = b.nest(
            [("i", 1, 63)],
            [b.stmt(write("B", "i"), read("A", "i-1"), read("A", "i+1"), fadd=1)],
        )
        verdict = innermost_vectorization_legality(nest)
        assert verdict.legal and not verdict.needs_reduction_reassociation

    def test_seidel_inplace_blocked(self):
        b = KernelBuilder("sei", Language.C)
        b.array("A", (64,))
        nest = b.nest(
            [("i", 1, 63)],
            [b.stmt(write("A", "i"), read("A", "i-1"), read("A", "i+1"), fadd=1)],
        )
        verdict = innermost_vectorization_legality(nest)
        assert not verdict.legal
        assert verdict.blockers

    def test_carried_level_of_stencil_recurrence(self):
        b = KernelBuilder("rec", Language.C)
        b.array("A", (32, 32))
        nest = b.nest(
            [("i", 1, 32), ("j", 32)],
            [b.stmt(write("A", "i", "j"), read("A", "i-1", "j"), fadd=1)],
        )
        deps = nest_dependences(nest)
        carried_outer = carried_dependences(deps, 0)
        carried_inner = carried_dependences(deps, 1)
        assert carried_outer
        assert not carried_inner  # distance is exactly (1, 0)


class TestSubscriptTests:
    def test_ziv_disproves(self):
        b = KernelBuilder("ziv", Language.C)
        b.array("A", (16, 4))
        nest = b.nest(
            [("i", 16)],
            [b.stmt(write("A", "i", 0), read("A", "i", 1))],
        )
        assert nest_dependences(nest) == ()

    def test_gcd_disproves(self):
        # A[2i] vs A[2i+1]: even vs odd elements never alias.
        b = KernelBuilder("gcd", Language.C)
        b.array("A", (64,))
        nest = b.nest(
            [("i", 32)],
            [b.stmt(write("A", "2*i"), read("A", "2*i+1"))],
        )
        assert nest_dependences(nest) == ()

    def test_strong_siv_distance_beyond_trip_disproves(self):
        b = KernelBuilder("siv", Language.C)
        b.array("A", (128,))
        nest = b.nest(
            [("i", 8)],
            [b.stmt(write("A", "i"), read("A", "i+64"))],
        )
        assert nest_dependences(nest) == ()

    def test_strong_siv_in_range_detected(self):
        b = KernelBuilder("siv2", Language.C)
        b.array("A", (128,))
        nest = b.nest(
            [("i", 1, 64)],
            [b.stmt(write("A", "i"), read("A", "i-1"))],
        )
        deps = nest_dependences(nest)
        assert deps
        assert all(d.distances == (1,) for d in deps)

    def test_weak_zero_in_range(self):
        # A[0] read against A[i] writes: only i == 0 aliases.
        b = KernelBuilder("wz", Language.C)
        b.array("A", (32,))
        b.array("B", (32,))
        nest = b.nest(
            [("i", 32)],
            [b.stmt(write("A", "i"), read("A", 0), read("B", "i"), fadd=1)],
        )
        assert nest_dependences(nest)

    def test_weak_zero_out_of_range_disproved(self):
        b = KernelBuilder("wz2", Language.C)
        b.array("A", (128,))
        b.array("B", (32,))
        nest = b.nest(
            [("i", 32)],
            [b.stmt(write("A", "i"), read("A", 100), read("B", "i"), fadd=1)],
        )
        # write A[i] (i<32) never reaches A[100]
        assert all(d.array != "A" or d.kind is not DepKind.FLOW for d in nest_dependences(nest))

    def test_conflicting_fixed_distances_disprove(self):
        # A[i][i] vs A[i][i+1]: dim0 demands 0, dim1 demands 1 -> none.
        b = KernelBuilder("conf", Language.C)
        b.array("A", (16, 17))
        nest = b.nest(
            [("i", 16)],
            [b.stmt(write("A", "i", "i"), read("A", "i", "i+1"))],
        )
        assert nest_dependences(nest) == ()


class TestIndirect:
    def test_indirect_conservative(self):
        b = KernelBuilder("ind", Language.C)
        b.array("x", (64,))
        nest = b.nest(
            [("i", 64)],
            [b.stmt(update("x", "i", indirect=True), iops=1)],
        )
        deps = nest_dependences(nest)
        assert deps
        assert all(all(d is Direction.ANY for d in dep.directions) for dep in deps)

    def test_indirect_forces_runtime_checks(self):
        b = KernelBuilder("ind2", Language.C)
        b.array("x", (64,))
        b.array("y", (64,))
        nest = b.nest(
            [("i", 64)],
            [b.stmt(write("y", "i"), read("x", "i", indirect=True), fadd=1)],
        )
        verdict = innermost_vectorization_legality(nest)
        # reads-only indirect stream: no blocking dep, but y/x unrelated
        assert verdict.legal


class TestNormalization:
    def test_no_lexicographically_negative_vectors(self):
        for nest in (gemm_nest(), build_gemm(16).nests[0].permuted(("k", "j", "i"))):
            for dep in nest_dependences(nest):
                for d in dep.directions:
                    if d is Direction.EQ:
                        continue
                    assert d in (Direction.LT, Direction.ANY)
                    break

    def test_loop_independent_detected(self):
        b = KernelBuilder("li", Language.C)
        b.array("A", (16,))
        b.array("B", (16,))
        nest = b.nest(
            [("i", 16)],
            [
                b.stmt(write("A", "i"), read("B", "i")),
                b.stmt(write("B", "i"), read("A", "i")),
            ],
        )
        deps = nest_dependences(nest)
        assert any(d.is_loop_independent for d in deps)
        assert all(d.carried_level() is None for d in deps if d.is_loop_independent)


class TestContentMemo:
    """``nest_dependences`` answers from a process-wide memo keyed by
    nest content; it must equal the uncached analysis on every nest."""

    @staticmethod
    def _suite_nests():
        from repro.suites import all_benchmarks

        for bench in all_benchmarks():
            for unit in bench.units:
                if unit.kernel is not None:
                    yield from unit.kernel.nests

    def test_every_suite_nest_matches_uncached_analysis(self):
        from repro.ir.dependence import _analyze_dependences

        checked = 0
        for nest in self._suite_nests():
            assert nest_dependences(nest) == _analyze_dependences(nest), nest.label
            checked += 1
        assert checked > 100

    def test_equal_nests_share_one_dependence_set(self):
        import pickle

        nest = gemm_nest()
        clone = pickle.loads(pickle.dumps(nest))
        assert clone is not nest and clone == nest
        assert nest_dependences(clone) is nest_dependences(nest)

    def test_nests_differing_in_bounds_do_not_share(self):
        # A zero-trip loop empties the dependence set: the key must
        # include the bounds, not only the body.
        full = gemm_nest()
        empty = full.with_loops((full.loops[0].with_bounds(0, 0),) + full.loops[1:])
        assert nest_dependences(full)
        assert nest_dependences(empty) == ()
