"""Tests for the noise model and parallel-overhead helpers."""

import hashlib
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Placement, Topology
from repro.perf.noise import _unit_normal, noise_multiplier, timer_resolution_floor
from repro.perf.scaling import numa_spill_penalty, omp_region_overhead_s
from repro.suites.base import MpiModel


class TestNoise:
    def test_deterministic(self):
        a = noise_multiplier(0.05, "bench", "GNU", 3)
        b = noise_multiplier(0.05, "bench", "GNU", 3)
        assert a == b

    def test_key_sensitivity(self):
        assert noise_multiplier(0.05, "bench", "GNU", 3) != noise_multiplier(
            0.05, "bench", "GNU", 4
        )

    def test_zero_cv_is_one(self):
        assert noise_multiplier(0.0, "x") == 1.0

    def test_never_faster_than_ideal(self):
        for i in range(200):
            assert noise_multiplier(0.1, "b", i) >= 1.0

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            noise_multiplier(-0.1, "x")

    def test_sample_cv_tracks_parameter(self):
        # folded-normal multipliers: sample CV should be same order as cv
        samples = [noise_multiplier(0.22, "stream", i) for i in range(500)]
        cv = statistics.stdev(samples) / statistics.fmean(samples)
        assert 0.08 < cv < 0.35

    def test_small_cv_small_spread(self):
        samples = [noise_multiplier(0.001, "amg", i) for i in range(100)]
        assert max(samples) < 1.01

    @settings(max_examples=30)
    @given(st.floats(0.0, 0.5), st.integers(0, 1000))
    def test_multiplier_bounded_below(self, cv, key):
        assert noise_multiplier(cv, key) >= 1.0

    def test_timer_floor(self):
        assert timer_resolution_floor(1e-9) == 1e-6
        assert timer_resolution_floor(0.5) == 0.5


class TestNoiseMoments:
    """The docstring's distributional contract: exp(sigma*|Z|) with
    support [1, inf), half-normal log, and the documented median/mean."""

    N = 4000

    def _samples(self, cv):
        return [noise_multiplier(cv, "moments", cv, i) for i in range(self.N)]

    @pytest.mark.parametrize("cv", [0.005, 0.05, 0.22])
    def test_support_is_one_to_infinity(self, cv):
        samples = self._samples(cv)
        assert min(samples) >= 1.0
        # the infimum 1.0 is approached but the multiplier sits above it
        assert min(samples) < 1.0 + 3 * cv

    @pytest.mark.parametrize("cv", [0.005, 0.05, 0.22])
    def test_median_is_half_normal_median(self, cv):
        import math

        sigma = math.sqrt(math.log(1.0 + cv * cv))
        expected = math.exp(0.67448975 * sigma)
        assert statistics.median(self._samples(cv)) == pytest.approx(
            expected, rel=5 * cv / self.N**0.5 + 1e-4
        )

    @pytest.mark.parametrize("cv", [0.005, 0.05, 0.22])
    def test_mean_is_folded_lognormal_mean(self, cv):
        import math

        sigma = math.sqrt(math.log(1.0 + cv * cv))
        phi = 0.5 * (1.0 + math.erf(sigma / math.sqrt(2.0)))
        expected = 2.0 * math.exp(sigma * sigma / 2.0) * phi
        assert statistics.fmean(self._samples(cv)) == pytest.approx(
            expected, rel=5 * cv / self.N**0.5 + 1e-4
        )
        # and the small-cv linearization quoted in the docstring
        assert expected == pytest.approx(
            1.0 + sigma * math.sqrt(2.0 / math.pi), abs=sigma * sigma
        )

    def test_mean_strictly_above_one(self):
        assert statistics.fmean(self._samples(0.05)) > 1.0

    def test_bit_identity_spot_values(self):
        # The compatibility contract: every journaled trial time, cache
        # key and golden campaign result depends on these bit-for-bit.
        assert noise_multiplier(0.0, "any") == 1.0
        assert noise_multiplier(0.05, "bench", "GNU", 3) == 1.0590140867878224
        assert noise_multiplier(0.22, "stream", 0) == 1.0747947197300007
        assert (
            noise_multiplier(0.005, "explore", "micro.k04", "GNU", "1x12", 0)
            == 1.0000560899441728
        )
        # The empty key hashes b"u1"/b"u2" (no leading separator), and
        # key parts format with str(), separators inside them included.
        assert noise_multiplier(0.05) == 1.035681808060634
        assert (
            noise_multiplier(0.1, "a|b", 2.5, -7, None, ("t", 1))
            == 1.0543467883463975
        )


def _reference_unit_uniform(*key_parts):
    """The pre-prefix-hashing draw: one sha256 per uniform."""
    digest = hashlib.sha256("|".join(str(p) for p in key_parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _reference_unit_normal(*key_parts):
    u1 = _reference_unit_uniform(*key_parts, "u1")
    u2 = _reference_unit_uniform(*key_parts, "u2")
    u1 = max(u1, 1e-12)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class TestUnitNormalExact:
    """``_unit_normal`` hashes the shared key prefix once; every draw
    must equal the two-hash reference formula bit for bit."""

    def test_seeded_keys_match_reference(self):
        rng = random.Random(20211)
        atoms = [
            lambda: rng.randrange(-10**6, 10**6),
            lambda: rng.uniform(-1e3, 1e3),
            lambda: rng.choice(["", "|", "a|b", "||", "GNU", "u1", "µ|x"]),
            lambda: "".join(rng.choice("ab|1 ") for _ in range(rng.randrange(6))),
            lambda: rng.choice([None, True, 0.0, -0.0, float("inf"), (1, "x|y")]),
        ]
        keys = [()] + [
            tuple(rng.choice(atoms)() for _ in range(rng.randrange(1, 7)))
            for _ in range(2000)
        ]
        for key in keys:
            assert _unit_normal(*key) == _reference_unit_normal(*key), key

    def test_empty_key_has_no_leading_separator(self):
        assert _unit_normal() == _reference_unit_normal()
        assert _unit_normal() != _reference_unit_normal("")
        assert _unit_normal("") == _reference_unit_normal("")


class TestOmpOverhead:
    def test_single_thread_free(self):
        assert omp_region_overhead_s(2.0, 1.0, 1) == 0.0

    def test_grows_with_threads(self):
        t12 = omp_region_overhead_s(2.0, 1.0, 12)
        t48 = omp_region_overhead_s(2.0, 1.0, 48)
        assert t48 > t12

    def test_reference_at_12_threads(self):
        assert omp_region_overhead_s(2.0, 1.0, 12) == pytest.approx(3e-6, rel=0.01)

    def test_barriers_scale(self):
        one = omp_region_overhead_s(2.0, 1.0, 12, barriers_per_invocation=1)
        four = omp_region_overhead_s(2.0, 1.0, 12, barriers_per_invocation=4)
        assert four > one


class TestNumaSpill:
    def _topo(self):
        return Topology("t", 4, 12)

    def test_no_penalty_within_domain(self):
        assert numa_spill_penalty(Placement(4, 12), self._topo()) == 1.0

    def test_flat_48_thread_run_penalized(self):
        assert numa_spill_penalty(Placement(1, 48), self._topo()) > 1.5

    def test_partial_spill_smaller(self):
        p2 = numa_spill_penalty(Placement(1, 24), self._topo())
        p4 = numa_spill_penalty(Placement(1, 48), self._topo())
        assert 1.0 < p2 < p4


class TestMpiModel:
    def test_no_comm_single_rank(self):
        assert MpiModel(0.2, "halo").comm_time_s(10.0, 1) == 0.0

    def test_no_comm_zero_fraction(self):
        assert MpiModel(0.0).comm_time_s(10.0, 8) == 0.0

    def test_reference_fraction_at_4_ranks(self):
        m = MpiModel(0.1, "allreduce")
        assert m.comm_time_s(10.0, 4) == pytest.approx(1.0, rel=0.02)

    def test_alltoall_grows_linearly(self):
        m = MpiModel(0.1, "alltoall")
        assert m.comm_time_s(10.0, 16) == pytest.approx(4 * m.comm_time_s(10.0, 4), rel=0.01)

    def test_halo_grows_slowly(self):
        m = MpiModel(0.1, "halo")
        assert m.comm_time_s(10.0, 32) < 2 * m.comm_time_s(10.0, 4)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            MpiModel(0.1, "butterfly").comm_time_s(10.0, 4)
