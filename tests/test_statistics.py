"""Pair-source, detector and heralding statistics.

Reference values are frozen from independent oracles: exact rational
series sums, closed-form thinning identities, and brute-force enumeration
over individual photon fates.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muxsps.statistics import (
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    detect_conditional,
    detect_total,
    herald_probability,
    herald_weights,
    pair_pmf,
    pmf_array,
    truncation_length,
)


def brute_force_k_of_n(k: int, n: int, p: float) -> float:
    """Enumerate all 2^n survive/lose patterns; sum those with k survivors."""
    frac = Fraction(p)  # exact binary value of the float
    total = sum(
        math.prod([frac if kept else 1 - frac for kept in pattern])
        for pattern in product([0, 1], repeat=n)
        if sum(pattern) == k
    )
    return float(total)


class TestPairPmf:
    def test_zero_mean_is_degenerate(self):
        dist = PairDistribution(PairKind.POISSONIAN, 0.0)
        assert pair_pmf(dist, 0) == 1.0
        assert pair_pmf(dist, 3) == 0.0

    def test_poissonian_single_pair_ceiling(self):
        # lam = 1 maximizes the single-pair probability at 1/e
        dist = PairDistribution(PairKind.POISSONIAN, 1.0)
        assert pair_pmf(dist, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_thermal_exact_rational(self):
        # mean^l / (1+mean)^(l+1) at mean=1, l=2 is exactly 1/8
        dist = PairDistribution(PairKind.THERMAL, 1.0)
        assert pair_pmf(dist, 2) == pytest.approx(0.125, rel=1e-14)

    def test_array_matches_scalar(self):
        for kind in PairKind:
            dist = PairDistribution(kind, 0.8)
            arr = pmf_array(dist, 12)
            assert arr == pytest.approx([pair_pmf(dist, l) for l in range(13)], rel=1e-13)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            PairDistribution(PairKind.POISSONIAN, -0.1)

    @given(
        kind=st.sampled_from(list(PairKind)),
        mean=st.floats(0.0, 20.0),
        tail_tol=st.sampled_from([1e-9, 1e-12]),
    )
    # the exact tail is within tolerance at L=1, the float sum is not
    @example(kind=PairKind.THERMAL, mean=1e-6, tail_tol=1e-12)
    def test_truncation_captures_tail(self, kind, mean, tail_tol):
        dist = PairDistribution(kind, mean)
        l_max = truncation_length(dist, tail_tol)
        assert pmf_array(dist, l_max).sum() >= 1.0 - tail_tol


class TestDetectConditional:
    def test_empty_event(self):
        assert detect_conditional(0, 0, DetectorModel(0.37)) == 1.0

    def test_perfect_detector(self):
        assert detect_conditional(5, 5, DetectorModel(1.0)) == 1.0

    def test_one_of_three_against_enumeration(self):
        got = detect_conditional(1, 3, DetectorModel(0.6))
        assert got == pytest.approx(brute_force_k_of_n(1, 3, 0.6), rel=1e-12)
        assert got == pytest.approx(0.288, rel=1e-12)  # 36/125

    def test_more_detected_than_arrived_is_callers_bug(self):
        with pytest.raises(ValueError):
            detect_conditional(4, 3, DetectorModel(0.5))

    @given(l=st.integers(0, 50), eff=st.floats(0.0, 1.0))
    def test_completeness(self, l, eff):
        det = DetectorModel(eff)
        total = math.fsum(detect_conditional(j, l, det) for j in range(l + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(l=st.integers(0, 6), j=st.integers(0, 6), eff=st.floats(0.05, 0.95))
    def test_small_cases_against_enumeration(self, l, j, eff):
        if j > l:
            return
        got = detect_conditional(j, l, DetectorModel(eff))
        assert got == pytest.approx(brute_force_k_of_n(j, l, eff), rel=1e-9, abs=1e-12)


class TestDetectTotal:
    def test_no_pairs_always_zero_detections(self):
        dist = PairDistribution(PairKind.POISSONIAN, 0.0)
        assert detect_total(0, dist, DetectorModel(0.9)) == 1.0

    def test_poissonian_thinning_point(self):
        # frozen from an exact rational series times exp(-mean)
        dist = PairDistribution(PairKind.POISSONIAN, 0.5)
        got = detect_total(1, dist, DetectorModel(0.8))
        assert got == pytest.approx(0.2681280184142557, rel=1e-12)

    def test_thermal_thinning_point(self):
        # frozen from an exact rational series (thermal terms are rational)
        dist = PairDistribution(PairKind.THERMAL, 0.5)
        got = detect_total(1, dist, DetectorModel(0.8))
        assert got == pytest.approx(0.20408163265306123, rel=1e-12)

    @given(
        mean=st.floats(0.01, 8.0),
        eff=st.floats(0.0, 1.0),
        j=st.integers(0, 20),
    )
    @settings(max_examples=60)
    def test_thinning_closure_poissonian(self, mean, eff, j):
        # detection statistics of a thinned Poissonian are Poissonian
        dist = PairDistribution(PairKind.POISSONIAN, mean)
        got = detect_total(j, dist, DetectorModel(eff), tail_tol=1e-12)
        want = pair_pmf(PairDistribution(PairKind.POISSONIAN, mean * eff), j)
        assert got == pytest.approx(want, abs=1e-11)

    @given(
        mean=st.floats(0.01, 8.0),
        eff=st.floats(0.0, 1.0),
        j=st.integers(0, 20),
    )
    @settings(max_examples=60)
    def test_thinning_closure_thermal(self, mean, eff, j):
        dist = PairDistribution(PairKind.THERMAL, mean)
        got = detect_total(j, dist, DetectorModel(eff), tail_tol=1e-12)
        want = pair_pmf(PairDistribution(PairKind.THERMAL, mean * eff), j)
        assert got == pytest.approx(want, abs=1e-11)


class TestHeraldProbability:
    def test_no_pairs_no_heralds(self):
        dist = PairDistribution(PairKind.POISSONIAN, 0.0)
        assert herald_probability(HeraldingStrategy.single_photon(), dist, DetectorModel(0.9)) == 0.0

    def test_threshold_poissonian_closed_form(self):
        dist = PairDistribution(PairKind.POISSONIAN, 0.7)
        got = herald_probability(HeraldingStrategy.threshold(), dist, DetectorModel(0.85))
        assert got == pytest.approx(0.4484374341321702, rel=1e-12)

    def test_pair_set_frozen_series_value(self):
        dist = PairDistribution(PairKind.POISSONIAN, 0.5)
        strategy = HeraldingStrategy(accepted=frozenset({1, 2}))
        got = herald_probability(strategy, dist, DetectorModel(0.9))
        assert got == pytest.approx(0.3514925185815025, rel=1e-12)

    def test_pair_set_against_sampling(self):
        rng = np.random.default_rng(20260808)
        pairs = rng.poisson(0.5, size=10_000_000)
        detected = rng.binomial(pairs, 0.9)
        p_hat = np.isin(detected, [1, 2]).mean()
        std_err = math.sqrt(p_hat * (1 - p_hat) / pairs.size)
        assert abs(p_hat - 0.3514925185815025) <= 4 * std_err

    def test_accepted_above_resolution_rejected(self):
        strategy = HeraldingStrategy(accepted=frozenset({1, 5}))
        with pytest.raises(ValueError):
            herald_probability(strategy, PairDistribution(PairKind.POISSONIAN, 1.0), DetectorModel(0.9, resolution_cap=4))

    @given(
        mean=st.floats(0.01, 5.0),
        eff=st.floats(0.0, 1.0),
        base=st.sets(st.integers(1, 8), min_size=1, max_size=4),
        extra=st.sets(st.integers(1, 8), max_size=4),
    )
    @settings(max_examples=60)
    def test_monotone_in_set_inclusion(self, mean, eff, base, extra):
        dist = PairDistribution(PairKind.POISSONIAN, mean)
        det = DetectorModel(eff)
        small = HeraldingStrategy(accepted=frozenset(base))
        large = HeraldingStrategy(accepted=frozenset(base | extra))
        assert herald_probability(small, dist, det) <= herald_probability(large, dist, det) + 1e-15

    @given(mean=st.floats(0.01, 5.0), eff=st.floats(0.01, 1.0))
    @settings(max_examples=40)
    def test_threshold_equals_summed_detections(self, mean, eff):
        # any-click probability must match the summed count-resolved ones
        # up to the truncated tail
        tail_tol = 1e-12
        dist = PairDistribution(PairKind.POISSONIAN, mean)
        det = DetectorModel(eff)
        threshold = herald_probability(HeraldingStrategy.threshold(), dist, det, tail_tol)
        l_max = truncation_length(dist, tail_tol)
        summed = math.fsum(detect_total(j, dist, det, tail_tol) for j in range(1, l_max + 1))
        assert threshold == pytest.approx(summed, abs=10 * tail_tol)


class TestHeraldWeights:
    def test_zero_pairs_never_herald(self):
        det = DetectorModel(0.9)
        for strategy in (HeraldingStrategy.threshold(), HeraldingStrategy.up_to(2)):
            assert herald_weights(strategy, det, 6)[0] == 0.0

    @given(eff=st.floats(0.0, 1.0), l=st.integers(0, 40))
    def test_threshold_weight_is_any_click(self, eff, l):
        weights = herald_weights(HeraldingStrategy.threshold(), DetectorModel(eff), l)
        assert weights[l] == pytest.approx(1.0 - (1.0 - eff) ** l, abs=1e-12)

    def test_set_weights_sum_detect_columns(self):
        det = DetectorModel(0.75)
        strategy = HeraldingStrategy(accepted=frozenset({1, 3}))
        weights = herald_weights(strategy, det, 10)
        for l in range(11):
            want = sum(detect_conditional(j, l, det) for j in (1, 3) if j <= l)
            assert weights[l] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestStrategyValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            HeraldingStrategy(accepted=frozenset())

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            HeraldingStrategy(accepted=frozenset({0, 1}))

    def test_labels(self):
        assert HeraldingStrategy.threshold().label == "all"
        assert HeraldingStrategy.up_to(3).label == "1,2,3"
