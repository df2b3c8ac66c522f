"""Pair-source, detector and heralding statistics.

Reference values are frozen from independent oracles: exact rational
series sums, closed-form thinning identities, and brute-force enumeration
over individual photon fates.
"""

import math
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muxsps.statistics import (
    MAX_SERIES_LENGTH,
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    ParameterError,
    herald_weights,
    log_factorials,
    pmf_array,
    truncation_length,
)
from references import detect_conditional, detect_total, herald_probability, pair_pmf


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
            arr = pmf_array(dist.kind, dist.mean, 12)
            assert arr == pytest.approx([pair_pmf(dist, l) for l in range(13)], rel=1e-13)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            PairDistribution(PairKind.POISSONIAN, -0.1)

    def test_log_factorial_table(self):
        table = log_factorials(25)
        assert not table.flags.writeable
        assert table == pytest.approx([math.log(math.factorial(k)) for k in range(26)], rel=1e-14, abs=1e-15)

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
        assert pmf_array(dist.kind, dist.mean, l_max).sum() >= 1.0 - tail_tol

    @pytest.mark.parametrize(
        "kind, mean",
        [(kind, mean) for kind in PairKind for mean in (1e-6, 1e-3, 0.05, 0.5, 1.0, 3.7, 12.765, 13.818, 14.592, 15.1026, 20.0)]
        + [(PairKind.POISSONIAN, mean) for mean in (650.0, 700.0, 708.0, 720.0, 745.0, 760.0, 800.0, 3000.0)],
    )
    @pytest.mark.parametrize("tail_tol", [1e-9, 1e-12, 1e-12 / 1024, 1e-18])
    def test_truncation_past_the_normal_range_of_exp(self, kind, mean, tail_tol):
        # the cutoff sits at or one past the least L whose upper tail, summed
        # from log-space terms, is below 0.99 * tail_tol: also where exp(-mean)
        # is subnormal (past a mean of about 708) or 0 (past 745), and at
        # tolerances a float running sum cannot resolve (1e-12 / 1024 is a
        # 1024-unit lane's, and at 12.765 ... 15.1026 such a sum overran or
        # stopped short)
        ls = np.arange(MAX_SERIES_LENGTH + 2.0)
        if kind is PairKind.POISSONIAN:
            log_terms = ls * math.log(mean) - mean - np.array([math.lgamma(l + 1.0) for l in ls])
        else:
            log_terms = ls * math.log(mean / (1.0 + mean)) - math.log1p(mean)
        log_tails = np.logaddexp.accumulate(log_terms[::-1])[::-1]  # log_tails[l]: mass at l and above
        least = int(np.argmax(log_tails[1:] < math.log(0.99 * tail_tol)))
        assert least <= truncation_length(PairDistribution(kind, mean), tail_tol) <= least + 1

    @pytest.mark.parametrize(
        "kind, mean", [(PairKind.POISSONIAN, 3900.0), (PairKind.POISSONIAN, 1e300), (PairKind.THERMAL, 300.0), (PairKind.THERMAL, 1e17)]
    )
    def test_truncation_refuses_series_past_the_cap(self, kind, mean):
        with pytest.raises(ParameterError) as raised:
            truncation_length(PairDistribution(kind, mean), 1e-12)
        assert raised.value.name == "mean"
        assert truncation_length(PairDistribution(kind, 20.0), 1e-12) < MAX_SERIES_LENGTH


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

    @pytest.mark.parametrize("eff", [0.0, 0.37, 0.9, 1.0])
    @pytest.mark.parametrize(
        "strategy",
        [HeraldingStrategy.threshold(), HeraldingStrategy.up_to(6), HeraldingStrategy(accepted=frozenset({2, 9}))],
        ids=["threshold", "up-to-6", "set-2-9"],
    )
    def test_long_table_slices_to_short_one(self, strategy, eff):
        # a lane search computes the weights once, at its longest series,
        # and slices them for shorter ones: the values must not move
        det = DetectorModel(eff)
        long = herald_weights(strategy, det, 700)
        for l_max in (0, 1, 5, 8, 40, 699):
            assert np.array_equal(long[: l_max + 1], herald_weights(strategy, det, l_max))

    @pytest.mark.parametrize("l_max", [0, 1, 2, 5, 65, 200])
    @pytest.mark.parametrize("accepted", [{1}, {2}, {1, 2, 3}, {3, 7}, {10}, set(range(1, 11))], ids=str)
    def test_lossless_detector_heralds_exactly_the_accepted_counts(self, accepted, l_max):
        # at unit efficiency l arriving photons are all detected: weight 1 at an accepted l, else 0
        weights = herald_weights(HeraldingStrategy(accepted=frozenset(accepted)), DetectorModel(1.0), l_max)
        assert np.array_equal(weights, [float(l in accepted) for l in range(l_max + 1)])

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

    def test_up_to_needs_a_count(self):
        # up_to(0) is the empty set, which the constructor rejects
        with pytest.raises(ParameterError) as raised:
            HeraldingStrategy.up_to(0)
        assert raised.value.name == "accepted"

    def test_labels(self):
        assert HeraldingStrategy.threshold().label == "all"
        assert HeraldingStrategy.up_to(3).label == "1,2,3"


def test_parameter_error_survives_pickle():
    # errors from worker processes come back pickled
    with pytest.raises(ParameterError) as info:
        PairDistribution(PairKind.POISSONIAN, -1.0)
    again = pickle.loads(pickle.dumps(info.value))
    assert (again.name, again.reason, str(again)) == ("mean", info.value.reason, str(info.value))


def test_import_leaves_out_scipy():
    # numpy is the one runtime dependency
    probe = "import sys, muxsps; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
