"""Sampled-pipeline oracle: reproducibility and agreement with the engine."""

import importlib
import math

import numpy as np
import pytest

from muxsps.engine import SourceConfig, closed_form, output_distribution
from muxsps.losses import MultiplexerModel
from muxsps.simulate import BLOCK_SIZE, SimulationEstimate, simulate
from muxsps.statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind


def tree_config(mean, eff, router, units, strategy=None, kind=PairKind.POISSONIAN):
    return SourceConfig(
        PairDistribution(kind, mean),
        DetectorModel(eff),
        strategy or HeraldingStrategy.single_photon(),
        MultiplexerModel.symmetric_spatial(router),
        units,
    )


# the package re-exports the function ``simulate`` under the module's name
sampler = importlib.import_module("muxsps.simulate")


def _assert_only_vacuum(cfg):
    p_h, cdf, _, pairs = sampler._states(cfg)
    assert p_h == 0.0 and cdf.size == 0 and pairs.size == 0
    est = simulate(cfg, 100_000, seed=7)
    assert est.counts[0] == 100_000
    assert est.p_hat[0] == 1.0


def test_no_pairs_all_vacuum():
    _assert_only_vacuum(tree_config(0.0, 0.9, 0.9, 4))
    _assert_only_vacuum(tree_config(0.0, 0.9, 0.9, 4, strategy=HeraldingStrategy.threshold()))


def test_zero_efficiency_gives_only_vacuum():
    # every reading is 0, which never heralds
    _assert_only_vacuum(tree_config(2.0, 0.0, 0.9, 4, strategy=HeraldingStrategy.threshold()))
    _assert_only_vacuum(tree_config(2.0, 0.0, 0.9, 4))


def test_counts_account_for_every_sample():
    est = simulate(tree_config(0.8, 0.7, 0.9, 8), 50_000, seed=3)
    assert sum(est.counts) == 50_000
    assert est.samples == 50_000


def test_reproducible_across_runs():
    cfg = tree_config(0.6, 0.8, 0.95, 4)
    first = simulate(cfg, 123_456, seed=99)
    second = simulate(cfg, 123_456, seed=99)
    assert first == second


def test_seed_changes_histogram():
    cfg = tree_config(0.6, 0.8, 0.95, 4)
    assert simulate(cfg, 100_000, seed=1).counts != simulate(cfg, 100_000, seed=2).counts


def test_sample_count_not_block_aligned():
    # merging a partial final block must count every sample exactly once
    samples = BLOCK_SIZE + 77
    est = simulate(tree_config(0.5, 0.9, 0.9, 2), samples, seed=5)
    assert sum(est.counts) == samples


def test_single_lossless_unit_matches_heralded_poisson():
    cfg = tree_config(1.0, 1.0, 1.0, 1)
    est = simulate(cfg, 1_000_000, seed=11)
    assert est.sigma(1, math.exp(-1.0)) <= 4.0


def test_reference_tree_operating_point():
    cfg = tree_config(0.45, 0.95, 0.98, 16)
    est = simulate(cfg, 1_000_000, seed=13)
    exact = output_distribution(cfg)
    for i in range(4):
        assert est.sigma(i, exact[i]) <= 4.0


def test_thermal_source_agrees_with_engine():
    cfg = tree_config(0.7, 0.8, 0.95, 4, kind=PairKind.THERMAL)
    est = simulate(cfg, 1_000_000, seed=17)
    exact = output_distribution(cfg)
    for i in range(4):
        assert est.sigma(i, exact[i]) <= 4.0


def test_threshold_strategy_agrees_with_engine():
    cfg = tree_config(0.9, 0.6, 0.9, 8, strategy=HeraldingStrategy.threshold())
    est = simulate(cfg, 1_000_000, seed=19)
    exact = output_distribution(cfg)
    for i in range(4):
        assert est.sigma(i, exact[i]) <= 4.0


def test_sigma_handles_empty_bins():
    est = SimulationEstimate(counts=(10, 0), samples=10, p_hat=(1.0, 0.0), std_err=(0.0, 0.0))
    assert est.sigma(1, 0.0) == 0.0
    assert est.sigma(1, 1e-9) == pytest.approx(1e-4)  # the reference's spread, sqrt(1e-9 (1 - 1e-9) / 10)
    assert est.sigma(0, 0.0) == math.inf


def test_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        simulate(tree_config(0.5, 0.9, 0.9, 2), 0, seed=1)


def test_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        simulate(tree_config(0.5, 0.9, 0.9, 2), 10, seed=-1)


@pytest.mark.parametrize("efficiency", [0.0, 0.05, 0.6, 0.999, 1.0])
@pytest.mark.parametrize(
    "strategy",
    [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(10),
     HeraldingStrategy(frozenset({2, 5}))],
    ids=["threshold", "1", "up-to-10", "2,5"],
)
def test_herald_given_pairs_matches_the_binomial_sums(efficiency, strategy):
    def reading(l, r):
        return math.comb(l, r) * efficiency**r * (1.0 - efficiency) ** (l - r)

    if strategy.is_threshold:
        exact = [1.0 - (1.0 - efficiency) ** l for l in range(900)]
    else:
        exact = [math.fsum(reading(l, r) for r in strategy.accepted if r <= l) for l in range(900)]
    assert sampler._herald_given_pairs(strategy, efficiency, 900).tolist() == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize("mean", [1e-4, 0.5, 1.0, 5.0, 20.0])
def test_poissonian_pair_tail_left_out_is_below_resolution(mean):
    pmf = sampler._pair_pmf(PairDistribution(PairKind.POISSONIAN, mean))
    tail = math.fsum(math.exp(l * math.log(mean) - mean - math.lgamma(l + 1)) for l in range(pmf.size, pmf.size + 500))
    assert tail < 2.0**-53
    assert pmf == pytest.approx([math.exp(l * math.log(mean) - mean - math.lgamma(l + 1)) for l in range(pmf.size)], rel=1e-12)


@pytest.mark.parametrize("mean", [1e-4, 0.8, 20.0])
def test_thermal_pair_tail_left_out_is_below_resolution(mean):
    pmf = sampler._pair_pmf(PairDistribution(PairKind.THERMAL, mean))
    ratio = mean / (1.0 + mean)
    # the tail beyond l is ratio**(l + 1): below 2**-60 at the last row, not before it
    assert ratio**pmf.size < 2.0**-60 <= ratio ** (pmf.size - 1)
    assert pmf == pytest.approx(ratio ** np.arange(pmf.size) / (1.0 + mean), rel=1e-12)


def test_unit_efficiency_single_photon_agrees_with_engine():
    cfg = tree_config(0.6, 1.0, 0.9, 4)
    est = simulate(cfg, 1_000_000, seed=23)
    exact = output_distribution(cfg)
    for i in range(4):
        assert est.sigma(i, exact[i]) <= 4.0


def test_bright_thermal_source_table_size_and_agreement():
    cfg = tree_config(20.0, 0.8, 0.9, 4, strategy=HeraldingStrategy.up_to(10), kind=PairKind.THERMAL)
    cdf = sampler._states(cfg)[1]
    # only heralding states are kept: at most one per pair number
    assert cdf.size <= sampler._pair_pmf(cfg.dist).size
    est = simulate(cfg, 1_000_000, seed=29)
    exact = output_distribution(cfg)
    for i in range(4):
        assert est.sigma(i, exact[i]) <= 4.0


@pytest.mark.parametrize(
    "strategy, heralding_pairs",
    [(HeraldingStrategy.threshold(), range(1, 100)), (HeraldingStrategy.single_photon(), {1}),
     (HeraldingStrategy(frozenset({2, 3})), {2, 3})],
)
def test_overflow_reading_heralds_only_under_threshold(strategy, heralding_pairs):
    # at unit efficiency every pair is detected, so a pair number heralds iff it is an
    # accepted count, or any number above 0 under threshold heralding
    cfg = tree_config(2.0, 1.0, 0.9, 2, strategy=strategy)
    length = sampler._pair_pmf(cfg.dist).size
    _, _, _, pairs = sampler._states(cfg)
    assert length > 5
    assert pairs.tolist() == [l for l in range(length) if l in heralding_pairs]


def _herald_probability(cfg):
    """Sum over l of P(l) times P(accepted reading | l), from math.comb, to l = 400."""
    mean, eff = cfg.dist.mean, cfg.detector.efficiency
    if cfg.dist.kind is PairKind.THERMAL:
        pair = [(mean / (1.0 + mean)) ** l / (1.0 + mean) for l in range(400)]
    else:
        pair = [math.exp(l * math.log(mean) - mean - math.lgamma(l + 1)) for l in range(400)]

    def reading(l, r):
        return math.comb(l, r) * eff**r * (1.0 - eff) ** (l - r)

    if cfg.strategy.is_threshold:
        return math.fsum(p * (1.0 - (1.0 - eff) ** l) for l, p in enumerate(pair))
    return math.fsum(p * reading(l, r) for l, p in enumerate(pair) for r in cfg.strategy.accepted if r <= l)


@pytest.mark.parametrize("kind", list(PairKind))
@pytest.mark.parametrize("mean", [0.05, 1.0, 6.0])
@pytest.mark.parametrize("eff", [0.3, 0.9, 1.0])
@pytest.mark.parametrize(
    "strategy",
    [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3),
     HeraldingStrategy(frozenset({2, 5}))],
)
def test_herald_probability_is_the_sum_over_accepted_readings(kind, mean, eff, strategy):
    cfg = tree_config(mean, eff, 0.9, 2, strategy=strategy, kind=kind)
    p_h, cdf, _, _ = sampler._states(cfg)
    assert p_h == cdf[-1]
    assert abs(p_h - _herald_probability(cfg)) <= 1e-12


@pytest.mark.parametrize("kind", list(PairKind))
def test_guide_table_draw_equals_plain_inverse_cdf(kind):
    for strategy in (HeraldingStrategy.up_to(3), HeraldingStrategy.threshold()):
        p_h, cdf, guide, _ = sampler._states(tree_config(1.5, 0.7, 0.9, 2, strategy=strategy, kind=kind))
        u = np.random.default_rng(3).random(400_000)
        u = u[u < p_h]
        assert u.size > 50_000
        assert np.array_equal(sampler._draw_states(u, p_h, cdf, guide), np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("kind", list(PairKind))
@pytest.mark.parametrize("mean, eff", [(0.1, 0.3), (1.5, 0.7), (20.0, 1.0)])
def test_largest_uniform_below_herald_probability_maps_inside_the_table(kind, mean, eff):
    p_h, cdf, guide, _ = sampler._states(tree_config(mean, eff, 0.9, 2, strategy=HeraldingStrategy.up_to(3), kind=kind))
    # u * guide.size / p_h can round up to guide.size itself
    u = np.array([np.nextafter(p_h, 0.0), 0.0])
    drawn = sampler._draw_states(u, p_h, cdf, guide)
    assert np.array_equal(drawn, np.searchsorted(cdf, u, side="right"))
    assert drawn.max() < cdf.size


def test_sampler_binds_no_engine_series():
    # the sampler is an oracle for the series engine, so it computes its own pmfs
    shared = {"pmf_array", "herald_weights", "binomial_coefficients", "log_factorials", "truncation_length",
              "p1_profile", "output_distribution"}
    assert shared.isdisjoint(vars(sampler))


@pytest.mark.parametrize("p_h", [1e-320, 5e-324, 0.3, 1.0, 1.0000000000000002])
def test_scaled_state_uniform_stays_below_the_herald_probability(p_h):
    # the largest uniform is 1 - 2**-53; times a subnormal p_h it rounds up to p_h
    r = np.array([1.0 - 2.0**-53, 0.5, 0.0])
    assert (r[0] * p_h == p_h) == (p_h < 2.0**-1022)
    assert (sampler._state_uniforms(r, p_h) < p_h).all()


def test_herald_probability_one_heralds_every_pulse_at_the_first_unit():
    # threshold heralding at V_D = 1 misses only when no pair is made: e**-40 is lost against 1
    cfg = SourceConfig(
        PairDistribution(PairKind.POISSONIAN, 40.0),
        DetectorModel(1.0),
        HeraldingStrategy.threshold(),
        MultiplexerModel.time_loop_latest(0.5, generic_transmission=0.05),
        4,
    )
    p_h = sampler._states(cfg)[0]
    assert p_h >= 1.0
    u = np.random.default_rng(5).random(100_000)
    assert np.array_equal(sampler._first_heralds(np.append(u, [0.0, 1.0 - 2.0**-53]), p_h, 4), np.zeros(100_002))
    # only unit 1's transmission, 1/40, acts on the 40 pairs: P_i = e**-1 / i!
    est = simulate(cfg, 1_000_000, seed=31)
    for i, reference in enumerate(closed_form(cfg)[:4]):
        assert reference == pytest.approx(math.exp(-1.0) / math.factorial(i), rel=1e-3)
        assert est.sigma(i, reference) <= 4.0


def test_subnormal_herald_probability_samples_without_warnings():
    # pytest turns a RuntimeWarning into an error; an overflow in the unit index
    # or the guide table's bucket would raise one
    cfg = tree_config(1e-10, 1e-310, 0.9, 4)
    p_h, cdf, guide, _ = sampler._states(cfg)
    assert 0.0 < p_h < 2.0**-1022
    assert np.array_equal(sampler._first_heralds(np.array([0.0, 0.5, 1.0 - 2.0**-53]), p_h, 4), [0])
    u = sampler._state_uniforms(np.array([1.0 - 2.0**-53, 0.5, 0.0]), p_h)
    assert np.array_equal(sampler._draw_states(u, p_h, cdf, guide), np.searchsorted(cdf, u, side="right"))
    assert simulate(cfg, 100_000, seed=37).counts[0] == 100_000


def test_first_heralds_follow_the_geometric_law():
    # at p = 1/2, u in [0, 1/2) heralds at unit 0, [1/2, 3/4) at 1, [3/4, 7/8) at 2, and the rest not at all
    u = np.array([0.0, 0.3, 0.5, 0.51, 0.75, 0.875, 0.9])
    assert sampler._first_heralds(u, 0.5, 3).tolist() == [0, 0, 1, 1, 2]
    assert sampler._first_heralds(u, 0.0, 3).size == 0


def test_long_time_chain_agrees_with_closed_form():
    # criterion 10's chains stop at 10 units; a 32-unit chain reaches deep priority positions
    cfg = SourceConfig(
        PairDistribution(PairKind.POISSONIAN, 0.5),
        DetectorModel(0.6),
        HeraldingStrategy.single_photon(),
        MultiplexerModel.time_chain(0.95, generic_transmission=0.95),
        32,
    )
    est = simulate(cfg, 1_000_000, seed=41)
    for i, reference in enumerate(closed_form(cfg)[:4]):
        assert est.sigma(i, reference) <= 4.0
