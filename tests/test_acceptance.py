"""Acceptance gate: every shipped guarantee at its pinned tolerance.

Each test prints one PASS line on success; a failure shows up as the
test's own FAILED line.  Reference optima and probabilities are frozen
regression values for the supported source/multiplexer scenarios, asserted
at the tolerances promised in the README.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from muxsps import (
    DetectorModel,
    HeraldingStrategy,
    MultiplexerModel,
    PairDistribution,
    PairKind,
    SourceConfig,
    comparison_map,
    optimize_units,
    output_distribution,
    closed_form,
    simulate,
)
from muxsps.statistics import pmf_array, truncation_length
from references import detect_conditional, detect_total, herald_probability, pair_pmf, transmit_conditional

SPD = HeraldingStrategy.single_photon()
THRESHOLD = HeraldingStrategy.threshold()


def tree_config(eff, router, strategy, mean=0.5, units=1):
    return SourceConfig(
        PairDistribution(PairKind.POISSONIAN, mean),
        DetectorModel(eff),
        strategy,
        MultiplexerModel.symmetric_spatial(router),
        units,
    )


def loop_config(eff, units, strategy, kind=PairKind.POISSONIAN, min_cycles=1):
    return SourceConfig(
        PairDistribution(kind, 0.5),
        DetectorModel(eff),
        strategy,
        MultiplexerModel.time_loop_latest(0.988, generic_transmission=0.88, min_cycles=min_cycles),
        units,
    )


def btm_config(eff, strategy):
    return SourceConfig(
        PairDistribution(PairKind.POISSONIAN, 0.5),
        DetectorModel(eff),
        strategy,
        MultiplexerModel.binary_bulk_time(0.97, 0.996, 0.95, generic_transmission=0.996),
        1,
    )


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_closed_form_equivalence():
    """Engine vs the closed form, P_0..P_3 of 100 random Poissonian configs, 1e-10."""
    rng = np.random.default_rng(424242)
    for trial in range(100):
        mean = rng.uniform(0.01, 5.0)
        eff = rng.uniform(0.3, 1.0)
        units = int([1, 2, 4, 8, 16][rng.integers(5)])
        if trial % 2 == 0:
            # one shared transmission for every unit
            survival = rng.uniform(0.3, 1.0)
            mux = MultiplexerModel.symmetric_spatial(1.0, generic_transmission=survival)
        else:
            # transmission varying from unit to unit, kept within [0.3, 1]
            mux = MultiplexerModel.time_chain(
                rng.uniform(0.95, 1.0), generic_transmission=rng.uniform(0.65, 1.0)
            )
        base = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, float(mean)), DetectorModel(float(eff)), SPD, mux, units
        )
        for cfg in (base, replace(base, strategy=THRESHOLD)):
            exact = output_distribution(cfg).probabilities[:4]
            assert exact == pytest.approx(closed_form(replace(cfg, i_max=3)), abs=1e-10)
    report(1, "closed-form oracle equivalence")


@pytest.mark.parametrize(
    "eff, router, n_opt, p1_max, lambda_opt",
    [
        (0.98, 0.98, 16, 0.912, 0.534),
        (0.90, 0.90, 8, 0.680, 0.812),
        (0.98, 0.30, 1, 0.361, 1.000),
    ],
)
def test_criterion_02_tree_single_photon_optima(eff, router, n_opt, p1_max, lambda_opt):
    result = optimize_units(tree_config(eff, router, SPD))
    assert result.n_opt[0] == n_opt
    assert result.p1_max[0] == pytest.approx(p1_max, abs=1e-3)
    assert result.lambda_opt[0] == pytest.approx(lambda_opt, abs=1e-2)
    report(2, f"tree single-photon optimum ({eff}, {router})")


def test_criterion_03_tree_threshold_optima():
    result = optimize_units(tree_config(0.98, 0.95, THRESHOLD))
    assert result.n_opt[0] == 16
    assert result.p1_max[0] == pytest.approx(0.735, abs=1e-3)
    assert result.lambda_opt[0] == pytest.approx(0.246, abs=1e-2)
    result = optimize_units(tree_config(0.30, 0.99, THRESHOLD))
    assert result.n_opt[0] == 1024
    assert result.p1_max[0] == pytest.approx(0.890, abs=1e-3)
    report(3, "tree threshold optima")


def test_criterion_04_reference_design_point():
    result = optimize_units(tree_config(0.95, 0.98, SPD))
    assert result.n_opt[0] == 16
    assert result.p1_max[0] == pytest.approx(0.90, abs=5e-3)
    assert result.lambda_opt[0] == pytest.approx(0.45, abs=1e-2)
    report(4, "reference 16-unit design point")


def test_criterion_05_heralding_mode_gap_extrema():
    favorable = comparison_map([0.98], [0.95], j_max=1)
    assert favorable.p1_spd[0, 0] - favorable.p1_threshold[0, 0] == pytest.approx(0.089, abs=2e-3)
    unfavorable = comparison_map([0.59], [0.30], j_max=1)
    assert unfavorable.p1_spd[0, 0] - unfavorable.p1_threshold[0, 0] == pytest.approx(-0.158, abs=2e-3)
    report(5, "single-photon vs threshold gap extrema")


def test_criterion_06_accepted_set_optimization():
    # a map cell is the tree's threshold optimum and its cutoff scan, of which cutoff 1 is single-photon heralding
    cell = comparison_map([0.90], [0.75], j_max=4)
    assert cell.j_opt[0, 0] == 2
    assert cell.p1_jopt[0, 0] > max(cell.p1_threshold[0, 0], cell.p1_spd[0, 0])
    assert comparison_map([0.98], [0.98], j_max=3).j_opt[0, 0] == 1
    report(6, "accepted-set cutoff optimization")


def test_criterion_07_release_latest_loop_optima():
    # the frozen reference optima for this scenario hold under the
    # zero-pass release convention (period-end slot leaves without a
    # loop pass)
    spd_40 = optimize_units(loop_config(0.98, 40, SPD, min_cycles=0))
    assert spd_40.p1_max[0] == pytest.approx(0.852, abs=1e-3)
    assert spd_40.lambda_opt[0] == pytest.approx(0.706, abs=1e-2)
    th_40 = optimize_units(loop_config(0.98, 40, THRESHOLD, min_cycles=0))
    assert th_40.p1_max[0] == pytest.approx(0.778, abs=1e-3)
    low_eff_40 = optimize_units(loop_config(0.60, 40, SPD, min_cycles=0))
    assert low_eff_40.p1_max[0] == pytest.approx(0.762, abs=1e-3)

    # saturation: more slots help by at most one tabulation step
    pairs = [
        (spd_40, optimize_units(loop_config(0.98, 100, SPD, min_cycles=0))),
        (th_40, optimize_units(loop_config(0.98, 100, THRESHOLD, min_cycles=0))),
        (low_eff_40, optimize_units(loop_config(0.60, 100, SPD, min_cycles=0))),
        (
            optimize_units(loop_config(0.60, 40, THRESHOLD, min_cycles=0)),
            optimize_units(loop_config(0.60, 100, THRESHOLD, min_cycles=0)),
        ),
    ]
    for forty, hundred in pairs:
        gain = hundred.p1_max[0] - forty.p1_max[0]
        assert -1e-9 <= gain <= 0.0045
    report(7, "release-latest loop optima and saturation")


def test_criterion_08_thermal_release_latest_loop():
    low_eff = optimize_units(loop_config(0.60, 40, SPD, kind=PairKind.THERMAL))
    assert low_eff.p1_max[0] == pytest.approx(0.713, abs=2e-3)
    high_eff = optimize_units(loop_config(0.98, 100, SPD, kind=PairKind.THERMAL))
    assert high_eff.p1_max[0] == pytest.approx(0.829, abs=2e-3)
    report(8, "thermal release-latest loop optima")


def test_criterion_09_binary_delay_optima():
    spd = optimize_units(btm_config(0.98, SPD))
    assert spd.n_opt[0] == 16
    assert spd.p1_max[0] == pytest.approx(0.907, abs=1e-3)
    assert spd.lambda_opt[0] == pytest.approx(0.600, abs=1e-2)
    threshold = optimize_units(btm_config(0.98, THRESHOLD))
    assert threshold.n_opt[0] == 128
    assert threshold.p1_max[0] == pytest.approx(0.854, abs=1e-3)
    low_eff = optimize_units(btm_config(0.60, SPD))
    assert low_eff.n_opt[0] == 128
    assert low_eff.p1_max[0] == pytest.approx(0.849, abs=1e-3)
    report(9, "binary delay network optima")


def _random_simulation_config(rng):
    kind = [PairKind.POISSONIAN, PairKind.THERMAL][rng.integers(2)]
    mean = rng.uniform(0.5, 2.0)
    eff = rng.uniform(0.5, 0.9)
    strategy = [SPD, HeraldingStrategy.up_to(2), THRESHOLD][rng.integers(3)]
    generic = rng.uniform(0.9, 1.0)
    topology = rng.integers(4)
    if topology == 0:
        mux = MultiplexerModel.symmetric_spatial(rng.uniform(0.85, 1.0), generic_transmission=generic)
        units = int([2, 4, 8][rng.integers(3)])
    elif topology == 1:
        mux = MultiplexerModel.time_chain(rng.uniform(0.9, 1.0), generic_transmission=generic)
        units = int(rng.integers(2, 11))
    elif topology == 2:
        mux = MultiplexerModel.time_loop_latest(rng.uniform(0.9, 1.0), generic_transmission=generic)
        units = int(rng.integers(2, 11))
    else:
        mux = MultiplexerModel.binary_bulk_time(
            rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0), generic_transmission=generic
        )
        units = int([2, 4, 8][rng.integers(3)])
    return SourceConfig(
        PairDistribution(kind, float(mean)), DetectorModel(float(eff)), strategy, mux, units
    )


def test_criterion_10_sampled_pipeline_agreement():
    """Twenty random scenarios, ten million pulses each, within 4 sigma."""
    rng = np.random.default_rng(20260808)
    for k in range(20):
        cfg = _random_simulation_config(rng)
        exact = output_distribution(cfg)
        estimate = simulate(cfg, 10_000_000, seed=1000 + k)
        for i in range(4):
            assert abs(estimate.p_hat[i] - exact[i]) <= 4.0 * estimate.std_err[i], (k, i, cfg)
    report(10, "sampled pipeline agreement")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(99)

    # detection completeness
    for _ in range(50):
        l = int(rng.integers(0, 51))
        det = DetectorModel(float(rng.uniform(0, 1)))
        assert math.fsum(detect_conditional(j, l, det) for j in range(l + 1)) == pytest.approx(1.0, abs=1e-12)

    # survival completeness
    for _ in range(50):
        l = int(rng.integers(0, 51))
        survival = float(rng.uniform(0, 1))
        assert math.fsum(transmit_conditional(i, l, survival) for i in range(l + 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    # pair pmf normalization up to the truncation point
    for _ in range(50):
        kind = [PairKind.POISSONIAN, PairKind.THERMAL][rng.integers(2)]
        dist = PairDistribution(kind, float(rng.uniform(0, 20)))
        assert pmf_array(dist.kind, dist.mean, truncation_length(dist, 1e-12)).sum() >= 1.0 - 1e-12

    # thinning closure for both source kinds
    for _ in range(50):
        kind = [PairKind.POISSONIAN, PairKind.THERMAL][rng.integers(2)]
        mean = float(rng.uniform(0.01, 8.0))
        eff = float(rng.uniform(0, 1))
        j = int(rng.integers(0, 21))
        got = detect_total(j, PairDistribution(kind, mean), DetectorModel(eff), tail_tol=1e-12)
        assert got == pytest.approx(pair_pmf(PairDistribution(kind, mean * eff), j), abs=1e-11)

    # herald probability monotone under set inclusion
    for _ in range(50):
        dist = PairDistribution(PairKind.POISSONIAN, float(rng.uniform(0.01, 5.0)))
        det = DetectorModel(float(rng.uniform(0, 1)))
        base = frozenset(int(j) for j in rng.choice(np.arange(1, 9), size=rng.integers(1, 5), replace=False))
        extra = base | {int(rng.integers(1, 9))}
        small = herald_probability(HeraldingStrategy(accepted=base), dist, det)
        large = herald_probability(HeraldingStrategy(accepted=frozenset(extra)), dist, det)
        assert small <= large + 1e-15

    # lossless limit: only exactly-one-pair pulses ever herald
    for _ in range(50):
        mean = float(rng.uniform(0.05, 3.0))
        units = int([1, 2, 4, 8, 16][rng.integers(5)])
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, mean),
            DetectorModel(1.0),
            SPD,
            MultiplexerModel.symmetric_spatial(1.0),
            units,
        )
        want = 1.0 - (1.0 - mean * math.exp(-mean)) ** units
        assert output_distribution(cfg)[1] == pytest.approx(want, rel=1e-12)

    report(11, "property suites")
