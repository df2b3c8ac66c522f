"""Pump, unit-count and accepted-set optimization."""

import math

import numpy as np
import pytest

from muxsps.engine import SourceConfig, output_distribution
from muxsps.losses import MultiplexerModel
from muxsps.optimize import (
    LAMBDA_TOL,
    comparison_map,
    default_unit_candidates,
    maximize_over_lambda,
    optimize_strategy,
    optimize_units,
)
from muxsps.statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind
from scalar_search import scalar_maximize_over_lambda


def tree_template(eff, router, strategy):
    return SourceConfig(
        PairDistribution(PairKind.POISSONIAN, 0.5),
        DetectorModel(eff),
        strategy,
        MultiplexerModel.symmetric_spatial(router),
        1,
    )


class TestMaximizeOverLambda:
    def test_single_lossless_unit(self):
        # P_1 = mean * exp(-mean): peak at mean 1, value 1/e
        cfg = tree_template(1.0, 1.0, HeraldingStrategy.single_photon())
        (point,) = maximize_over_lambda(cfg, [1])
        assert point.units == 1
        assert point.lambda_opt == pytest.approx(1.0, abs=1e-3)
        assert point.p1 == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_local_maximality(self):
        cfg = tree_template(0.9, 0.95, HeraldingStrategy.single_photon())
        (point,) = maximize_over_lambda(cfg, [8])
        lam, p1 = point.lambda_opt, point.p1
        left = output_distribution_at(cfg, 8, lam - 1e-3)
        right = output_distribution_at(cfg, 8, lam + 1e-3)
        assert p1 >= left - 1e-9
        assert p1 >= right - 1e-9

    @pytest.mark.parametrize("kind", list(PairKind))
    @pytest.mark.parametrize(
        "strategy",
        [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3)],
        ids=["threshold", "spd", "up-to-3"],
    )
    @pytest.mark.parametrize(
        "mux, lanes",
        [
            (MultiplexerModel.symmetric_spatial(0.93), tuple(2**k for k in range(11))),
            (MultiplexerModel.time_chain(0.97, generic_transmission=0.95), tuple(range(1, 33))),
            (MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, generic_transmission=0.95), tuple(2**k for k in range(9))),
            (MultiplexerModel.time_loop_latest(0.988, generic_transmission=0.88), (40,)),
        ],
        ids=["tree-pow2:1024", "chain-1..32", "btm-pow2:256", "loop-latest"],
    )
    def test_lanes_match_scalar_search(self, mux, lanes, strategy, kind):
        cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(0.85), strategy, mux, 1)
        curve = maximize_over_lambda(cfg, lanes)
        assert [point.units for point in curve] == list(lanes)
        for point in curve:
            lam, p1 = scalar_maximize_over_lambda(cfg, point.units)
            assert point.p1 == pytest.approx(p1, abs=1e-10), point.units
            assert point.lambda_opt == pytest.approx(lam, abs=LAMBDA_TOL), point.units


def output_distribution_at(cfg, units, mean):
    from dataclasses import replace

    return output_distribution(replace(cfg, units=units, dist=replace(cfg.dist, mean=mean)))[1]


class TestOptimizeUnits:
    def test_curve_covers_candidates_in_order(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg, n_candidates=[16, 1, 4])
        assert [p.units for p in result.per_n_curve] == [1, 4, 16]
        assert result.p1_max == max(p.p1 for p in result.per_n_curve)
        assert result.n_opt in {1, 4, 16}

    def test_output_at_optimum_consistent(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg, n_candidates=[1, 2, 4, 8])
        assert result.output_at_optimum[1] == pytest.approx(result.p1_max, rel=1e-12)
        assert result.strategy_used == cfg.strategy

    def test_release_latest_loop_keeps_fixed_units(self):
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.5),
            DetectorModel(0.9),
            HeraldingStrategy.single_photon(),
            MultiplexerModel.time_loop_latest(0.988, generic_transmission=0.88),
            40,
        )
        result = optimize_units(cfg, n_candidates=[1, 2, 4])  # ignored for this topology
        assert result.n_opt == 40
        assert len(result.per_n_curve) == 1

    def test_default_candidates_per_topology(self):
        tree = MultiplexerModel.symmetric_spatial(0.9)
        assert default_unit_candidates(tree, 1) == tuple(2**k for k in range(11))
        chain = MultiplexerModel.time_chain(0.9)
        assert default_unit_candidates(chain, 1) == tuple(range(1, 129))
        loop = MultiplexerModel.time_loop_latest(0.9)
        assert default_unit_candidates(loop, 40) == (40,)

    def test_empty_candidates_rejected(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            optimize_units(cfg, n_candidates=[])

    def test_known_tree_optimum(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg)
        assert result.n_opt == 8
        assert result.p1_max == pytest.approx(0.680, abs=1e-3)
        assert result.lambda_opt == pytest.approx(0.812, abs=1e-2)


class TestOptimizeStrategy:
    def test_lossless_routers_prefer_single_photon(self):
        cfg = tree_template(0.98, 1.0, HeraldingStrategy.single_photon())
        scan = optimize_strategy(cfg, j_max=3, n_candidates=[1, 2, 4, 8])
        assert scan.j_opt == 1

    def test_scan_never_below_single_photon_case(self):
        cfg = tree_template(0.9, 0.75, HeraldingStrategy.single_photon())
        scan = optimize_strategy(cfg, j_max=4)
        by_j = dict(scan.results_by_j)
        assert scan.best().p1_max >= by_j[1].p1_max - 1e-12

    def test_j_max_capped_by_resolution(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            optimize_strategy(cfg, j_max=99)


class TestComparisonMap:
    def test_small_grid_shapes_and_identities(self):
        grid = comparison_map([0.9, 0.98], [0.95, 0.98], j_max=2)
        assert grid.delta_p.shape == (2, 2)
        assert grid.delta_p == pytest.approx(grid.p1_spd - grid.p1_threshold)
        assert np.all(grid.p1_jopt >= grid.p1_spd - 1e-12)
        assert np.all(grid.j_opt >= 1)
        # router levels differ by whole tree stages
        assert grid.delta_m.dtype.kind == "i"

    def test_worker_count_does_not_change_results(self):
        serial = comparison_map([0.9], [0.9, 0.95], j_max=2, workers=1)
        parallel = comparison_map([0.9], [0.9, 0.95], j_max=2, workers=2)
        assert serial.p1_spd == pytest.approx(parallel.p1_spd, abs=0)
        assert serial.p1_threshold == pytest.approx(parallel.p1_threshold, abs=0)
        assert np.array_equal(serial.n_opt_spd, parallel.n_opt_spd)

    @pytest.mark.parametrize(
        "vd, vr, n_spd, p1_spd, n_threshold, p1_threshold, j_opt, p1_jopt",
        [
            (0.68, 0.96, 32, 0.7704833290171145, 64, 0.7447719487785176, 1, 0.7704833290171145),
            (0.77, 0.92, 16, 0.6772046511890977, 16, 0.6431081081093665, 1, 0.6772046511890977),
            (0.62, 0.91, 16, 0.6282011500375836, 16, 0.6050601925320145, 1, 0.6282011500375836),
        ],
    )
    def test_pinned_ssm_map_cells(self, vd, vr, n_spd, p1_spd, n_threshold, p1_threshold, j_opt, p1_jopt):
        # optima of the ssm-maps scenario as the scalar per-unit-count search found them
        cell = comparison_map([vd], [vr], j_max=6, n_candidates=[2**k for k in range(11)])
        assert (cell.n_opt_spd[0, 0], cell.n_opt_threshold[0, 0], cell.j_opt[0, 0]) == (n_spd, n_threshold, j_opt)
        assert cell.p1_spd[0, 0] == pytest.approx(p1_spd, abs=1e-9)
        assert cell.p1_threshold[0, 0] == pytest.approx(p1_threshold, abs=1e-9)
        assert cell.p1_jopt[0, 0] == pytest.approx(p1_jopt, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            comparison_map([], [0.9])
