"""Pump, unit-count and accepted-set optimization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from muxsps import engine, optimize
from muxsps.engine import SourceConfig, output_distribution
from muxsps.losses import MultiplexerModel
from muxsps.optimize import (
    LAMBDA_MAX,
    LAMBDA_TOL,
    OptimizationResult,
    StrategyScanResult,
    comparison_map,
    default_unit_candidates,
    maximize_over_lambda,
    optimize_strategies,
    optimize_strategy,
    optimize_units,
)
from muxsps.statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind, ParameterError
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
        at_best = output_distribution_at(cfg, result.n_opt, result.lambda_opt)
        assert at_best == pytest.approx(result.p1_max, rel=1e-12)
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

    def test_invalid_candidate_rejected(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError, match="n_candidates"):
            optimize_units(cfg, n_candidates=[0, 1, 2])

    def test_known_tree_optimum(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg)
        assert result.n_opt == 8
        assert result.p1_max == pytest.approx(0.680, abs=1e-3)
        assert result.lambda_opt == pytest.approx(0.812, abs=1e-2)


class TestOptimizeStrategies:
    @pytest.mark.parametrize(
        "mux, units, candidates",
        [
            (MultiplexerModel.symmetric_spatial(0.93), 1, tuple(2**k for k in range(11))),
            (MultiplexerModel.time_loop_latest(0.988, generic_transmission=0.88), 40, None),
        ],
        ids=["tree-pow2:1024", "loop-latest"],
    )
    def test_each_strategy_matches_its_own_unit_scan(self, mux, units, candidates):
        strategies = [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3)]
        cfg = SourceConfig(PairDistribution(PairKind.POISSONIAN, 0.5), DetectorModel(0.85), strategies[1], mux, units)
        results = optimize_strategies(cfg, strategies, candidates)
        assert [result.strategy_used for result in results] == strategies
        for result in results:
            alone = optimize_units(replace(cfg, strategy=result.strategy_used), candidates)
            assert result.n_opt == alone.n_opt
            assert result.p1_max == pytest.approx(alone.p1_max, abs=1e-12)
            assert result.lambda_opt == pytest.approx(alone.lambda_opt, abs=LAMBDA_TOL)
            assert [p.units for p in result.per_n_curve] == [p.units for p in alone.per_n_curve]


class TestOptimizeStrategy:
    def test_j_opt_ties_go_to_the_smaller_cutoff(self):
        def result(j, p1):
            return OptimizationResult(1, 0.5, p1, HeraldingStrategy.up_to(j), ())

        scan = StrategyScanResult(((1, result(1, 0.5)), (2, result(2, 0.7)), (3, result(3, 0.7))))
        assert scan.j_opt == 2
        assert scan.best() is scan.results_by_j[1][1]
        assert StrategyScanResult(scan.results_by_j[::-1]).j_opt == 2

    def test_lossless_routers_prefer_single_photon(self):
        cfg = tree_template(0.98, 1.0, HeraldingStrategy.single_photon())
        scan = optimize_strategy(cfg, j_max=3, n_candidates=[1, 2, 4, 8])
        assert scan.j_opt == 1

    def test_scan_never_below_single_photon_case(self):
        cfg = tree_template(0.9, 0.75, HeraldingStrategy.single_photon())
        scan = optimize_strategy(cfg, j_max=4)
        by_j = dict(scan.results_by_j)
        assert scan.best().p1_max >= by_j[1].p1_max - 1e-12

    @pytest.mark.parametrize("kind", list(PairKind))
    @pytest.mark.parametrize(
        "mux, lanes",
        [
            (MultiplexerModel.symmetric_spatial(0.93), tuple(2**k for k in range(11))),
            (MultiplexerModel.time_chain(0.97, generic_transmission=0.95), tuple(range(1, 33))),
            (MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, generic_transmission=0.95), tuple(2**k for k in range(9))),
        ],
        ids=["tree-pow2:1024", "chain-1..32", "btm-pow2:256"],
    )
    def test_each_cutoff_matches_its_own_unit_scan(self, mux, lanes, kind):
        # one lockstep search over every (cutoff, unit count) lane gives each
        # cutoff what a search over its unit counts alone gives
        cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(0.85), HeraldingStrategy.threshold(), mux, 1)
        scan = optimize_strategy(cfg, j_max=4, n_candidates=lanes)
        assert [j for j, _ in scan.results_by_j] == [1, 2, 3, 4]
        for j, result in scan.results_by_j:
            alone = optimize_units(replace(cfg, strategy=HeraldingStrategy.up_to(j)), lanes)
            assert result.strategy_used == HeraldingStrategy.up_to(j)
            assert result.n_opt == alone.n_opt, j
            assert result.p1_max == pytest.approx(alone.p1_max, abs=1e-10), j
            assert result.lambda_opt == pytest.approx(alone.lambda_opt, abs=LAMBDA_TOL), j
            assert [p.units for p in result.per_n_curve] == list(lanes)
        assert scan.best().p1_max == max(result.p1_max for _, result in scan.results_by_j)

    def test_j_max_capped_by_resolution(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            optimize_strategy(cfg, j_max=99)


class TestComparisonMap:
    def test_small_grid_shapes_and_identities(self):
        grid = comparison_map([0.9, 0.98], [0.95, 0.98], j_max=2)
        assert (grid.p1_spd - grid.p1_threshold).shape == (2, 2)
        assert np.all(grid.p1_jopt >= grid.p1_spd - 1e-12)
        assert np.all(grid.j_opt >= 1)
        # router levels differ by whole tree stages
        for n_opt in (grid.n_opt_spd, grid.n_opt_threshold):
            assert n_opt.dtype.kind == "i" and np.all(n_opt & (n_opt - 1) == 0)

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

    def test_threshold_and_spd_entries_equal_their_own_unit_scans(self):
        candidates = [2**k for k in range(9)]
        vds, vrs = [0.7, 0.95], [0.9, 0.97]
        grid = comparison_map(vds, vrs, j_max=3, n_candidates=candidates)
        entries = (
            (HeraldingStrategy.threshold(), grid.n_opt_threshold, grid.p1_threshold, grid.lambda_opt_threshold),
            (HeraldingStrategy.single_photon(), grid.n_opt_spd, grid.p1_spd, grid.lambda_opt_spd),
        )
        for a, vd in enumerate(vds):
            for b, vr in enumerate(vrs):
                for strategy, n_opt, p1, lambda_opt in entries:
                    alone = optimize_units(tree_template(vd, vr, strategy), candidates)
                    assert n_opt[a, b] == alone.n_opt
                    assert p1[a, b] == pytest.approx(alone.p1_max, abs=1e-12)
                    assert lambda_opt[a, b] == pytest.approx(alone.lambda_opt, abs=LAMBDA_TOL)

    def test_bad_j_max_fails_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking j_max")

        monkeypatch.setattr(optimize, "maximize_over_lambda", no_search)
        with pytest.raises(ParameterError, match="j_max"):
            comparison_map([0.9], [0.9], j_max=11)

    def test_chunked_map_equals_per_cell_searches(self, monkeypatch):
        # a V_r axis longer than one chunk, so one V_D row spans two lane searches
        vd, vrs, candidates = 0.85, np.round(np.linspace(0.7, 1.0, 13), 3), [1, 2, 4, 8]
        assert vrs.size > optimize.MAP_CHUNK_CELLS
        strategies = [HeraldingStrategy.threshold(), HeraldingStrategy.up_to(1), HeraldingStrategy.up_to(2)]

        def alone(vr):
            template = replace(tree_template(vd, vr, HeraldingStrategy.threshold()), tail_tol=1e-12)
            threshold, spd, up_to_2 = optimize_strategies(template, strategies, candidates)
            best = max((up_to_2, spd), key=lambda r: r.p1_max)  # ties go to the smaller cutoff
            return dict(
                n_opt_threshold=threshold.n_opt, p1_threshold=threshold.p1_max, lambda_opt_threshold=threshold.lambda_opt,
                n_opt_spd=spd.n_opt, p1_spd=spd.p1_max, lambda_opt_spd=spd.lambda_opt,
                j_opt=1 if best is spd else 2, p1_jopt=best.p1_max,
            )

        def cells(workers, progress=None):
            grid = comparison_map([vd], vrs, j_max=2, n_candidates=candidates, workers=workers, progress=progress)
            return [{name: getattr(grid, name)[0, b] for name in alone(vrs[0])} for b in range(vrs.size)]

        done = []
        chunked = cells(1, lambda k, total: done.append((k, total)))
        assert done == [(k, vrs.size) for k in range(1, vrs.size + 1)]  # once per cell, in grid order
        assert cells(2) == chunked
        # each lane is summed over its own series, so a chunk's lanes get the per-cell values bit for bit
        assert chunked == [alone(vr) for vr in vrs]

        # with one series length for every call the chunked search is the per-cell search, bit for bit
        series_length = engine._series_length
        monkeypatch.setattr(engine, "_series_length", lambda cfg, mean, units: series_length(cfg, LAMBDA_MAX, 1024))
        assert cells(1) == [alone(vr) for vr in vrs]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            comparison_map([], [0.9])
