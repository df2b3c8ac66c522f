"""Pump, unit-count and accepted-set optimization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxsps import engine, optimize
from muxsps.engine import SourceConfig, output_distribution
from muxsps.losses import MultiplexerModel
from muxsps.optimize import (
    LAMBDA_MAX,
    LAMBDA_TOL,
    comparison_map,
    default_unit_candidates,
    maximize_over_lambda,
    optimize_strategies,
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
        (lam,), (p1,) = maximize_over_lambda(cfg, [1])
        assert lam == pytest.approx(1.0, abs=1e-3)
        assert p1 == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_local_maximality(self):
        cfg = tree_template(0.9, 0.95, HeraldingStrategy.single_photon())
        (lam,), (p1,) = maximize_over_lambda(cfg, [8])
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
        lams, p1s = maximize_over_lambda(cfg, lanes)
        assert lams.shape == p1s.shape == (len(lanes),)
        for units, lam_lane, p1_lane in zip(lanes, lams, p1s):
            lam, p1 = scalar_maximize_over_lambda(cfg, units)
            assert p1_lane == pytest.approx(p1, abs=1e-10), units
            assert lam_lane == pytest.approx(lam, abs=LAMBDA_TOL), units


def output_distribution_at(cfg, units, mean):
    from dataclasses import replace

    return output_distribution(replace(cfg, units=units, dist=replace(cfg.dist, mean=mean)))[1]


class TestOptimizeUnits:
    def test_curve_covers_candidates_in_order(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg, n_candidates=[16, 1, 4])
        assert result.units.tolist() == [1, 4, 16]
        assert result.lambdas.shape == result.p1s.shape == (1, 3)  # one group: the template's strategy
        assert result.p1_max[0] == result.p1s[0].max()
        assert result.n_opt[0] in {1, 4, 16}
        assert result.lambda_opt[0] == result.lambdas[0, result.units.tolist().index(result.n_opt[0])]

    def test_output_at_optimum_consistent(self):
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.single_photon())
        result = optimize_units(cfg, n_candidates=[1, 2, 4, 8])
        at_best = output_distribution_at(cfg, int(result.n_opt[0]), float(result.lambda_opt[0]))
        assert at_best == pytest.approx(result.p1_max[0], rel=1e-12)

    def test_release_latest_loop_keeps_fixed_units(self):
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.5),
            DetectorModel(0.9),
            HeraldingStrategy.single_photon(),
            MultiplexerModel.time_loop_latest(0.988, generic_transmission=0.88),
            40,
        )
        result = optimize_units(cfg, n_candidates=[1, 2, 4])  # ignored for this topology
        assert result.n_opt.tolist() == [40]
        assert result.units.tolist() == [40]

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
        assert result.n_opt[0] == 8
        assert result.p1_max[0] == pytest.approx(0.680, abs=1e-3)
        assert result.lambda_opt[0] == pytest.approx(0.812, abs=1e-2)


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
        result = optimize_strategies(cfg, strategies, candidates)
        assert result.p1s.shape == (len(strategies), result.units.size)
        for g, strategy in enumerate(strategies):
            alone = optimize_units(replace(cfg, strategy=strategy), candidates)
            assert result.units.tolist() == alone.units.tolist()
            assert result.n_opt[g] == alone.n_opt[0]
            assert result.p1_max[g] == pytest.approx(alone.p1_max[0], abs=1e-12)
            assert result.lambda_opt[g] == pytest.approx(alone.lambda_opt[0], abs=LAMBDA_TOL)


class TestDetectorGroups:
    @given(
        efficiencies=st.lists(st.floats(0.3, 1.0), min_size=2, max_size=3, unique=True),
        kind=st.sampled_from(list(PairKind)),
        cutoff=st.integers(1, 4),
        muxes=st.sampled_from(
            [
                (MultiplexerModel.symmetric_spatial(0.93), MultiplexerModel.symmetric_spatial(0.97)),
                (MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, 0.95), MultiplexerModel.binary_bulk_time(0.9, 0.97, 0.98)),
            ]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_detector_groups_equal_one_detector_searches(self, efficiencies, kind, cutoff, muxes):
        # groups come in (detector, multiplexer, strategy) order, each what its detector's own search gives, bit for bit
        cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(0.8), HeraldingStrategy.threshold(), muxes[0], 1)
        strategies, candidates = [cfg.strategy, HeraldingStrategy.up_to(cutoff)], [1, 2, 8, 32]
        detectors = [DetectorModel(eff) for eff in efficiencies]
        together = optimize_strategies(cfg, strategies, candidates, muxes, detectors)
        alone = [optimize_strategies(replace(cfg, detector=detector), strategies, candidates, muxes) for detector in detectors]
        assert together.units.tolist() == candidates
        for name in ("lambdas", "p1s", "n_opt", "lambda_opt", "p1_max"):
            assert getattr(together, name).tobytes() == np.concatenate([getattr(one, name) for one in alone]).tobytes()


class TestCutoffScan:
    def test_exact_ties_go_to_fewer_units_and_the_smaller_cutoff(self, monkeypatch):
        # lanes in (threshold, cutoff 1, 2, 3) x candidates (1, 2, 4) order, with exact P_1 ties
        # within a group and between cutoffs 2 and 3; each lane's pump mean is its lane index
        p1 = np.array([[0.5, 0.7, 0.7], [0.6, 0.6, 0.6], [0.5, 0.8, 0.8], [0.8, 0.1, 0.8]])

        def fixed_search(cfg_template, units, strategies=None, muxes=None, detectors=None):
            assert len(units) == p1.size
            return np.arange(p1.size, dtype=float), p1.ravel()

        monkeypatch.setattr(optimize, "maximize_over_lambda", fixed_search)
        cfg = tree_template(0.9, 0.9, HeraldingStrategy.threshold())
        strategies = [HeraldingStrategy.threshold(), *(HeraldingStrategy.up_to(j) for j in (1, 2, 3))]
        result = optimize_strategies(cfg, strategies, [4, 1, 2])
        assert result.n_opt.tolist() == [2, 1, 2, 1]
        assert result.lambda_opt.tolist() == [1.0, 3.0, 7.0, 9.0]
        assert result.p1_max.tolist() == [0.7, 0.6, 0.8, 0.8]
        cell = comparison_map([0.9], [0.9], j_max=3, n_candidates=[1, 2, 4])
        assert (cell.n_opt_threshold[0, 0], cell.n_opt_spd[0, 0], cell.j_opt[0, 0]) == (2, 1, 2)
        assert (cell.lambda_opt_threshold[0, 0], cell.lambda_opt_spd[0, 0]) == (1.0, 3.0)
        assert (cell.p1_threshold[0, 0], cell.p1_spd[0, 0], cell.p1_jopt[0, 0]) == (0.7, 0.6, 0.8)

    def test_lossless_routers_prefer_single_photon(self):
        cell = comparison_map([0.98], [1.0], j_max=3, n_candidates=[1, 2, 4, 8])
        assert cell.j_opt[0, 0] == 1

    def test_scan_never_below_single_photon_case(self):
        cell = comparison_map([0.9], [0.75], j_max=4)
        assert cell.p1_jopt[0, 0] >= cell.p1_spd[0, 0] - 1e-12

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
        cutoffs = [HeraldingStrategy.up_to(j) for j in range(1, 5)]
        result = optimize_strategies(cfg, cutoffs, lanes)
        assert result.units.tolist() == list(lanes)
        assert result.p1s.shape == (len(cutoffs), len(lanes))
        for g, cutoff in enumerate(cutoffs):
            alone = optimize_units(replace(cfg, strategy=cutoff), lanes)
            assert result.n_opt[g] == alone.n_opt[0], cutoff
            assert result.p1_max[g] == pytest.approx(alone.p1_max[0], abs=1e-10), cutoff
            assert result.lambda_opt[g] == pytest.approx(alone.lambda_opt[0], abs=LAMBDA_TOL), cutoff


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
        # two V_D rows are two chunk tasks, so two workers start the process pool
        serial = comparison_map([0.8, 0.9], [0.9, 0.95], j_max=2, workers=1)
        parallel = comparison_map([0.8, 0.9], [0.9, 0.95], j_max=2, workers=2)
        assert serial.p1_spd == pytest.approx(parallel.p1_spd, abs=0)
        assert serial.p1_threshold == pytest.approx(parallel.p1_threshold, abs=0)
        assert np.array_equal(serial.n_opt_spd, parallel.n_opt_spd)

    @pytest.mark.parametrize(
        "vd, vr, n_spd, p1_spd, n_threshold, p1_threshold, j_opt, p1_jopt",
        [
            (0.68, 0.96, 32, 0.7704833290171145, 64, 0.7447719487785176, 1, 0.7704833290171145),
            (0.77, 0.92, 16, 0.6772046511890977, 16, 0.6431081081093665, 1, 0.6772046511890977),
            (0.62, 0.91, 16, 0.6282011500375836, 16, 0.6050601925320145, 1, 0.6282011500375836),
            # P_1 rounds to exactly 1.0 at every N >= 128 here, so the first maximum is N = 128
            (1.00, 1.00, 128, 1.0, 1024, 0.9957951606805827, 1, 1.0),
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
                    assert n_opt[a, b] == alone.n_opt[0]
                    assert p1[a, b] == pytest.approx(alone.p1_max[0], abs=1e-12)
                    assert lambda_opt[a, b] == pytest.approx(alone.lambda_opt[0], abs=LAMBDA_TOL)

    def test_bad_j_max_fails_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking j_max")

        monkeypatch.setattr(optimize, "maximize_over_lambda", no_search)
        with pytest.raises(ParameterError, match="j_max"):
            comparison_map([0.9], [0.9], j_max=11)

    def test_chunked_map_equals_per_cell_searches(self, monkeypatch):
        # a V_r axis longer than one chunk, so one V_D row spans two lane searches
        vd, vrs, candidates = 0.85, np.round(np.linspace(0.7, 1.0, 13), 3), [1, 2, 4, 8]
        strategies = [HeraldingStrategy.threshold(), HeraldingStrategy.up_to(1), HeraldingStrategy.up_to(2)]
        monkeypatch.setattr(optimize, "SEARCH_LANES", 12 * len(strategies) * len(candidates))  # 12 cells a chunk
        searches, search = [], optimize.maximize_over_lambda
        monkeypatch.setattr(optimize, "maximize_over_lambda", lambda *args: searches.append(len(args[1])) or search(*args))

        def alone(vr):
            template = replace(tree_template(vd, vr, HeraldingStrategy.threshold()), tail_tol=1e-12)
            r = optimize_strategies(template, strategies, candidates)
            j_opt = 2 if r.p1_max[2] > r.p1_max[1] else 1  # ties go to the smaller cutoff
            return dict(
                n_opt_threshold=r.n_opt[0], p1_threshold=r.p1_max[0], lambda_opt_threshold=r.lambda_opt[0],
                n_opt_spd=r.n_opt[1], p1_spd=r.p1_max[1], lambda_opt_spd=r.lambda_opt[1],
                j_opt=j_opt, p1_jopt=r.p1_max[j_opt],
            )

        def cells(workers, progress=None):
            grid = comparison_map([vd], vrs, j_max=2, n_candidates=candidates, workers=workers, progress=progress)
            return [{name: getattr(grid, name)[0, b] for name in alone(vrs[0])} for b in range(vrs.size)]

        done = []
        chunked = cells(1, lambda k, total: done.append((k, total)))
        assert done == [(k, vrs.size) for k in range(1, vrs.size + 1)]  # once per cell, in grid order
        # the map's two searches come first, before the per-cell searches that name its fields
        assert searches[:3] == [12 * len(strategies) * len(candidates), len(strategies) * len(candidates), 12]
        assert cells(2) == chunked
        # each lane is summed over its own series, so a chunk's lanes get the per-cell values bit for bit
        assert chunked == [alone(vr) for vr in vrs]

        # with one series length for every call the chunked search is the per-cell search, bit for bit
        series_length = engine._series_length
        monkeypatch.setattr(
            engine, "_series_length", lambda kind, tail_tol, mean, units: series_length(kind, tail_tol, LAMBDA_MAX, 1024)
        )
        assert cells(1) == [alone(vr) for vr in vrs]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            comparison_map([], [0.9])
