"""Exact output-distribution engine and its closed-form cross-checks."""

import math
import types
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from muxsps import engine
from muxsps.engine import (
    OutputDistribution,
    SourceConfig,
    closed_form,
    output_distribution,
    p1_profile,
    p1_spd_closed_form,
    p1_threshold_closed_form,
    profile_lanes,
)
from muxsps.losses import MultiplexerModel, MuxKind
from muxsps.statistics import (
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
)
from references import output_reference


def constant_loss_config(mean, eff, survival, units, strategy, kind=PairKind.POISSONIAN, **kwargs):
    """All units share one transmission: a tree of perfect routers with a
    generic loss equal to the wanted per-unit survival."""
    return SourceConfig(
        PairDistribution(kind, mean),
        DetectorModel(eff),
        strategy,
        MultiplexerModel.symmetric_spatial(1.0, generic_transmission=survival),
        units,
        **kwargs,
    )


class TestDegenerateCases:
    def test_no_pairs_gives_vacuum(self):
        cfg = constant_loss_config(0.0, 0.9, 0.8, 4, HeraldingStrategy.single_photon())
        out = output_distribution(cfg)
        assert out[0] == pytest.approx(1.0, abs=1e-15)
        assert all(p == 0.0 for p in out.probabilities[1:])

    def test_blind_detector_never_heralds(self):
        cfg = constant_loss_config(1.3, 0.0, 0.8, 4, HeraldingStrategy.single_photon())
        out = output_distribution(cfg)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_units_rejected(self):
        with pytest.raises(ValueError):
            SourceConfig(
                PairDistribution(PairKind.POISSONIAN, 0.5),
                DetectorModel(0.9),
                HeraldingStrategy.single_photon(),
                MultiplexerModel.symmetric_spatial(0.9),
                12,
            )
        cfg = constant_loss_config(0.5, 0.9, 0.9, 4, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError, match="power of 2"):
            profile_lanes(cfg, [4, 12], max_mean=1.0)  # a tree lane's unit count

    def test_tail_tol_bounds(self):
        with pytest.raises(ValueError):
            constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon(), tail_tol=1e-3)
        with pytest.raises(ValueError):  # subnormal: tail_tol / units would round to 0
            constant_loss_config(0.5, 0.9, 0.9, 4, HeraldingStrategy.single_photon(), tail_tol=5e-324)

    @pytest.mark.parametrize("mean", [745.0, 760.0, 800.0])
    def test_means_past_the_normal_range_of_exp(self, mean):
        # exp(-mean) underflows here; few photons survive, so P_0..P_8 are not negligible
        cfg = constant_loss_config(mean, 0.5, 0.005, 2, HeraldingStrategy.threshold())
        out = output_distribution(cfg)
        assert out.probabilities == pytest.approx(closed_form(cfg), abs=1e-10)
        assert out[0] > 0.01 and out.truncation_deficit < 0.99


class TestKnownOperatingPoint:
    def test_sixteen_unit_tree(self):
        # reference design point: 16 units, 0.95 detectors, 0.98 routers
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.45),
            DetectorModel(0.95),
            HeraldingStrategy.single_photon(),
            MultiplexerModel.symmetric_spatial(0.98),
            16,
        )
        assert output_distribution(cfg)[1] == pytest.approx(0.90, abs=0.005)


class TestClosedForms:
    def test_zero_mean(self):
        for strategy in (HeraldingStrategy.threshold(), HeraldingStrategy.single_photon()):
            assert closed_form(constant_loss_config(0.0, 0.9, 0.9, 2, strategy)) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_single_lossless_unit_reduces_to_heralded_poisson(self):
        for strategy in (HeraldingStrategy.threshold(), HeraldingStrategy.single_photon()):
            cfg = constant_loss_config(0.8, 1.0, 1.0, 1, strategy)
            assert closed_form(cfg)[1] == pytest.approx(0.8 * math.exp(-0.8), rel=1e-13)
            assert p1_threshold_closed_form(cfg) == p1_spd_closed_form(cfg) == closed_form(cfg)[1]

    def test_spd_maximum_at_unit_mean(self):
        cfg = constant_loss_config(1.0, 1.0, 1.0, 1, HeraldingStrategy.single_photon())
        assert closed_form(cfg)[1] == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_thermal_single_lossless_unit_pinned(self):
        # V_D = 1 and no loss: the output is the pair number whenever it heralds
        mean = 0.7
        thermal = [mean**l / (1.0 + mean) ** (l + 1) for l in range(9)]
        cfg = constant_loss_config(mean, 1.0, 1.0, 1, HeraldingStrategy.single_photon(), kind=PairKind.THERMAL)
        assert closed_form(cfg)[1] == pytest.approx(mean / (1.0 + mean) ** 2, rel=1e-13)
        cfg = replace(cfg, strategy=HeraldingStrategy.threshold())
        assert closed_form(cfg) == pytest.approx(thermal, rel=1e-13)

    def test_accepted_set_and_priority_pinned(self):
        # a lossy unit passes each photon with v; a second unit sees only the first's misses
        mean, v = 1.3, 0.6
        cfg = constant_loss_config(mean, 1.0, v, 1, HeraldingStrategy(frozenset({2})))
        two_pairs = math.exp(-mean) * mean**2 / 2.0
        want = [1.0 - two_pairs + two_pairs * (1.0 - v) ** 2, two_pairs * 2.0 * v * (1.0 - v), two_pairs * v**2]
        assert closed_form(cfg)[:3] == pytest.approx(want, rel=1e-13)
        cfg = constant_loss_config(mean, 1.0, 1.0, 2, HeraldingStrategy.single_photon(), kind=PairKind.THERMAL)
        herald = mean / (1.0 + mean) ** 2
        assert closed_form(cfg)[1] == pytest.approx(herald * (2.0 - herald), rel=1e-13)

    def test_engine_matches_threshold_form(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 2, HeraldingStrategy.threshold())
        assert output_distribution(cfg).probabilities == pytest.approx(closed_form(cfg), abs=1e-11)

    def test_engine_matches_spd_form(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 1, HeraldingStrategy.single_photon())
        assert output_distribution(cfg).probabilities == pytest.approx(closed_form(cfg), abs=1e-11)

    @pytest.mark.parametrize("units", [512, 1024])
    @pytest.mark.parametrize(
        "mux",
        [MultiplexerModel.symmetric_spatial(0.98), MultiplexerModel.binary_bulk_time(0.97, 0.996, 0.95)],
        ids=["tree", "binary-delay"],
    )
    def test_engine_matches_threshold_form_at_large_unit_counts(self, mux, units):
        # miss = exp(-4.75), so the priority weights underflow long before
        # the last unit
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 5.0), DetectorModel(0.95), HeraldingStrategy.threshold(), mux, units
        )
        assert output_distribution(cfg)[1] == pytest.approx(closed_form(cfg)[1], abs=1e-11)

    @pytest.mark.parametrize(
        "strategy", [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon()], ids=["threshold", "spd"]
    )
    def test_engine_matches_closed_forms_when_weakly_pumped_at_1024_units(self, strategy):
        # a herald probability near 1/units: the priority sum amplifies the
        # truncated herald mass by about the unit count
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.00185),
            DetectorModel(0.9),
            strategy,
            MultiplexerModel.symmetric_spatial(1.0),
            1024,
        )
        assert output_distribution(cfg)[1] == pytest.approx(closed_form(cfg)[1], abs=1e-11)

    def test_closed_form_binds_no_engine_series(self):
        # the oracle checks the series engine, so it may share none of its code
        series = {"pmf_array", "herald_weights", "binomial_coefficients", "log_factorials", "truncation_length",
                  "p1_profile", "profile_lanes", "output_distribution"}
        series |= {name for name, value in vars(engine).items() if name.startswith("_") and callable(value)}
        names, stack = set(), [closed_form.__code__]
        while stack:
            code = stack.pop()
            names |= set(code.co_names)
            stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        assert "unit_transmissions" in names
        assert names.isdisjoint(series)


class TestAgainstIndependentReferences:
    def test_single_unit_reduction(self):
        # one unit means no priority weighting at all
        for strategy in (
            HeraldingStrategy.threshold(),
            HeraldingStrategy.single_photon(),
            HeraldingStrategy(accepted=frozenset({1, 2})),
        ):
            for kind in PairKind:
                cfg = constant_loss_config(0.9, 0.75, 0.6, 1, strategy, kind=kind)
                want = output_reference(cfg)
                assert list(output_distribution(cfg).probabilities) == pytest.approx(want, rel=1e-10, abs=1e-13)

    @given(mean=st.floats(0.05, 3.0), units=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=40)
    def test_lossless_limit(self, mean, units):
        # perfect detector and multiplexer: exactly-one-pair pulses win
        cfg = constant_loss_config(mean, 1.0, 1.0, units, HeraldingStrategy.single_photon())
        want = 1.0 - (1.0 - mean * math.exp(-mean)) ** units
        assert output_distribution(cfg)[1] == pytest.approx(want, rel=1e-12)

    def test_binary_delay_with_equal_coefficients_matches_tree(self):
        # equal reflection/transmission and no propagation loss collapse
        # the delay network onto the symmetric tree
        tree = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.6),
            DetectorModel(0.85),
            HeraldingStrategy.single_photon(),
            MultiplexerModel.symmetric_spatial(0.93, generic_transmission=0.99),
            8,
        )
        delays = replace(
            tree,
            mux=MultiplexerModel.binary_bulk_time(0.93, 0.93, 1.0, generic_transmission=0.99),
        )
        assert output_distribution(delays).probabilities == pytest.approx(
            output_distribution(tree).probabilities, rel=1e-12
        )

    @pytest.mark.parametrize("kind", list(PairKind))
    @pytest.mark.parametrize("coefficient", [0.9, 0.99])  # units that round to one value, and to two
    def test_binary_delay_with_equal_coefficients_sums_per_unit(self, coefficient, kind):
        # the model does not promise one transmission, so the lane sums unit by unit, whatever the rounding
        mux = MultiplexerModel.binary_bulk_time(coefficient, coefficient, 1.0)
        cfg = SourceConfig(PairDistribution(kind, 0.6), DetectorModel(0.9), HeraldingStrategy.single_photon(), mux, 8)
        assert not profile_lanes(cfg, [8], max_mean=0.6).uniform.any()
        assert output_distribution(cfg).probabilities == pytest.approx(closed_form(cfg), abs=1e-15)


@st.composite
def random_configs(draw):
    kind = draw(st.sampled_from(list(PairKind)))
    mean = draw(st.floats(0.01, 5.0))
    eff = draw(st.floats(0.0, 1.0))
    strategy = draw(
        st.sampled_from(
            [
                HeraldingStrategy.threshold(),
                HeraldingStrategy.single_photon(),
                HeraldingStrategy.up_to(2),
                HeraldingStrategy(accepted=frozenset({2})),
            ]
        )
    )
    topology = draw(st.sampled_from(["tree", "chain", "loop", "delay"]))
    generic = draw(st.floats(0.5, 1.0))
    inner = draw(st.floats(0.3, 1.0))
    if topology == "tree":
        mux = MultiplexerModel.symmetric_spatial(inner, generic_transmission=generic)
        units = draw(st.sampled_from([1, 2, 8, 64, 1024]))
    elif topology == "chain":
        mux = MultiplexerModel.time_chain(inner, generic_transmission=generic)
        units = draw(st.integers(1, 24))
    elif topology == "loop":
        mux = MultiplexerModel.time_loop_latest(inner, generic_transmission=generic, min_cycles=draw(st.sampled_from([0, 1])))
        units = draw(st.integers(1, 24))
    else:
        mux = MultiplexerModel.binary_bulk_time(inner, draw(st.floats(0.3, 1.0)), draw(st.floats(0.3, 1.0)), generic_transmission=generic)
        units = draw(st.sampled_from([1, 4, 16, 128]))
    return SourceConfig(
        PairDistribution(kind, mean), DetectorModel(eff), strategy, mux, units
    )


@st.composite
def oracle_configs(draw):
    """``random_configs`` with means up to 20 and threshold, a cutoff 1..6 or a set of up to 3 counts."""
    cfg = draw(random_configs())
    strategy = draw(
        st.one_of(
            st.just(HeraldingStrategy.threshold()),
            st.integers(1, 6).map(HeraldingStrategy.up_to),
            st.frozensets(st.integers(1, 10), min_size=1, max_size=3).map(HeraldingStrategy),
        )
    )
    dist, detector = replace(cfg.dist, mean=draw(st.floats(1e-4, 20.0))), DetectorModel(cfg.detector.efficiency, 10)
    return replace(cfg, dist=dist, detector=detector, strategy=strategy, i_max=3)


@st.composite
def random_lanes(draw):
    """A config, lanes (unit count, strategy, multiplexer) and two means per lane, some at the λ ceiling."""
    kind = draw(st.sampled_from(list(PairKind)))
    eff = draw(st.floats(0.3, 1.0))
    chain = draw(st.booleans())  # a time chain's lanes have many transmissions
    count = draw(st.integers(1, 4))
    kinds = [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3)]
    strategies = [draw(st.sampled_from(kinds)) for _ in range(count)]
    if chain:
        muxes = [MultiplexerModel.time_chain(draw(st.floats(0.5, 1.0))) for _ in range(count)]
        units = [draw(st.integers(1, 12)) for _ in range(count)]
    else:
        muxes = [MultiplexerModel.symmetric_spatial(draw(st.floats(0.3, 1.0))) for _ in range(count)]
        units = [draw(st.sampled_from([1, 2, 64, 1024])) for _ in range(count)]
    means = np.array(
        [sorted(draw(st.one_of(st.floats(1e-4, 20.0), st.floats(19.9, 20.0))) for _ in range(2)) for _ in range(count)]
    )
    cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(eff), strategies[0], muxes[0], units[0])
    return cfg, units, strategies, muxes, means


class TestInvariants:
    @given(cfg=random_configs())
    @settings(max_examples=80, deadline=None)
    def test_normalization(self, cfg):
        out = output_distribution(cfg)
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in out.probabilities)
        total = math.fsum(out.probabilities) + out.truncation_deficit
        assert total == pytest.approx(1.0, abs=10 * cfg.tail_tol)
        assert out.truncation_deficit >= -10 * cfg.tail_tol

    @given(cfg=random_configs())
    @settings(max_examples=40, deadline=None)
    def test_deficit_shrinks_with_larger_cutoff(self, cfg):
        small = output_distribution(replace(cfg, i_max=4))
        large = output_distribution(replace(cfg, i_max=10))
        assert large.truncation_deficit <= small.truncation_deficit + 1e-12

    @given(cfg=random_configs())
    @settings(max_examples=40, deadline=None)
    def test_output_matches_reference(self, cfg):
        out = output_distribution(cfg)
        want = output_reference(cfg)
        assert list(out.probabilities) == pytest.approx(want, abs=5 * cfg.tail_tol)
        assert out.truncation_deficit == pytest.approx(1.0 - math.fsum(want), abs=5 * cfg.tail_tol)

    @given(cfg=oracle_configs())
    @example(  # a bright thermal source through a many-transmission chain, a set of three counts
        cfg=SourceConfig(
            PairDistribution(PairKind.THERMAL, 20.0),
            DetectorModel(0.4, 10),
            HeraldingStrategy(frozenset({1, 4, 10})),
            MultiplexerModel.time_chain(0.9, generic_transmission=0.8),
            24,
            i_max=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_engine(self, cfg):
        assert closed_form(cfg) == pytest.approx(output_distribution(cfg).probabilities, abs=1e-10)

    def test_output_distribution_accessors(self):
        out = OutputDistribution((0.25, 0.75), 0.0)
        assert out.single_photon == 0.75
        assert out[0] == 0.25

    @given(cfg=random_configs())
    @example(
        # at 1024 units the priority sum amplified output_distribution's
        # truncated herald mass to a 5.1e-12 error in P_1 at mean 0.02
        cfg=SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 1.0),
            DetectorModel(0.5),
            HeraldingStrategy(accepted=frozenset({2})),
            MultiplexerModel.symmetric_spatial(0.75),
            1024,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_matches_pointwise_evaluation(self, cfg):
        # lanes mix one-unit, uniform-tree and many-transmission unit counts
        lanes = sorted({1, 4 if cfg.mux.requires_power_of_two else 3, cfg.units})
        shared = np.array([0.02, 0.3, 1.1, 4.7])
        per_lane = np.outer(np.linspace(0.6, 1.0, len(lanes)), shared)
        for means in (shared, per_lane):
            profile = p1_profile(cfg, means, lanes, photons=range(3))
            assert profile.shape == (3, len(lanes), shared.size)
            # the photon numbers asked for do not change P_1's arithmetic
            assert np.array_equal(profile[1], p1_profile(cfg, means, lanes))
            per_mean = profile.transpose(1, 2, 0)  # (lanes, means, photons)
            for units, lane_means, values in zip(lanes, np.broadcast_to(means, per_mean.shape[:2]), per_mean):
                for mean, value in zip(lane_means, values):
                    at = replace(cfg, units=units, dist=replace(cfg.dist, mean=float(mean)), i_max=2)
                    assert list(value) == pytest.approx(output_reference(at), abs=5 * cfg.tail_tol)

        # each unit count in two lanes of different strategies
        mixes = (cfg.strategy, HeraldingStrategy.threshold(), HeraldingStrategy.up_to(3))
        units = [n for n in lanes for _ in range(2)]
        strategies = [mixes[i % len(mixes)] for i in range(len(units))]
        per_lane = np.outer(np.linspace(0.6, 1.0, len(units)), shared)
        for means in (shared, per_lane):
            profile = p1_profile(cfg, means, profile_lanes(cfg, units, strategies, max_mean=20.0))
            assert profile.shape == (len(units), shared.size)
            # lanes made for a larger mean, re-bounded to these means, are the lanes made for them
            wide = profile_lanes(cfg, units, strategies, max_mean=20.0).with_series(cfg, np.full(len(units), means.max()))
            exact = p1_profile(cfg, means, profile_lanes(cfg, units, strategies, max_mean=means.max()))
            assert np.array_equal(p1_profile(cfg, means, wide), exact)
            for n, strategy, lane_means, values in zip(units, strategies, np.broadcast_to(means, profile.shape), profile):
                for mean, value in zip(lane_means, values):
                    at = replace(cfg, units=n, strategy=strategy, dist=replace(cfg.dist, mean=float(mean)), i_max=1)
                    assert value == pytest.approx(output_reference(at)[1], abs=5 * cfg.tail_tol)

    @pytest.mark.parametrize(
        "muxes, units",
        [
            ((MultiplexerModel.symmetric_spatial(0.9), MultiplexerModel.symmetric_spatial(0.95)), (1, 4, 16)),
            ((MultiplexerModel.binary_bulk_time(0.95, 0.9, 0.99), MultiplexerModel.binary_bulk_time(0.9, 0.97, 0.98)),
             (1, 8)),
            ((MultiplexerModel.time_chain(0.9), MultiplexerModel.time_chain(0.96, 0.9)), (1, 5)),
            ((MultiplexerModel.time_loop_latest(0.9), MultiplexerModel.time_loop_latest(0.95, min_cycles=0)), (1, 6)),
            # as in a map chunk, several lanes share each (strategy row, unit count) and so its priority factor
            (tuple(MultiplexerModel.symmetric_spatial(vr) for vr in (0.8, 0.85, 0.9, 0.93, 0.96, 0.99)), (1, 4, 16)),
        ],
        ids=["tree", "btm", "chain", "loop-latest", "six-trees"],
    )
    def test_mixed_multiplexer_lanes_equal_separate_calls(self, muxes, units):
        # the same unit counts behind several multiplexers: each lane keeps its own transmissions
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.5), DetectorModel(0.8), HeraldingStrategy.threshold(), muxes[0], 1
        )
        kinds = (HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(2))
        strategies = [strategy for strategy in kinds for _ in units]
        units = list(units) * len(kinds)
        shared = np.array([0.01, 0.4, 1.3, 3.9])
        per_lane = np.outer(np.linspace(0.5, 1.0, len(units)), shared)  # the same rows behind each multiplexer
        copies = len(muxes)
        for means in (shared, per_lane):
            together = p1_profile(
                cfg,
                np.concatenate([means] * copies) if means.ndim == 2 else means,
                profile_lanes(cfg, units * copies, strategies * copies, [mux for mux in muxes for _ in units], max_mean=20.0),
                photons=range(9),
            )
            for mux, merged in zip(muxes, np.split(together, copies, axis=1)):
                alone = replace(cfg, mux=mux)
                lanes = profile_lanes(alone, units, strategies, max_mean=20.0)
                assert np.array_equal(merged, p1_profile(alone, means, lanes, photons=range(9)))
        with pytest.raises(ValueError):
            profile_lanes(cfg, [1, 1], muxes=muxes[:1], max_mean=1.0)  # one multiplexer for two lanes

    @given(
        efficiencies=st.lists(st.floats(0.3, 1.0), min_size=2, max_size=3, unique=True),
        kind=st.sampled_from(list(PairKind)),
        cutoff=st.integers(1, 4),
        mux=st.sampled_from(
            [MultiplexerModel.symmetric_spatial(0.93), MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, 0.95)]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # two lanes of one width alone, four together: BLAS sums a partial tile of rows with other kernels
        efficiencies=[1.0, 0.5],
        kind=PairKind.POISSONIAN,
        cutoff=1,
        mux=MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, 0.95),
        seed=0,
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_detector_lanes_equal_separate_calls(self, efficiencies, kind, cutoff, mux, seed):
        # the same lanes with several detectors in one call: each lane keeps its own herald weights, bit for bit;
        # the btm lanes with more than one unit each have many transmissions
        cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(0.8), HeraldingStrategy.threshold(), mux, 1)
        strategies, units = zip(*[(s, n) for s in (cfg.strategy, HeraldingStrategy.up_to(cutoff)) for n in (1, 2, 8, 32)])
        detectors = [DetectorModel(eff) for eff in efficiencies]
        copies = len(detectors)  # lane k of the mixed call is lane k // copies behind detector k % copies
        lanes = profile_lanes(
            cfg, np.repeat(units, copies), np.repeat(strategies, copies), None, detectors * len(units), max_mean=12.0
        )
        shared = np.array([0.0, 0.01, 0.4, 1.3, 3.9, 12.0])
        per_lane = np.random.default_rng(seed).uniform(0.0, 12.0, (len(units) * copies, 4))
        for means in (shared, per_lane):
            together = p1_profile(cfg, means, lanes, photons=range(3))
            for d, detector in enumerate(detectors):
                alone = replace(cfg, detector=detector)
                own = means if means.ndim == 1 else means[d::copies]
                expected = p1_profile(alone, own, profile_lanes(alone, units, strategies, max_mean=12.0), photons=range(3))
                assert together[:, d::copies].tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            profile_lanes(cfg, [1, 1], detectors=detectors[:1], max_mean=1.0)  # one detector for two lanes
        with pytest.raises(ValueError):  # a cutoff beyond one lane's detector resolution
            profile_lanes(cfg, [1, 1], [HeraldingStrategy.up_to(3)] * 2, None, [detectors[0], DetectorModel(0.9, 2)], max_mean=1.0)

    @given(lanes=random_lanes())
    @settings(max_examples=40, deadline=None)
    def test_per_lane_series_match_one_series_length(self, lanes):
        # each lane summed over its own series length agrees with one length,
        # at the largest mean and unit count, for every lane of the call
        cfg, units, strategies, muxes, means = lanes
        plain = profile_lanes(cfg, units, strategies, muxes, max_mean=20.0)
        one_length = p1_profile(cfg, means.ravel(), plain).reshape(len(units), *means.shape)
        want = one_length[np.arange(len(units)), np.arange(len(units))]
        assert p1_profile(cfg, means, plain) == pytest.approx(want, abs=5 * cfg.tail_tol)
        bounded = plain.with_series(cfg, np.minimum(1.2 * means.max(axis=1), 20.0))  # as a search fixes it
        assert p1_profile(cfg, means, bounded) == pytest.approx(want, abs=5 * cfg.tail_tol)
        # a lane's series only gets shorter: a larger bound leaves it as it is
        assert (bounded.width <= plain.weights.shape[-1]).all()
        again = bounded.with_series(cfg, np.full(len(units), 20.0))
        assert np.array_equal(again.bound, bounded.bound) and np.array_equal(again.width, bounded.width)

    @pytest.mark.parametrize("mux", [MultiplexerModel.symmetric_spatial(0.9), MultiplexerModel.time_chain(0.95, 0.9)])
    def test_lane_values_do_not_depend_on_the_other_lanes(self, mux):
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.5), DetectorModel(0.8), HeraldingStrategy.threshold(), mux, 1
        )
        units = [1, 2, 4, 8, 16] * 3
        strategies = [HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3)] * 5
        means = np.outer(np.geomspace(0.01, 19.5, len(units)), [0.9, 1.0])  # short and ceiling-length series
        lanes = profile_lanes(cfg, units, strategies, max_mean=20.0).with_series(cfg, np.minimum(1.1 * means[:, 1], 20.0))
        assert len(set(lanes.width.tolist())) > 1  # the call sums over more than one width
        together = p1_profile(cfg, means, lanes)
        for lane in range(len(units)):
            assert np.array_equal(together[lane], p1_profile(cfg, means[[lane]], lanes.take([lane]))[0])
        shuffled = np.random.default_rng(7).permutation(len(units))
        assert np.array_equal(together[shuffled], p1_profile(cfg, means[shuffled], lanes.take(shuffled)))
        with pytest.raises(ValueError):
            p1_profile(cfg, 1.5 * means, lanes)  # beyond the bound the series was fixed for

    @pytest.mark.parametrize("kind", list(PairKind))
    def test_shared_grid_equals_one_row_per_lane(self, kind):
        # one series layout: a grid shared by every lane gives what the same grid tiled to one row per lane gives
        muxes = (
            MultiplexerModel.symmetric_spatial(0.9),
            MultiplexerModel.time_chain(0.96, 0.9),
            MultiplexerModel.binary_bulk_time(0.95, 0.9, 0.99),
            MultiplexerModel.time_loop_latest(0.9),
        )
        kinds = (HeraldingStrategy.threshold(), HeraldingStrategy.single_photon(), HeraldingStrategy.up_to(3))
        units, strategies, lane_muxes = zip(*[(n, strategy, mux) for mux in muxes for n in (1, 2, 8) for strategy in kinds])
        cfg = SourceConfig(PairDistribution(kind, 0.5), DetectorModel(0.8), kinds[0], muxes[0], 1)
        lanes = profile_lanes(cfg, units, strategies, lane_muxes, max_mean=12.0)
        grid = np.array([0.0, 0.01, 0.4, 1.3, 3.9, 12.0])
        shared = p1_profile(cfg, grid, lanes, photons=range(5))
        tiled = p1_profile(cfg, np.tile(grid, (len(units), 1)), lanes, photons=range(5))
        assert np.abs(shared - tiled).max() <= 1e-15
        assert shared[1].min() < 0.05 < shared[1].max()

    def test_profile_rejects_bad_grid(self):
        cfg = constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon())
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError):
                p1_profile(cfg, np.array([bad, 0.5]))
        with pytest.raises(ValueError):
            p1_profile(cfg, np.array([0.5]), photons=[-1, 1])
        with pytest.raises(ValueError):
            p1_profile(cfg, np.ones((3, 2)), [1, 2])  # two lanes, three rows of means
        with pytest.raises(ValueError):
            p1_profile(cfg, np.array([0.5, 1.5]), profile_lanes(cfg, [1, 2], max_mean=1.0))

    def test_profile_at_zero_mean_is_vacuum(self):
        cfg = constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon())
        profile = p1_profile(cfg, np.array([0.0, 0.5]), [1, 2], photons=[0, 1, 5])
        assert np.array_equal(profile[:, :, 0], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        assert np.all(profile[:, :, 1] > 0.0)

    def test_lanes_need_one_valid_strategy_each(self):
        cfg = constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            profile_lanes(cfg, [1, 2], [HeraldingStrategy.threshold()], max_mean=1.0)
        with pytest.raises(ValueError):
            profile_lanes(cfg, [1], [HeraldingStrategy.up_to(11)], max_mean=1.0)  # beyond the resolution cap
