"""Exact output-distribution engine and its closed-form cross-checks."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from muxsps.engine import (
    OutputDistribution,
    SourceConfig,
    output_distribution,
    p1_profile,
    p1_spd_closed_form,
    p1_threshold_closed_form,
)
from muxsps.losses import MultiplexerModel, MuxKind
from muxsps.statistics import (
    DetectorModel,
    HeraldingStrategy,
    PairDistribution,
    PairKind,
    pair_pmf,
    truncation_length,
)


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


def single_unit_reference(cfg: SourceConfig, survival: float) -> list[float]:
    """Independent one-unit evaluation with plain scalar sums."""
    l_max = truncation_length(cfg.dist, cfg.tail_tol)
    eff = cfg.detector.efficiency
    if cfg.strategy.is_threshold:
        accept = lambda l: 1.0 - (1.0 - eff) ** l
    else:
        accept = lambda l: sum(
            math.comb(l, j) * eff**j * (1 - eff) ** (l - j) for j in cfg.strategy.accepted if j <= l
        )
    p_herald = sum(accept(l) * pair_pmf(cfg.dist, l) for l in range(l_max + 1))
    probs = []
    for i in range(cfg.i_max + 1):
        mass = sum(
            accept(l)
            * pair_pmf(cfg.dist, l)
            * math.comb(l, i)
            * survival**i
            * (1 - survival) ** (l - i)
            for l in range(i, l_max + 1)
        )
        probs.append(mass + ((1.0 - p_herald) if i == 0 else 0.0))
    return probs


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

    def test_tail_tol_bounds(self):
        with pytest.raises(ValueError):
            constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon(), tail_tol=1e-3)


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
        cfg = constant_loss_config(0.0, 0.9, 0.9, 2, HeraldingStrategy.threshold())
        assert p1_threshold_closed_form(cfg) == 0.0
        cfg = constant_loss_config(0.0, 0.9, 0.9, 2, HeraldingStrategy.single_photon())
        assert p1_spd_closed_form(cfg) == 0.0

    def test_single_lossless_unit_reduces_to_heralded_poisson(self):
        for builder in (p1_threshold_closed_form, p1_spd_closed_form):
            strategy = (
                HeraldingStrategy.threshold()
                if builder is p1_threshold_closed_form
                else HeraldingStrategy.single_photon()
            )
            cfg = constant_loss_config(0.8, 1.0, 1.0, 1, strategy)
            assert builder(cfg) == pytest.approx(0.8 * math.exp(-0.8), rel=1e-13)

    def test_spd_maximum_at_unit_mean(self):
        cfg = constant_loss_config(1.0, 1.0, 1.0, 1, HeraldingStrategy.single_photon())
        assert p1_spd_closed_form(cfg) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_engine_matches_threshold_form(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 2, HeraldingStrategy.threshold())
        assert output_distribution(cfg)[1] == pytest.approx(p1_threshold_closed_form(cfg), abs=1e-11)

    def test_engine_matches_spd_form(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 1, HeraldingStrategy.single_photon())
        assert output_distribution(cfg)[1] == pytest.approx(p1_spd_closed_form(cfg), abs=1e-11)

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
        assert output_distribution(cfg)[1] == pytest.approx(p1_threshold_closed_form(cfg), abs=1e-11)

    @pytest.mark.parametrize(
        "strategy, closed_form",
        [
            (HeraldingStrategy.threshold(), p1_threshold_closed_form),
            (HeraldingStrategy.single_photon(), p1_spd_closed_form),
        ],
        ids=["threshold", "spd"],
    )
    def test_engine_matches_closed_forms_when_weakly_pumped_at_1024_units(self, strategy, closed_form):
        # a herald probability near 1/units: the priority sum amplifies the
        # truncated herald mass by about the unit count
        cfg = SourceConfig(
            PairDistribution(PairKind.POISSONIAN, 0.00185),
            DetectorModel(0.9),
            strategy,
            MultiplexerModel.symmetric_spatial(1.0),
            1024,
        )
        assert output_distribution(cfg)[1] == pytest.approx(closed_form(cfg), abs=1e-11)

    def test_wrong_strategy_rejected(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 2, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            p1_threshold_closed_form(cfg)
        with pytest.raises(ValueError):
            p1_spd_closed_form(replace(cfg, strategy=HeraldingStrategy.threshold()))

    def test_thermal_rejected(self):
        cfg = constant_loss_config(0.5, 0.8, 0.9, 2, HeraldingStrategy.threshold(), kind=PairKind.THERMAL)
        with pytest.raises(ValueError):
            p1_threshold_closed_form(cfg)


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
                want = single_unit_reference(cfg, 0.6)
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
            profile = p1_profile(cfg, means, lanes)
            assert profile.shape == (len(lanes), shared.size)
            for units, lane_means, values in zip(lanes, np.broadcast_to(means, profile.shape), profile):
                for mean, value in zip(lane_means, values):
                    at = replace(cfg, units=units, dist=replace(cfg.dist, mean=float(mean)))
                    assert value == pytest.approx(output_distribution(at)[1], abs=5 * cfg.tail_tol)

    def test_profile_rejects_bad_grid(self):
        cfg = constant_loss_config(0.5, 0.9, 0.9, 2, HeraldingStrategy.single_photon())
        with pytest.raises(ValueError):
            p1_profile(cfg, np.array([0.0, 0.5]))
