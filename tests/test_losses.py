"""Per-unit transmission of the four multiplexer topologies."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muxsps.losses import MultiplexerModel, MuxKind, shared_transmission, unit_transmissions
from references import transmit_conditional


def binary_delay_path(delay: int, units: int, pbs_t: float, pbs_r: float, prop: float, base: float) -> float:
    """Walk the switched delay network stage by stage.

    The photon is reflected into the delay line of every stage whose bit is
    set in the binary delay, transmitted past every other stage, and sees
    propagation loss proportional to the delay fraction.
    """
    stages = units.bit_length() - 1
    value = base * prop ** (delay / units)
    for bit in range(stages):
        value *= pbs_r if (delay >> bit) & 1 else pbs_t
    return value


class TestUnitTransmission:
    def test_symmetric_tree_is_router_power(self):
        mux = MultiplexerModel.symmetric_spatial(0.98)
        assert unit_transmissions(mux, 16) == pytest.approx([0.98**4] * 16, rel=1e-14)

    def test_single_unit_tree_has_no_routers(self):
        mux = MultiplexerModel.symmetric_spatial(0.3)
        assert unit_transmissions(mux, 1)[0] == 1.0

    def test_lossless_loop(self):
        mux = MultiplexerModel.time_chain(1.0)
        assert unit_transmissions(mux, 7)[2] == 1.0

    def test_chain_counts_remaining_slots(self):
        mux = MultiplexerModel.time_chain(0.9, generic_transmission=0.8)
        assert unit_transmissions(mux, 5)[1] == pytest.approx(0.8 * 0.9**3, rel=1e-14)

    def test_loop_latest_counts_priority_cycles(self):
        mux = MultiplexerModel.time_loop_latest(0.9, generic_transmission=0.8)
        assert unit_transmissions(mux, 5)[1] == pytest.approx(0.8 * 0.9**2, rel=1e-14)
        zero_pass = MultiplexerModel.time_loop_latest(0.9, generic_transmission=0.8, min_cycles=0)
        assert unit_transmissions(zero_pass, 5)[1] == pytest.approx(0.8 * 0.9, rel=1e-14)

    def test_binary_delay_against_path_walk(self):
        mux = MultiplexerModel.binary_bulk_time(0.97, 0.996, 0.95, generic_transmission=0.996)
        got = unit_transmissions(mux, 4)[0]  # delay 3: both stages reflective
        want = binary_delay_path(3, 4, 0.97, 0.996, 0.95, 0.996)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.9507595999523232, rel=1e-12)

    @given(units=st.sampled_from([2, 4, 8, 16, 32]), n=st.integers(1, 32))
    def test_binary_delay_all_slots_match_path_walk(self, units, n):
        if n > units:
            return
        mux = MultiplexerModel.binary_bulk_time(0.9, 0.95, 0.85, generic_transmission=0.99)
        got = unit_transmissions(mux, units)[n - 1]
        assert got == pytest.approx(binary_delay_path(units - n, units, 0.9, 0.95, 0.85, 0.99), rel=1e-12)

    def test_binary_delay_zero_delay_is_all_transmissive(self):
        mux = MultiplexerModel.binary_bulk_time(0.9, 0.95, 0.85, generic_transmission=0.99)
        assert unit_transmissions(mux, 16)[15] == pytest.approx(0.99 * 0.9**4, rel=1e-14)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            unit_transmissions(MultiplexerModel.symmetric_spatial(0.9), 12)
        with pytest.raises(ValueError):
            unit_transmissions(MultiplexerModel.binary_bulk_time(0.9, 0.9, 0.9), 6)
        with pytest.raises(ValueError):
            shared_transmission(MultiplexerModel.symmetric_spatial(0.9), 12)
        with pytest.raises(ValueError):
            shared_transmission(MultiplexerModel.time_chain(0.9), 0)

    def test_chain_allows_any_unit_count(self):
        assert unit_transmissions(MultiplexerModel.time_chain(0.9), 12)[0] > 0

    @given(cycle=st.floats(0.0, 1.0), units=st.integers(1, 40))
    @settings(max_examples=40)
    def test_monotone_in_priority(self, cycle, units):
        chain = unit_transmissions(MultiplexerModel.time_chain(cycle), units)
        loop = unit_transmissions(MultiplexerModel.time_loop_latest(cycle), units)
        assert np.all(np.diff(chain) >= -1e-15)  # chain favors late slots
        assert np.all(np.diff(loop) <= 1e-15)  # release-latest favors early priority


# loss parameters at the ends of [0, 1] as well as inside it
fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def models_with_units(draw):
    kind = draw(st.sampled_from(list(MuxKind)))
    generic = draw(fractions)
    if kind is MuxKind.SYMMETRIC_SPATIAL:
        mux = MultiplexerModel.symmetric_spatial(draw(fractions), generic)
    elif kind is MuxKind.TIME_CHAIN:
        mux = MultiplexerModel.time_chain(draw(fractions), generic)
    elif kind is MuxKind.TIME_LOOP_LATEST:
        mux = MultiplexerModel.time_loop_latest(draw(fractions), generic, draw(st.sampled_from([0, 1])))
    else:
        mux = MultiplexerModel.binary_bulk_time(draw(fractions), draw(fractions), draw(fractions), generic)
    units = 2 ** draw(st.integers(0, 10)) if mux.requires_power_of_two else draw(st.integers(1, 64))
    return mux, units


class TestSharedTransmission:
    @given(models_with_units())
    @example((MultiplexerModel.binary_bulk_time(0.9, 0.9, 1.0), 8))  # its units round to one value
    @example((MultiplexerModel.binary_bulk_time(0.99, 0.99, 1.0), 8))  # its units round to two values
    @example((MultiplexerModel.time_chain(1.0, 0.9), 8))
    @example((MultiplexerModel.time_loop_latest(0.5, 0.0), 8))
    @settings(max_examples=200)
    def test_shared_value_is_every_unit_bit_for_bit(self, case):
        mux, units = case
        shared = shared_transmission(mux, units)
        if shared is not None:
            assert unit_transmissions(mux, units).tobytes() == np.full(units, shared).tobytes()
        if units == 1 or mux.kind is MuxKind.SYMMETRIC_SPATIAL:
            assert shared is not None

    def test_which_time_multiplexers_share_one_transmission(self):
        assert shared_transmission(MultiplexerModel.time_chain(1.0, 0.9), 8) == 0.9
        assert shared_transmission(MultiplexerModel.time_loop_latest(1.0, 0.9, 0), 8) == 0.9
        assert shared_transmission(MultiplexerModel.time_loop_latest(0.5, 0.9), 1) == 0.45
        assert shared_transmission(MultiplexerModel.binary_bulk_time(0.9, 0.95, 0.85, 0.0), 8) == 0.0
        assert shared_transmission(MultiplexerModel.time_chain(0.99, 0.9), 8) is None
        assert shared_transmission(MultiplexerModel.binary_bulk_time(0.9, 0.9, 1.0), 8) is None


class TestModelValidation:
    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="router_transmission"):
            MultiplexerModel(MuxKind.SYMMETRIC_SPATIAL)

    def test_irrelevant_parameter(self):
        with pytest.raises(ValueError, match="cycle_transmission"):
            MultiplexerModel(MuxKind.SYMMETRIC_SPATIAL, router_transmission=0.9, cycle_transmission=0.9)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MultiplexerModel.symmetric_spatial(1.2)

    def test_min_cycles_only_for_release_latest(self):
        with pytest.raises(ValueError, match="min_cycles"):
            MultiplexerModel(MuxKind.TIME_CHAIN, cycle_transmission=0.9, min_cycles=0)


class TestTransmitConditional:
    def test_lossless(self):
        assert transmit_conditional(4, 4, 1.0) == 1.0

    def test_independent_losses(self):
        assert transmit_conditional(0, 2, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_one_of_three_against_enumeration(self):
        frac = Fraction(7, 10)
        want = sum(
            math.prod([frac if kept else 1 - frac for kept in pattern])
            for pattern in product([0, 1], repeat=3)
            if sum(pattern) == 1
        )
        assert transmit_conditional(1, 3, 0.7) == pytest.approx(float(want), rel=1e-12)
        assert transmit_conditional(1, 3, 0.7) == pytest.approx(0.189, rel=1e-12)

    def test_more_survivors_than_photons_rejected(self):
        with pytest.raises(ValueError):
            transmit_conditional(3, 2, 0.9)

    @given(l=st.integers(0, 50), survival=st.floats(0.0, 1.0))
    def test_completeness(self, l, survival):
        total = math.fsum(transmit_conditional(i, l, survival) for i in range(l + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
