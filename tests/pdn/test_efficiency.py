"""Tests for PDE accounting (Fig. 8 / Table III anchors)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StackConfig
from repro.pdn.efficiency import (
    EfficiencyBreakdown,
    imbalance_fraction,
    layer_shuffle_power,
    pde_conventional,
    pde_single_ivr,
    pde_voltage_stacked,
)

LOAD_W = 80.0


class TestBreakdownContainer:
    def test_input_power_sums_components(self):
        b = EfficiencyBreakdown(80.0, 10.0, 4.0, 3.0, 1.0)
        assert b.input_power == pytest.approx(98.0)
        assert b.total_loss == pytest.approx(18.0)
        assert b.pde == pytest.approx(80.0 / 98.0)

    def test_fractions_sum_to_one(self):
        b = EfficiencyBreakdown(80.0, 10.0, 4.0, 3.0, 1.0)
        assert sum(b.fractions().values()) == pytest.approx(1.0)

    def test_rejects_nonpositive_useful_power(self):
        with pytest.raises(ValueError):
            EfficiencyBreakdown(0.0, 1.0, 1.0, 1.0, 1.0)

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            EfficiencyBreakdown(80.0, -1.0, 0.0, 0.0, 0.0)


class TestTableIIIAnchors:
    """PDE ordering and magnitudes from Table III."""

    def test_conventional_near_80_percent(self):
        assert pde_conventional(LOAD_W).pde == pytest.approx(0.80, abs=0.02)

    def test_single_ivr_near_85_percent(self):
        assert pde_single_ivr(LOAD_W).pde == pytest.approx(0.85, abs=0.02)

    def test_voltage_stacking_above_90_percent(self):
        b = pde_voltage_stacked(LOAD_W, shuffled_power_w=0.08 * LOAD_W)
        assert b.pde > 0.90

    def test_ordering_vrm_ivr_vs(self):
        vrm = pde_conventional(LOAD_W).pde
        ivr = pde_single_ivr(LOAD_W).pde
        vs = pde_voltage_stacked(LOAD_W, 0.08 * LOAD_W).pde
        assert vrm < ivr < vs

    def test_vs_eliminates_over_half_the_loss(self):
        """Headline: 61.5 % of total PDS loss eliminated."""
        conventional = pde_conventional(LOAD_W)
        stacked = pde_voltage_stacked(LOAD_W, 0.08 * LOAD_W)
        # Compare losses per watt delivered.
        loss_conv = conventional.total_loss / conventional.useful_power
        loss_vs = stacked.total_loss / stacked.useful_power
        assert 1 - loss_vs / loss_conv > 0.5


class TestLossPhysics:
    def test_conventional_pdn_loss_quadratic_in_load(self):
        low = pde_conventional(40.0)
        high = pde_conventional(80.0)
        assert high.pdn_loss == pytest.approx(4 * low.pdn_loss, rel=1e-6)

    def test_vs_pdn_loss_much_smaller_than_conventional(self):
        conv = pde_conventional(LOAD_W)
        vs = pde_voltage_stacked(LOAD_W, 0.0)
        # Current is 4.1x smaller, loss ~17x smaller.
        assert vs.pdn_loss < conv.pdn_loss / 10

    def test_vs_has_no_conversion_loss(self):
        assert pde_voltage_stacked(LOAD_W, 5.0).conversion_loss == 0.0

    def test_more_imbalance_lower_pde(self):
        balanced = pde_voltage_stacked(LOAD_W, 0.05 * LOAD_W)
        imbalanced = pde_voltage_stacked(LOAD_W, 0.30 * LOAD_W)
        assert balanced.pde > imbalanced.pde

    def test_controller_power_counted(self):
        without = pde_voltage_stacked(LOAD_W, 5.0)
        with_ctl = pde_voltage_stacked(LOAD_W, 5.0, controller_power_w=2.0)
        assert with_ctl.pde < without.pde

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_rejects_nonpositive_load(self, bad):
        with pytest.raises(ValueError):
            pde_conventional(bad)
        with pytest.raises(ValueError):
            pde_single_ivr(bad)
        with pytest.raises(ValueError):
            pde_voltage_stacked(bad, 0.0)

    def test_rejects_negative_shuffle(self):
        with pytest.raises(ValueError):
            pde_voltage_stacked(LOAD_W, -1.0)


class TestShufflePower:
    def test_balanced_trace_needs_no_shuffling(self):
        trace = np.full((10, 16), 5.0)
        assert layer_shuffle_power(trace) == pytest.approx(0.0)

    def test_one_hot_layer_shuffles_three_quarters(self):
        # All power in one layer: 3/4 of it must be recycled downward.
        trace = np.zeros((1, 16))
        trace[0, :4] = 5.0  # bottom layer only, 20 W total
        assert layer_shuffle_power(trace) == pytest.approx(15.0)

    def test_fraction_of_total(self):
        trace = np.zeros((1, 16))
        trace[0, :4] = 5.0
        assert imbalance_fraction(trace) == pytest.approx(0.75)

    def test_time_average(self):
        balanced = np.full((1, 16), 5.0)
        skewed = np.zeros((1, 16))
        skewed[0, :4] = 20.0
        trace = np.vstack([balanced, skewed])
        expected = (0.0 + 60.0) / 2
        assert layer_shuffle_power(trace) == pytest.approx(expected)

    def test_column_imbalance_is_not_shuffled(self):
        # Imbalance across columns within the same layers does not move
        # charge between layers.
        trace = np.zeros((1, 16))
        grid = trace.reshape(1, 4, 4)
        grid[0, :, 0] = 8.0  # one hot column, all layers equal
        assert layer_shuffle_power(trace) == pytest.approx(0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            layer_shuffle_power(np.ones((3, 8)))

    def test_zero_power_fraction_rejected(self):
        with pytest.raises(ValueError):
            imbalance_fraction(np.zeros((2, 16)))

    def test_custom_stack_geometry(self):
        stack = StackConfig(num_layers=2, num_columns=2, board_voltage=2.0)
        trace = np.array([[4.0, 4.0, 0.0, 0.0]])  # bottom layer only
        assert layer_shuffle_power(trace, stack) == pytest.approx(4.0)


def _reshape_shuffle_power(per_sm_power, stack):
    """``layer_shuffle_power`` as it reduced a (cycles, layers, columns)
    reshape, kept as the reference of its column-by-column sums."""
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    layers = per_sm_power.reshape(
        per_sm_power.shape[0], stack.num_layers, stack.num_columns
    ).sum(axis=2)
    mean_layer = layers.mean(axis=1, keepdims=True)
    excess = np.clip(layers - mean_layer, 0.0, None).sum(axis=1)
    return float(excess.mean())


# Bit patterns a trace can hold: signed zeros, infinities, a tiny
# subnormal, and NaNs of either sign with distinct payloads (a sum keeps
# the payload of the NaN it meets first).
_SPECIAL = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
     0xFFF0000000000000, 0x0000000000000001, 0x7FF8000000000000,
     0xFFF8000000000123, 0x7FF0000000000456],
    dtype=np.uint64,
).view(np.float64)


class TestShufflePowerBits:
    @given(
        data=st.data(),
        cycles=st.integers(1, 40),
        shape=st.sampled_from([(4, 4), (2, 2), (1, 4), (4, 1), (3, 5), (7, 2)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reshape_reduction(self, data, cycles, shape):
        """Bit-equal to the reshape expression on random traces with
        zeros, NaN and infinities, on the paper's 4x4 stack and other
        stacks narrower than eight layers and columns."""
        layers, columns = shape
        stack = StackConfig(num_layers=layers, num_columns=columns)
        values = data.draw(st.lists(
            st.one_of(
                st.floats(-1e3, 1e3),
                st.sampled_from(list(_SPECIAL)),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=cycles * stack.num_sms, max_size=cycles * stack.num_sms,
        ))
        trace = np.array(values, dtype=float).reshape(cycles, stack.num_sms)
        with np.errstate(all="ignore"):
            got = layer_shuffle_power(trace, stack)
            want = _reshape_shuffle_power(trace, stack)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
