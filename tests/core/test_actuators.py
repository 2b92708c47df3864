"""Tests for actuation mechanisms and the weighted control input.

The scalar law (error to issue width, fakes/cycle and DAC code) is the
oracle's (``tests/oracles/scalar_controller.py``); the controller bank
runs it compiled and is held byte-equal to it in
``tests/core/test_controller_bank.py``.
"""

import pytest

from repro.core.actuators import (
    ACTUATION_TIMESCALES,
    CurrentCompensationDAC,
    WeightedActuation,
    smoothing_capable,
)
from tests.oracles.scalar_controller import (
    ActuationCommand,
    code_for_power,
    commands,
)


class TestTimescales:
    """Fig. 5: only DIWS, FII, DCC are fast enough for smoothing."""

    def test_smoothing_trio(self):
        assert set(smoothing_capable()) == {"diws", "fii", "dcc"}

    def test_slow_mechanisms_excluded(self):
        for name in ("thread_migration", "power_gating", "dfs"):
            assert not ACTUATION_TIMESCALES[name][2]

    def test_smoothing_mechanisms_within_hundreds_of_cycles(self):
        # The low-frequency noise band needs response within ~100 cycles.
        for name, (lo, hi, _) in smoothing_capable().items():
            assert hi <= 100, name

    def test_dfs_is_slowest(self):
        assert ACTUATION_TIMESCALES["dfs"][0] >= max(
            v[0] for k, v in ACTUATION_TIMESCALES.items() if k != "dfs"
        )


class TestDAC:
    def test_max_power(self):
        dac = CurrentCompensationDAC(n_bits=4, unit_power_w=0.1)
        assert dac.max_code == 15
        assert dac.max_power_w == pytest.approx(1.5)

    def test_code_roundtrip(self):
        dac = CurrentCompensationDAC()
        code = code_for_power(dac, 0.5)
        assert code * dac.unit_power_w == pytest.approx(0.5, abs=dac.unit_power_w)

    def test_code_clamped_at_max(self):
        dac = CurrentCompensationDAC(n_bits=3, unit_power_w=0.1)
        assert code_for_power(dac, 100.0) == dac.max_code

    def test_nonpositive_power_gives_zero(self):
        assert code_for_power(CurrentCompensationDAC(), -1.0) == 0

    def test_overheads_scale_with_bits(self):
        small = CurrentCompensationDAC(n_bits=4)
        big = CurrentCompensationDAC(n_bits=8)
        assert big.area_um2 == 2 * small.area_um2
        assert big.leakage_w == 2 * small.leakage_w


class TestCommandValidation:
    def test_defaults_valid(self):
        ActuationCommand()

    @pytest.mark.parametrize(
        "kwargs", [{"issue_width": 3.0}, {"fake_rate": -1.0}, {"dcc_code": -1}]
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ActuationCommand(**kwargs)


class TestWeightedActuation:
    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            WeightedActuation(w1=0.0, w2=0.0, w3=0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedActuation(w1=-1.0)

    def test_no_error_no_actuation(self):
        act = WeightedActuation(w1=1.0, w2=1.0, w3=1.0)
        cmd = commands(act, 0.0, 10, 10, 10)
        assert cmd.issue_width == 2.0
        assert cmd.fake_rate == 0.0
        assert cmd.dcc_code == 0

    def test_diws_only_throttles_width(self):
        act = WeightedActuation(w1=1.0, w2=0.0, w3=0.0)
        cmd = commands(act, 0.1, k1=10, k2=10, k3=10)
        assert cmd.issue_width == pytest.approx(1.0)
        assert cmd.fake_rate == 0.0
        assert cmd.dcc_code == 0

    def test_fii_only_injects(self):
        act = WeightedActuation(w1=0.0, w2=1.0, w3=0.0)
        cmd = commands(act, 0.1, k1=10, k2=10, k3=10)
        assert cmd.issue_width == 2.0
        assert cmd.fake_rate == pytest.approx(1.0)

    def test_dcc_only_codes(self):
        act = WeightedActuation(w1=0.0, w2=0.0, w3=1.0)
        cmd = commands(act, 0.1, k1=10, k2=10, k3=30)
        assert cmd.dcc_code == code_for_power(act.dac, 3.0)

    def test_commands_clamped(self):
        act = WeightedActuation(w1=1.0, w2=1.0, w3=0.0)
        cmd = commands(act, 10.0, k1=100, k2=100, k3=0)
        assert cmd.issue_width == 0.0
        assert cmd.fake_rate == 2.0

    def test_mixed_weights_split_the_error(self):
        mixed = WeightedActuation(w1=0.8, w2=0.2, w3=0.0)
        cmd = commands(mixed, 0.1, k1=10, k2=10, k3=0)
        assert cmd.issue_width == pytest.approx(2.0 - 0.8)
        assert cmd.fake_rate == pytest.approx(0.2)
