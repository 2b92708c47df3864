"""Tests for the SM power model.

Per-cycle power is evaluated in the engine's C step; ``TestCyclePower``
checks its formula through the GPU oracle's ``cycle_power_w``.
"""

import pytest

from repro.config import PowerConfig
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.power import (
    LEAKAGE_SHARE,
    UNGATEABLE_LEAKAGE_SHARE,
    SMPowerModel,
)
from tests.oracles.per_object_gpu import Instruction, cycle_power_w


@pytest.fixture
def model():
    return SMPowerModel()


def falu():
    return Instruction(InstructionClass.FALU)


class TestLeakage:
    def test_full_leakage_matches_config(self, model):
        assert model.leakage_w() == pytest.approx(
            PowerConfig().sm_leakage_power_w
        )

    def test_gating_reduces_leakage_by_unit_share(self, model):
        full = model.leakage_w()
        gated = model.leakage_w([ExecUnit.ALU])
        assert gated == pytest.approx(full * (1 - LEAKAGE_SHARE[ExecUnit.ALU]))

    def test_gating_all_units_leaves_ungateable_floor(self, model):
        gated = model.leakage_w(list(ExecUnit))
        assert gated == pytest.approx(model.leakage_w() * UNGATEABLE_LEAKAGE_SHARE)

    def test_leakage_shares_sum_below_one(self):
        assert 0 < UNGATEABLE_LEAKAGE_SHARE < 1


class TestCyclePower:
    def test_idle_cycle_draws_leakage_plus_base(self, model):
        p = cycle_power_w(model, [])
        assert p > model.leakage_w()

    def test_power_grows_with_issued_instructions(self, model):
        p0 = cycle_power_w(model, [])
        p1 = cycle_power_w(model, [falu()])
        p2 = cycle_power_w(model, [falu(), falu()])
        assert p0 < p1 < p2

    def test_frequency_scaling_reduces_dynamic_only(self, model):
        full = cycle_power_w(model, [falu()], frequency_scale=1.0)
        half = cycle_power_w(model, [falu()], frequency_scale=0.5)
        leak = model.leakage_w()
        assert half - leak == pytest.approx((full - leak) / 2)

    def test_zero_frequency_is_pure_leakage(self, model):
        assert cycle_power_w(model, [], frequency_scale=0.0) == pytest.approx(
            model.leakage_w()
        )

    def test_negative_frequency_rejected(self, model):
        with pytest.raises(ValueError):
            cycle_power_w(model, [], frequency_scale=-0.1)

    def test_peak_power_near_config_envelope(self, model):
        # The dual-issue hot loop must land near the 8 W per-SM peak.
        assert model.peak_power_w == pytest.approx(
            PowerConfig().sm_peak_power_w, rel=0.1
        )
