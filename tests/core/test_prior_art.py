"""Tests for the prior-art mitigation baselines (Section II-C).

The global throttle's semantics run twice: on the controller bank's
throttle law (``GlobalThrottleController``) and on the per-cycle Python
reference it replaced (``tests/oracles/global_throttle.py``).
"""

import numpy as np
import pytest

from repro.core.prior_art import (
    CheckpointRecoveryModel,
    GlobalThrottleController,
)
from tests.oracles.global_throttle import GlobalThrottleReference


class TestCheckpointRecovery:
    def test_no_emergencies_no_rollback(self):
        model = CheckpointRecoveryModel()
        voltages = np.full((1000, 16), 1.0)
        assert model.count_emergencies(voltages) == 0
        assert model.effective_slowdown(voltages) == pytest.approx(
            1.0 + model.checkpoint_overhead
        )

    def test_single_event_counted_once(self):
        model = CheckpointRecoveryModel(rollback_cycles=100)
        voltages = np.full((1000, 16), 1.0)
        voltages[500:520, 3] = 0.7  # one 20-cycle emergency burst
        assert model.count_emergencies(voltages) == 1

    def test_separated_events_counted_separately(self):
        model = CheckpointRecoveryModel(rollback_cycles=100)
        voltages = np.full((1000, 16), 1.0)
        voltages[100, 0] = 0.7
        voltages[500, 0] = 0.7
        voltages[900, 0] = 0.7
        assert model.count_emergencies(voltages) == 3

    def test_frequent_noise_explodes_cost(self):
        """The paper's argument: checkpoint-recovery cannot handle the
        frequent supply-noise events of an unsmoothed stack."""
        model = CheckpointRecoveryModel(rollback_cycles=1000)
        rare = np.full((10_000, 16), 1.0)
        rare[5000, 0] = 0.7
        frequent = np.full((10_000, 16), 1.0)
        frequent[::1000, 0] = 0.7  # an emergency every rollback window
        assert model.effective_slowdown(rare) < 1.15
        assert model.effective_slowdown(frequent) > 1.9

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointRecoveryModel(rollback_cycles=0)
        with pytest.raises(ValueError):
            CheckpointRecoveryModel(checkpoint_overhead=1.0)


class TestGlobalThrottle:
    cls = GlobalThrottleController

    def make(self, **kwargs):
        defaults = dict(latency_cycles=10, hold_cycles=50)
        defaults.update(kwargs)
        return self.cls(**defaults)

    def healthy(self):
        return np.full(16, 1.0)

    def test_no_droop_no_throttle(self):
        ctl = self.make()
        for cycle in range(100):
            ctl.observe(cycle, self.healthy())
            decision = ctl.commands_for(cycle)
        assert np.all(decision.issue_widths == 2.0)
        assert ctl.throttled_cycles == 0

    def test_droop_throttles_everyone(self):
        ctl = self.make()
        voltages = self.healthy()
        voltages[5] = 0.7  # a single drooping SM...
        ctl.observe(0, voltages)
        decision = ctl.commands_for(20)  # after the latency
        # ...but the WHOLE chip is throttled: the single-layer scheme
        # has no notion of per-layer imbalance.
        assert np.all(decision.issue_widths == ctl.throttle_width)
        assert len(decision.triggered_sms) == 16

    def test_throttle_releases_after_hold(self):
        ctl = self.make()
        voltages = self.healthy()
        voltages[5] = 0.7
        ctl.observe(0, voltages)
        ctl.commands_for(20)
        decision = ctl.commands_for(20 + ctl.hold_cycles + 1)
        assert np.all(decision.issue_widths == 2.0)

    def test_never_injects_power(self):
        # The conventional scheme has no FII/DCC concept.
        ctl = self.make()
        voltages = self.healthy()
        voltages[0] = 0.5
        ctl.observe(0, voltages)
        decision = ctl.commands_for(50)
        assert np.all(decision.fake_rates == 0.0)
        assert np.all(decision.dcc_powers_w == 0.0)

    def test_nan_blocks_the_trigger(self):
        # NumPy's min of a row holding NaN is NaN, which never droops.
        ctl = self.make()
        voltages = self.healthy()
        voltages[[3, 5]] = [np.nan, 0.5]
        ctl.observe(0, voltages)
        assert ctl.triggers == 0 and ctl.decisions_made == 1

    def test_hold_starts_at_the_read_and_counts_every_read(self):
        """The hold runs from the read that pops the trigger; a trigger
        arms only when none is pending; every throttled read counts."""
        ctl = self.make()
        droop = self.healthy()
        droop[0] = 0.7
        ctl.observe(0, droop)
        ctl.observe(1, droop)  # pending: not armed again
        assert ctl.triggers == 1 and ctl.decisions_made == 2
        assert np.all(ctl.commands_for(9).issue_widths == 2.0)
        assert ctl.commands_for(15).triggered_sms  # pops at 15: hold to 65
        ctl.commands_for(15)
        assert np.all(ctl.commands_for(64).issue_widths == ctl.throttle_width)
        assert np.all(ctl.commands_for(65).issue_widths == 2.0)
        assert ctl.throttled_cycles == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            self.cls(v_threshold=0.0)
        with pytest.raises(ValueError):
            self.cls(throttle_width=3.0)
        ctl = self.make()
        with pytest.raises(ValueError):
            ctl.observe(0, np.ones(4))

    def test_hold_must_be_at_least_one_cycle(self):
        # A hold of 0 would count triggers but never throttle.
        with pytest.raises(ValueError, match="hold_cycles"):
            self.cls(hold_cycles=0)

    def test_latency_cannot_be_negative(self):
        # A negative latency would arm a trigger that is already due.
        with pytest.raises(ValueError, match="latency_cycles"):
            self.cls(latency_cycles=-1)


class TestGlobalThrottleReference(TestGlobalThrottle):
    """The same semantics on the per-cycle Python reference."""

    cls = GlobalThrottleReference
