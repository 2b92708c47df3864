"""Tests for the Algorithm 1 voltage smoothing controller."""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig, VoltageSmoothingController


def make_controller(**config_kwargs):
    defaults = dict(latency_cycles=10, control_period_cycles=1)
    defaults.update(config_kwargs)
    return VoltageSmoothingController(
        config=ControllerConfig(**defaults),
        actuation=WeightedActuation(w1=1.0, w2=1.0, w3=1.0),
    )


def healthy_voltages():
    return np.full(16, 1.0)


def drooping_voltages(sm, v=0.8):
    voltages = healthy_voltages()
    voltages[sm] = v
    return voltages


class TestConfig:
    def test_defaults_valid(self):
        ControllerConfig()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            ControllerConfig(v_threshold=1.5)

    def test_default_latency_from_overheads(self):
        assert ControllerConfig().total_latency_cycles == 60

    def test_explicit_latency_wins(self):
        assert ControllerConfig(latency_cycles=42).total_latency_cycles == 42

    @pytest.mark.parametrize("latency", [0, -4])
    def test_latency_below_one_cycle_rejected(self, latency):
        """A zero latency used to divide by zero in the 2C/T check, and
        a negative one failed it with a misleading gain message."""
        with pytest.raises(ValueError, match="latency_cycles"):
            ControllerConfig(latency_cycles=latency)

    @pytest.mark.parametrize("latency", [0, -4])
    def test_latency_below_one_cycle_rejected_when_unstable_allowed(
        self, latency
    ):
        """The loop cannot apply a decision before the cycle after it is
        made, stability check or not."""
        with pytest.raises(ValueError, match="latency_cycles"):
            ControllerConfig(latency_cycles=latency, allow_unstable=True)


class TestTriggering:
    def test_no_action_above_threshold(self):
        ctl = make_controller()
        for cycle in range(20):
            ctl.observe(cycle, healthy_voltages())
        decision = ctl.commands_for(30)
        assert np.all(decision.issue_widths == 2.0)
        assert np.all(decision.fake_rates == 0.0)
        assert ctl.triggers == 0

    def test_droop_below_threshold_triggers(self):
        ctl = make_controller()
        # Hold the droop so the RC filter settles through it.
        for cycle in range(300):
            ctl.observe(cycle, drooping_voltages(5, v=0.8))
        decision = ctl.commands_for(400)
        assert 5 in decision.triggered_sms
        assert decision.issue_widths[5] < 2.0

    def test_fii_targets_overvolted_sm(self):
        """The symmetric trigger: an underdrawing (overvolted) SM gets
        fake instructions injected directly — in a series stack this is
        precisely the SM(i+1, j) neighbour of a drooping SM."""
        ctl = make_controller()
        voltages = healthy_voltages()
        voltages[6] = 1.3  # underdrawing SM
        for cycle in range(800):
            ctl.observe(cycle, voltages)
        decision = ctl.commands_for(900)
        assert decision.fake_rates[6] > 0.0
        assert decision.issue_widths[6] == 2.0  # not throttled

    def test_no_fii_when_nothing_overvolted(self):
        ctl = make_controller()
        for cycle in range(300):
            ctl.observe(cycle, drooping_voltages(5, v=0.8))
        decision = ctl.commands_for(400)
        assert np.all(decision.fake_rates == 0.0)

    def test_boost_proportional_to_overvoltage(self):
        mild = make_controller()
        severe = make_controller()
        v_mild, v_severe = healthy_voltages(), healthy_voltages()
        v_mild[2], v_severe[2] = 1.15, 1.5
        for cycle in range(1500):
            mild.observe(cycle, v_mild)
            severe.observe(cycle, v_severe)
        assert (
            severe.commands_for(1600).fake_rates[2]
            > mild.commands_for(1600).fake_rates[2]
        )

    def test_recovery_relaxes_commands(self):
        ctl = make_controller()
        for cycle in range(300):
            ctl.observe(cycle, drooping_voltages(5, v=0.8))
        assert ctl.commands_for(350).issue_widths[5] < 2.0
        for cycle in range(300, 900):
            ctl.observe(cycle, healthy_voltages())
        assert ctl.commands_for(950).issue_widths[5] == 2.0


class TestLatencyPipeline:
    def test_commands_delayed_by_latency(self):
        ctl = make_controller(latency_cycles=50)
        for cycle in range(200):
            ctl.observe(cycle, drooping_voltages(3, v=0.7))
        # A decision made near cycle 199 applies only after +50.
        fresh = VoltageSmoothingController(
            config=ControllerConfig(latency_cycles=50, control_period_cycles=1)
        )
        fresh.observe(0, drooping_voltages(3, v=0.0))  # huge instant droop
        early = fresh.commands_for(10)
        assert np.all(early.issue_widths == 2.0)  # not yet in force

    def test_proportional_to_error(self):
        shallow = make_controller()
        deep = make_controller()
        for cycle in range(300):
            shallow.observe(cycle, drooping_voltages(2, v=0.88))
            deep.observe(cycle, drooping_voltages(2, v=0.75))
        w_shallow = shallow.commands_for(400).issue_widths[2]
        w_deep = deep.commands_for(400).issue_widths[2]
        assert w_deep < w_shallow

    def test_control_period_batches_decisions(self):
        sparse = make_controller(control_period_cycles=16)
        for cycle in range(160):
            sparse.observe(cycle, drooping_voltages(1, v=0.8))
        assert sparse.decisions_made == 10

    def test_observe_validates_shape(self):
        ctl = make_controller()
        with pytest.raises(ValueError):
            ctl.observe(0, np.ones(4))


class TestStatistics:
    def test_throttle_fraction(self):
        ctl = make_controller()
        for cycle in range(100):
            ctl.observe(cycle, drooping_voltages(0, v=0.8))
        assert 0.0 < ctl.throttle_fraction <= 1.0

    def test_throttled_cycles_counted(self):
        ctl = make_controller()
        for cycle in range(300):
            ctl.observe(cycle, drooping_voltages(0, v=0.8))
            ctl.commands_for(cycle)
        assert ctl.throttled_cycles > 0

    def test_zero_decisions_zero_fraction(self):
        assert make_controller().throttle_fraction == 0.0

    def test_throttle_fraction_excludes_boosts(self):
        """A purely overvolted run injects work (FII/DCC) but never cuts
        issue width; before the fix those boost decisions inflated
        ``throttle_fraction``."""
        ctl = make_controller()
        voltages = healthy_voltages()
        voltages[6] = 1.4  # sustained overvoltage, no droop anywhere
        for cycle in range(600):
            ctl.observe(cycle, voltages)
        assert ctl.triggers > 0
        assert ctl.throttle_fraction == 0.0
        assert 0.0 < ctl.boost_fraction <= 1.0

    def test_boost_fraction_zero_for_pure_droop(self):
        ctl = make_controller()
        for cycle in range(300):
            ctl.observe(cycle, drooping_voltages(0, v=0.8))
        assert ctl.boost_fraction == 0.0
        assert ctl.throttle_fraction > 0.0

    def test_commands_for_counts_each_cycle_once(self):
        """Reading the same cycle's commands repeatedly (e.g. from a
        nested substep loop) must not double-count throttled_cycles."""
        once = make_controller()
        thrice = make_controller()
        for cycle in range(300):
            once.observe(cycle, drooping_voltages(0, v=0.8))
            thrice.observe(cycle, drooping_voltages(0, v=0.8))
            once.commands_for(cycle)
            for _ in range(3):
                thrice.commands_for(cycle)
        assert once.throttled_cycles > 0
        assert thrice.throttled_cycles == once.throttled_cycles

    def test_stats_snapshot_keys(self):
        ctl = make_controller()
        for cycle in range(100):
            ctl.observe(cycle, drooping_voltages(0, v=0.8))
            ctl.commands_for(cycle)
        stats = ctl.stats()
        assert stats["decisions_made"] == ctl.decisions_made
        assert stats["throttled_cycles"] == ctl.throttled_cycles
        assert stats["actuator_decisions"]["diws"] > 0
        assert set(stats["slew_saturations"]) == {"issue", "fake", "dcc"}


class TestPerActuatorSlew:
    def test_legacy_knob_seeds_issue_and_fake(self):
        cfg = ControllerConfig(slew_per_decision=0.05)
        assert cfg.slew_issue == 0.05
        assert cfg.slew_fake == 0.05
        # DCC slews in watts, independent of the legacy shared knob.
        assert cfg.slew_dcc_w == 0.25

    def test_explicit_limits_win_over_legacy(self):
        # Slews this loose stop capping the k2 = 8 FII gain below the
        # 2C/T sampled-stability bound, so the escape hatch is needed.
        cfg = ControllerConfig(
            slew_per_decision=0.05, slew_issue=0.5, slew_fake=0.3,
            allow_unstable=True,
        )
        assert cfg.slew_issue == 0.5
        assert cfg.slew_fake == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slew_issue": 0.0},
            {"slew_fake": -1.0},
            {"slew_dcc_w": 0.0},
            {"slew_per_decision": -0.01},
        ],
    )
    def test_nonpositive_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)

    def test_dcc_reaches_commanded_power(self):
        """Regression for the shared-slew unit bug: 0.02 *watts* per
        decision pinned the k3 = 20 W/V DCC DAC to a ~630-decision ramp,
        disabling it in practice.  With the per-actuator limit the DAC
        must reach its (clamped) commanded power within a sustained
        overvoltage episode."""
        ctl = make_controller()
        voltages = healthy_voltages()
        voltages[2] = 1.4  # k3 * 0.4 V = 8 W request, clamps to DAC max
        for cycle in range(400):
            ctl.observe(cycle, voltages)
        commanded = ctl.actuation.dac.max_power_w  # 3.15 W full scale
        applied = ctl.commands_for(500).dcc_powers_w[2]
        assert applied >= 0.5 * commanded

    def test_dcc_ramp_counts_slew_saturation(self):
        """The 8 W step demand exceeds the per-decision watt budget, so
        the dcc slew clamp must report saturation while ramping."""
        ctl = make_controller()
        voltages = healthy_voltages()
        voltages[2] = 1.4
        for cycle in range(200):
            ctl.observe(cycle, voltages)
        assert ctl.slew_saturations["dcc"] > 0

    def test_issue_slew_unchanged_by_dcc_fix(self):
        """DIWS ramps exactly as before: issue width falls by at most
        ``slew_issue`` slots per decision."""
        ctl = make_controller()
        ctl.observe(0, healthy_voltages())
        ctl.observe(1, drooping_voltages(3, v=0.0))  # instant deep droop
        widths = [d.issue_widths[3] for _, d in ctl._pipeline]
        assert widths[-1] >= 2.0 - 2 * ctl.config.slew_issue - 1e-12
