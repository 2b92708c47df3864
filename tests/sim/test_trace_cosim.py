"""Tests for the open-loop current-pattern PDN simulation."""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.pdn.parameters import DEFAULT_PDN
from repro.sim.trace_cosim import run_current_pattern
from repro.workloads.synthetic import layer_shutoff_currents


def flat_pattern(amps=3.0):
    return lambda t: np.full(16, amps)


def shutoff_run(area_mm2):
    """The top layer drops to leakage: the worst stack imbalance."""
    return run_current_pattern(
        layer_shutoff_currents(0.2e-6), 0.6e-6, cr_ivr_area_mm2=area_mm2
    )


class TestReplay:
    def test_balanced_trace_stays_near_nominal(self):
        result = run_current_pattern(flat_pattern(), 0.3e-6)
        assert result.sm_voltages.shape == (420, 16)
        assert np.median(result.sm_voltages) == pytest.approx(1.022, abs=0.005)
        assert np.ptp(result.sm_voltages) < 1e-9

    def test_imbalance_droops_without_cr_ivr(self):
        assert shutoff_run(0.0).min_voltage < 0.2

    def test_cr_ivr_improves_imbalanced_replay(self):
        bare = shutoff_run(0.0)
        regulated = shutoff_run(900.0)
        assert regulated.min_voltage > 0.75
        assert regulated.min_voltage > bare.min_voltage + 0.5

    def test_supply_current_tracks_load(self):
        """The series stack draws one column current per column: each
        SM's source current plus its conductance's, not their sum over
        the layers."""
        result = run_current_pattern(flat_pattern(3.0), 0.3e-6)
        v_sm = float(np.median(result.sm_voltages))
        columns = StackConfig().num_columns
        expected = columns * (3.0 + DEFAULT_PDN.sm_conductance * v_sm)
        assert result.supply_current.mean() == pytest.approx(expected, rel=1e-6)

    def test_validates_stack_match(self):
        with pytest.raises(ValueError, match="SMs"):
            run_current_pattern(
                flat_pattern(), 0.1e-6,
                stack=StackConfig(num_layers=2, num_columns=2),
            )

    def test_validates_duration(self):
        with pytest.raises(ValueError, match="duration"):
            run_current_pattern(flat_pattern(), 0.0)


class TestConsistencyWithClosedLoop:
    def test_replay_matches_cosim_noise_scale(self):
        """Re-driving a cosim's own per-SM currents open loop lands in
        the same noise regime (the open-loop methodology sanity
        check)."""
        from repro.sim.cosim import CosimConfig, run_cosim

        closed = run_cosim(
            "heartwall",
            CosimConfig(cycles=800, warmup_cycles=200, seed=5,
                        use_controller=False),
        )
        stack = StackConfig()
        bias = DEFAULT_PDN.sm_conductance * stack.sm_voltage
        currents = np.maximum(
            closed.power_trace.data / stack.sm_voltage - bias, 0.0
        )
        f = closed.power_trace.frequency_hz
        n = len(currents)
        replay = run_current_pattern(
            lambda t: currents[min(int(t * f), n - 1)], n / f,
            cr_ivr_area_mm2=105.8,
        )
        closed_std = float(closed.sm_voltages.std())
        replay_std = float(replay.sm_voltages.std())
        assert replay_std == pytest.approx(closed_std, rel=0.1)
