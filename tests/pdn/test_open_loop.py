"""Open-loop PDN runs on batch-solver lanes (``tests/pdn/open_loop.py``).

The physics checks drive synthetic stimuli through the stacked PDN; the
replay checks hold every lane byte-equal to a serial
``TransientSolver.step()`` loop over its own netlist.
"""

import numpy as np
import pytest

from repro.circuits import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN
from repro.workloads.synthetic import (
    layer_shutoff_currents,
    resonance_currents,
    worst_case_residual_currents,
)
from tests.pdn.open_loop import run_open_loop

DT = 1.0 / 1.4e9
SETTLE = 0.5e-6
NUM_SMS = StackConfig().num_sms


def flat_pattern(amps=3.0):
    return lambda t: np.full(NUM_SMS, amps)


def shutoff_run(area_mm2):
    """The top layer drops to leakage: the worst stack imbalance."""
    (result,) = run_open_loop(
        [layer_shutoff_currents(0.2e-6)], 0.6e-6, cr_ivr_area_mm2=area_mm2
    )
    return result


class TestReplay:
    def test_balanced_trace_stays_near_nominal(self):
        (result,) = run_open_loop([flat_pattern()], 0.3e-6)
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
        (result,) = run_open_loop([flat_pattern(3.0)], 0.3e-6)
        v_sm = float(np.median(result.sm_voltages))
        columns = StackConfig().num_columns
        expected = columns * (3.0 + DEFAULT_PDN.sm_conductance * v_sm)
        assert result.supply_current.mean() == pytest.approx(expected, rel=1e-6)


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
        (replay,) = run_open_loop(
            [lambda t: currents[min(int(t * f), n - 1)]], n / f,
            cr_ivr_area_mm2=105.8,
        )
        closed_std = float(closed.sm_voltages.std())
        replay_std = float(replay.sm_voltages.std())
        assert replay_std == pytest.approx(closed_std, rel=0.1)


def serial_replay(pattern, duration_s, area_mm2):
    """One stimulus on one serial solver: the DC point at ``pattern(0)``,
    the settle, then the recorded steps, each after writing
    ``pattern(t)`` at the solver's pre-step time (measured from the
    settle's end once recording starts)."""
    pdn = build_stacked_pdn(cr_ivr_area_mm2=area_mm2)
    solver = TransientSolver(pdn.circuit, dt=DT)
    pdn.set_sm_currents(pattern(0.0))
    solver.initialize_dc()
    for _ in range(int(SETTLE / DT)):
        pdn.set_sm_currents(pattern(solver.time))
        solver.step()
    start = solver.time
    steps = int(duration_s / DT)
    volts = np.empty((steps, NUM_SMS))
    supply = np.empty(steps)
    for k in range(steps):
        pdn.set_sm_currents(pattern(solver.time - start))
        solver.step()
        volts[k] = [pdn.sm_voltage(solver, sm) for sm in range(NUM_SMS)]
        supply[k] = solver.vsource_current("vdd")
    return volts, supply


RESONANCE_MHZ = [20, 35, 50, 63, 80, 110, 150, 220]


class TestAgainstSerialReplay:
    """Each lane equals its serial replay byte for byte."""

    @staticmethod
    def _assert_lanes_equal_serial(patterns, duration_s, area_mm2):
        lanes = run_open_loop(patterns, duration_s, cr_ivr_area_mm2=area_mm2)
        assert len(lanes) == len(patterns)
        for pattern, lane in zip(patterns, lanes):
            volts, supply = serial_replay(pattern, duration_s, area_mm2)
            assert lane.sm_voltages.shape == volts.shape
            assert lane.sm_voltages.tobytes() == volts.tobytes()
            assert lane.supply_current.tobytes() == supply.tobytes()

    def test_resonance_frequencies(self):
        patterns = [
            resonance_currents(f * 1e6, low_activity=0.4, high_activity=0.9)
            for f in RESONANCE_MHZ
        ]
        self._assert_lanes_equal_serial(patterns, 0.8e-6, 0.0)

    def test_residual_and_global_pair(self):
        patterns = [
            worst_case_residual_currents(
                2e6, sm=0, amplitude_a=2.0, activity=0.6
            ),
            resonance_currents(2e6, low_activity=0.56, high_activity=0.64),
        ]
        self._assert_lanes_equal_serial(patterns, 2.0e-6, 0.0)

    @pytest.mark.parametrize("area_mm2", [0.0, 105.8, 900.0])
    def test_layer_shutoff(self, area_mm2):
        self._assert_lanes_equal_serial(
            [layer_shutoff_currents(0.2e-6)], 0.6e-6, area_mm2
        )
