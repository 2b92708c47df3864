"""Transient solver tests against closed-form circuit theory results."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, TransientSolver
from tests.oracles.naive_solver import NaiveTransientSolver


def rc_circuit(r=100.0, c=1e-9, v=1.0):
    ckt = Circuit("rc")
    ckt.add_voltage_source("vin", "in", "0", v)
    ckt.add_resistor("r", "in", "out", r)
    ckt.add_capacitor("c", "out", "0", c, v0=0.0)
    return ckt


class TestRCStep:
    def test_charging_curve_matches_analytic(self):
        r, c, v = 100.0, 1e-9, 1.0
        tau = r * c
        ckt = rc_circuit(r, c, v)
        solver = TransientSolver(ckt, dt=tau / 100)
        # Start from the capacitor's stated initial condition, not DC.
        result = solver.run(5 * tau, record=["out"], initialize=False)
        analytic = v * (1 - np.exp(-result.times / tau))
        # Trapezoidal startup carries a half-step error (~h/2tau) at t=0+;
        # beyond that the curve tracks the analytic solution tightly.
        assert np.max(np.abs(result.voltage("out") - analytic)) < 6e-3
        late = result.times > tau
        assert np.max(np.abs(result.voltage("out")[late] - analytic[late])) < 2.5e-3

    def test_dc_initialization_starts_settled(self):
        ckt = rc_circuit()
        solver = TransientSolver(ckt, dt=1e-9)
        result = solver.run(1e-6, record=["out"])
        # Initialized at DC: output stays at the source voltage throughout.
        assert np.allclose(result.voltage("out"), 1.0, atol=1e-9)


class TestRLCResonance:
    def test_underdamped_ringing_frequency(self):
        # Series RLC driven by a current step into the tank: ring at
        # f = 1/(2*pi*sqrt(LC)) (approximately, for low damping).
        l, c, r = 10e-9, 100e-9, 0.05
        f0 = 1 / (2 * math.pi * math.sqrt(l * c))
        ckt = Circuit("rlc")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("r", "in", "mid", r)
        ckt.add_inductor("l", "mid", "out", l)
        ckt.add_capacitor("c", "out", "0", c, v0=0.0)
        # Load step at t=0 excites the tank (start from unsettled IC).
        solver = TransientSolver(ckt, dt=1.0 / (f0 * 200))
        result = solver.run(6 / f0, record=["out"], initialize=False)
        waveform = result.voltage("out") - 1.0
        # Count zero crossings to estimate the ringing frequency.
        signs = np.sign(waveform[np.abs(waveform) > 1e-6])
        crossings = np.sum(signs[1:] != signs[:-1])
        measured_f0 = crossings / 2 / (result.times[-1] - result.times[0])
        assert measured_f0 == pytest.approx(f0, rel=0.1)

    def test_energy_decays_with_resistance(self):
        l, c, r = 10e-9, 100e-9, 0.5
        f0 = 1 / (2 * math.pi * math.sqrt(l * c))
        ckt = Circuit("rlc")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("r", "in", "mid", r)
        ckt.add_inductor("l", "mid", "out", l)
        ckt.add_capacitor("c", "out", "0", c, v0=0.0)
        solver = TransientSolver(ckt, dt=1.0 / (f0 * 100))
        result = solver.run(20 / f0, record=["out"], initialize=False)
        waveform = result.voltage("out")
        # Final value settles to the source voltage.
        assert waveform[-1] == pytest.approx(1.0, abs=1e-3)


class TestCurrentSourceLoad:
    def test_ir_drop_at_dc(self):
        # 1 A load through 0.1 ohm: the rail sags by exactly 100 mV.
        ckt = Circuit("irdrop")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("rpdn", "in", "chip", 0.1)
        ckt.add_capacitor("cdecap", "chip", "0", 1e-9)
        ckt.add_current_source("load", "chip", "0", 1.0)
        solver = TransientSolver(ckt, dt=1e-10)
        result = solver.run(50e-9, record=["chip"])
        assert result.voltage("chip")[-1] == pytest.approx(0.9, abs=1e-6)

    def test_override_changes_load(self):
        ckt = Circuit("override")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("rpdn", "in", "chip", 0.1)
        ckt.add_capacitor("cdecap", "chip", "0", 1e-12)
        load = ckt.add_current_source("load", "chip", "0", 0.0)
        solver = TransientSolver(ckt, dt=1e-10)
        solver.initialize_dc()
        load.override = 2.0
        for _ in range(500):
            solver.step()
        assert solver.node_voltage("chip") == pytest.approx(0.8, abs=1e-4)

    def test_time_varying_source(self):
        ckt = Circuit("tv")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("rpdn", "in", "chip", 0.1)
        ckt.add_capacitor("cdecap", "chip", "0", 1e-12)
        ckt.add_current_source("load", "chip", "0", lambda t: 1.0 if t > 5e-9 else 0.0)
        solver = TransientSolver(ckt, dt=1e-10)
        result = solver.run(20e-9, record=["chip"])
        v = result.voltage("chip")
        assert v[0] == pytest.approx(1.0, abs=1e-6)
        # Trapezoidal ringing (tau << dt) leaves a small residual.
        assert v[-1] == pytest.approx(0.9, abs=1e-3)


class TestVectorizedEquivalence:
    """The scatter/gather step must track the naive loop bit-for-bit.

    The shipped step emits its RHS accumulation triples in the naive
    oracle's execution order, so per-node floating-point summation order
    is identical and the waveforms match exactly — not just to rounding.
    """

    def _two_solvers(self, build):
        fast = TransientSolver(build(), dt=1e-10)
        slow = NaiveTransientSolver(build(), dt=1e-10)
        return fast, slow

    def test_rc_bitwise_identical(self):
        fast, slow = self._two_solvers(rc_circuit)
        a = fast.run(50e-9, record=["out"], initialize=False)
        b = slow.run(50e-9, record=["out"], initialize=False)
        assert np.array_equal(a.voltage("out"), b.voltage("out"))

    def test_rlc_with_load_bitwise_identical(self):
        def build():
            ckt = Circuit("rlc_load")
            ckt.add_voltage_source("vin", "in", "0", 1.0)
            ckt.add_resistor("r", "in", "mid", 0.05)
            ckt.add_inductor("l", "mid", "chip", 10e-9)
            ckt.add_capacitor("c", "chip", "0", 100e-9, v0=0.0)
            ckt.add_current_source(
                "load", "chip", "0", lambda t: 0.5 if t > 2e-9 else 0.0
            )
            return ckt

        fast, slow = self._two_solvers(build)
        a = fast.run(30e-9, record=["chip", "mid"], initialize=False)
        b = slow.run(30e-9, record=["chip", "mid"], initialize=False)
        assert np.array_equal(a.voltage("chip"), b.voltage("chip"))
        assert np.array_equal(a.voltage("mid"), b.voltage("mid"))

    def test_stacked_pdn_bitwise_identical(self):
        """The production netlist: a full 4x4 stacked PDN."""
        from repro.pdn.builder import build_stacked_pdn

        results = []
        for solver_cls in (TransientSolver, NaiveTransientSolver):
            pdn = build_stacked_pdn()
            solver = solver_cls(pdn.circuit, dt=1e-10)
            solver.initialize_dc()
            rng = np.random.default_rng(11)
            trace = []
            for k in range(200):
                pdn.set_sm_currents(1.0 + 0.5 * rng.random(16))
                solver.step()
                trace.append(
                    [pdn.sm_voltage(solver, sm) for sm in range(4)]
                )
            results.append(np.asarray(trace))
        assert np.array_equal(results[0], results[1])

    def test_dc_operating_points_match(self):
        fast, slow = self._two_solvers(rc_circuit)
        assert np.array_equal(fast.initialize_dc(), slow.initialize_dc())

    def test_inductor_state_matches(self):
        def build():
            ckt = Circuit("l")
            ckt.add_voltage_source("vin", "in", "0", 1.0)
            ckt.add_resistor("r", "in", "mid", 1.0)
            ckt.add_inductor("l", "mid", "0", 1e-9)
            return ckt

        fast, slow = self._two_solvers(build)
        fast.initialize_dc()
        slow.initialize_dc()
        for _ in range(100):
            fast.step()
            slow.step()
        assert fast.inductor_current("l") == slow.inductor_current("l")


class TestBatchCurrentBinding:
    def test_batch_buffer_drives_source(self):
        ckt = Circuit("batch")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("rpdn", "in", "chip", 0.1)
        ckt.add_capacitor("cdecap", "chip", "0", 1e-12)
        load = ckt.add_current_source("load", "chip", "0", 0.0)
        buffer = np.zeros(1)
        load.bind_batch(buffer, 0)
        solver = TransientSolver(ckt, dt=1e-10)
        solver.initialize_dc()
        buffer[0] = 2.0
        for _ in range(500):
            solver.step()
        assert solver.node_voltage("chip") == pytest.approx(0.8, abs=1e-4)

    def test_batch_supersedes_override_and_value(self):
        ckt = Circuit("precedence")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("r", "in", "chip", 0.1)
        load = ckt.add_current_source("load", "chip", "0", 5.0)
        load.override = 3.0
        buffer = np.array([1.0])
        load.bind_batch(buffer, 0)
        assert load.current_at(0.0) == 1.0

    def test_bind_batch_rejects_bad_index(self):
        ckt = Circuit("badidx")
        load = ckt.add_current_source("load", "a", "0", 0.0)
        with pytest.raises(IndexError):
            load.bind_batch(np.zeros(2), 2)


class TestSolverInterface:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            TransientSolver(rc_circuit(), dt=0.0)

    def test_rejects_nonpositive_duration(self):
        solver = TransientSolver(rc_circuit(), dt=1e-9)
        with pytest.raises(ValueError, match="duration"):
            solver.run(0.0)

    def test_inductor_current_query(self):
        ckt = Circuit("l")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("r", "in", "mid", 1.0)
        ckt.add_inductor("l", "mid", "0", 1e-9)
        solver = TransientSolver(ckt, dt=1e-11)
        solver.initialize_dc()
        # DC: inductor is a short, so 1 V across 1 ohm = 1 A through L.
        assert solver.inductor_current("l") == pytest.approx(1.0, rel=1e-3)
        with pytest.raises(KeyError):
            solver.inductor_current("nope")

    def test_step_n_runs_a_patched_step_per_substep(self, monkeypatch):
        """A wrapped ``step`` (fault hooks, tests) sees every substep of a
        multi-step call; the wrapper's call of the original ``step``
        (itself ``step_n(1)``) must not recurse back into the wrapper."""
        plain = TransientSolver(rc_circuit(), dt=1e-9)
        wrapped = TransientSolver(rc_circuit(), dt=1e-9)
        real_step = wrapped.step
        calls = []

        def counting_step():
            calls.append(wrapped.time)
            return real_step()

        monkeypatch.setattr(wrapped, "step", counting_step)
        assert np.array_equal(wrapped.step_n(5), plain.step_n(5))
        assert len(calls) == 5
        assert wrapped.stats.steps == plain.stats.steps == 5

    def test_ground_voltage_is_zero(self):
        solver = TransientSolver(rc_circuit(), dt=1e-9)
        solver.initialize_dc()
        assert solver.node_voltage("0") == 0.0

    def test_differential_recording(self):
        ckt = rc_circuit()
        solver = TransientSolver(ckt, dt=1e-9)
        result = solver.run(100e-9, record=["in", "out"])
        diff = result.differential("in", "out")
        assert np.allclose(diff, result.voltage("in") - result.voltage("out"))
