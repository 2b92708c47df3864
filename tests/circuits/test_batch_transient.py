"""Bit-identity contract of the lock-stepped batch transient solver.

``BatchTransientSolver`` steps B same-topology :class:`TransientSolver`
lanes in one compiled call; every step must return node voltages
byte-equal to stepping each lane alone — including after a mid-run
per-lane ``refactor()`` (a fault injector mutating one lane's element
values), and with per-lane state (``solution`` rows, vsource currents,
step statistics) staying coherent through the batch views.  A lane set
the compiled kernel cannot step is rejected at construction.
"""

import numpy as np
import pytest

from repro.circuits import BatchTransientSolver
from repro.circuits.elements import Resistor, VoltageSource
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS  # ~per-SM draw in amps, cosim's ballpark


def _make_lane(buffer=None):
    pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
    pdn.bind_current_buffer(buffer)
    solver = TransientSolver(pdn.circuit, dt=DT)
    return pdn, solver


def _current_schedule(rng, steps):
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((steps, NUM_SMS)) * 1.6)


class TestBatchStepEquivalence:
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_bit_identical_to_serial(self, n_lanes):
        steps = 160
        rng = np.random.default_rng(7)
        schedules = [_current_schedule(rng, steps) for _ in range(n_lanes)]

        currents_bt = np.zeros((n_lanes, NUM_SMS))
        batch_lanes = [_make_lane(currents_bt[i]) for i in range(n_lanes)]
        batch = BatchTransientSolver(
            [s for _, s in batch_lanes],
            shared_current_base=currents_bt,
        )
        serial_lanes = [_make_lane() for _ in range(n_lanes)]

        for k in range(steps):
            for i in range(n_lanes):
                batch_lanes[i][0].set_sm_currents(schedules[i][k])
                serial_lanes[i][0].set_sm_currents(schedules[i][k])
            node_v = batch.step()
            for i, (_, s) in enumerate(serial_lanes):
                ref = s.step()
                assert np.array_equal(node_v[i], ref), f"lane {i} step {k}"
            assert np.array_equal(
                batch.vsource_currents("vdd"),
                [s.vsource_current("vdd") for _, s in serial_lanes],
            ), f"vsource currents diverged at step {k}"
        # Lane time and step counts are deferred to the batch clock.
        batch.fold_lanes()
        for i, (_, s) in enumerate(serial_lanes):
            bs = batch.solvers[i]
            assert bs.stats.steps == s.stats.steps
            assert bs.time == pytest.approx(s.time)
            # Per-lane solution stays a coherent row view of the batch.
            assert np.shares_memory(bs.solution, batch._sol_bt)

    def test_mid_run_refactor_of_one_lane(self):
        steps, refactor_at = 120, 50
        rng = np.random.default_rng(11)
        schedules = [_current_schedule(rng, steps) for _ in range(3)]

        currents_bt = np.zeros((3, NUM_SMS))
        batch_lanes = [_make_lane(currents_bt[i]) for i in range(3)]
        batch = BatchTransientSolver(
            [s for _, s in batch_lanes],
            shared_current_base=currents_bt,
        )
        serial_lanes = [_make_lane() for _ in range(3)]

        def degrade(pdn, solver):
            """A fault injector's move: age one parasitic, refactor."""
            resistor = pdn.circuit.elements_of_type(Resistor)[0]
            resistor.resistance *= 3.0
            solver.refactor()

        for k in range(steps):
            if k == refactor_at:
                degrade(*batch_lanes[1])
                degrade(*serial_lanes[1])
            for i in range(3):
                batch_lanes[i][0].set_sm_currents(schedules[i][k])
                serial_lanes[i][0].set_sm_currents(schedules[i][k])
            node_v = batch.step()
            for i, (_, s) in enumerate(serial_lanes):
                assert np.array_equal(node_v[i], s.step()), (
                    f"lane {i} diverged at step {k} "
                    f"({'post' if k >= refactor_at else 'pre'}-refactor)"
                )


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchTransientSolver([])

    def test_missing_current_base_rejected(self):
        currents = np.zeros((2, NUM_SMS))
        solvers = [_make_lane(currents[i])[1] for i in range(2)]
        with pytest.raises(ValueError, match="needs shared_current_base"):
            BatchTransientSolver(solvers)

    def test_non_contiguous_current_base_rejected(self):
        block = np.zeros((NUM_SMS, 2))
        currents = block.T  # (2, NUM_SMS), Fortran-ordered
        solvers = [_make_lane(currents[i])[1] for i in range(2)]
        with pytest.raises(ValueError, match="C-contiguous"):
            BatchTransientSolver(solvers, shared_current_base=currents)

    def test_unbound_current_source_rejected(self):
        currents = np.zeros((2, NUM_SMS))
        solvers = []
        for i in range(2):
            pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
            pdn.bind_current_buffer(currents[i])
            pdn.circuit.add_current_source(
                "leak", pdn.sm_sources[0].node_pos, "0", 0.1
            )
            solvers.append(TransientSolver(pdn.circuit, dt=DT))
        with pytest.raises(ValueError, match="'leak' is not bound"):
            BatchTransientSolver(solvers, shared_current_base=currents)

    def test_callable_voltage_source_rejected(self):
        currents = np.zeros((2, NUM_SMS))
        _, lane0 = _make_lane(currents[0])
        other, _ = _make_lane(currents[1])
        vdd = other.circuit.elements_of_type(VoltageSource)[0]
        level = float(vdd.value)
        vdd.value = lambda t: level
        lane1 = TransientSolver(other.circuit, dt=DT)
        with pytest.raises(ValueError, match="waveform callable"):
            BatchTransientSolver(
                [lane0, lane1], shared_current_base=currents
            )

    def test_buffer_outside_its_base_row_rejected(self):
        currents = np.zeros((2, NUM_SMS))
        # Lane 1 bound to row 0: both lanes would read one row.
        solvers = [_make_lane(currents[0])[1], _make_lane(currents[0])[1]]
        with pytest.raises(ValueError, match="not row 1"):
            BatchTransientSolver(solvers, shared_current_base=currents)
        elsewhere = np.zeros(NUM_SMS)
        solvers[1] = _make_lane(elsewhere)[1]
        with pytest.raises(ValueError, match="not row 1"):
            BatchTransientSolver(solvers, shared_current_base=currents)

    def test_unknown_vsource_rejected(self):
        currents = np.zeros((1, NUM_SMS))
        _, solver = _make_lane(currents[0])
        batch = BatchTransientSolver([solver], shared_current_base=currents)
        with pytest.raises(KeyError, match="nope"):
            batch.vsource_currents("nope")
