"""Bit-identity of the compiled batch solver against serial lanes.

``BatchTransientSolver.step_n`` runs the fused C substep kernel
(``_solverc.c``); it must reproduce B independent serial
:class:`TransientSolver` runs byte for byte — through randomized lane
counts / seeds / current schedules, a mid-run per-lane ``refactor()``
(shard split), guard recovery and lane quarantine, and including
``SolverStats`` step/factorization parity.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits import BatchSolverGuard, BatchTransientSolver
from repro.circuits.elements import Resistor
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS
SUBSTEPS = 2



def _make_lane(buffer=None):
    pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
    pdn.bind_current_buffer(buffer)
    solver = TransientSolver(pdn.circuit, dt=DT)
    return pdn, solver


def _schedule(rng, cycles):
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((cycles, NUM_SMS)) * 1.6)


def _run_batch(schedules, cycles, mutate=None):
    """Drive a batch; returns recorded waveforms."""
    n_lanes = len(schedules)
    currents_bt = np.zeros((n_lanes, NUM_SMS))
    lanes = [_make_lane(currents_bt[i]) for i in range(n_lanes)]
    batch = BatchTransientSolver(
        [s for _, s in lanes], shared_current_base=currents_bt
    )
    volts, supply = [], []
    for k in range(cycles):
        if mutate is not None:
            mutate(k, lanes)
        for i in range(n_lanes):
            lanes[i][0].set_sm_currents(schedules[i][k])
        volts.append(batch.step_n(SUBSTEPS).copy())
        supply.append(batch.vsource_currents("vdd").copy())
    # The batch defers each lane's time/step count to its clock; fold
    # them back before the lanes are read.
    batch.fold_lanes()
    return np.array(volts), np.array(supply), batch


def _run_serial(schedules, cycles, mutate=None):
    """The serial oracle: each lane stepped alone, substep by substep."""
    n_lanes = len(schedules)
    lanes = [_make_lane() for _ in range(n_lanes)]
    volts, supply = [], []
    for k in range(cycles):
        if mutate is not None:
            mutate(k, lanes)
        for i in range(n_lanes):
            lanes[i][0].set_sm_currents(schedules[i][k])
        node_v = None
        for _ in range(SUBSTEPS):
            node_v = np.array([s.step() for _, s in lanes])
        volts.append(node_v)
        supply.append(
            np.array([s.vsource_current("vdd") for _, s in lanes])
        )
    return np.array(volts), np.array(supply), lanes


def _assert_stats_match(batch, serial_lanes):
    for i, (_, s) in enumerate(serial_lanes):
        bs = batch.solvers[i]
        assert bs.stats.steps == s.stats.steps, f"lane {i} step count"
        assert bs.stats.factorizations == s.stats.factorizations, (
            f"lane {i} factorization count"
        )


class TestCrossBackendStepN:
    """Randomized lanes/seeds: c == serial, byte for byte."""

    @settings(max_examples=5, deadline=None)
    @given(
        n_lanes=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        cycles=st.integers(3, 10),
    )
    def test_c_vs_serial(self, n_lanes, seed, cycles):
        rng = np.random.default_rng(seed)
        schedules = [_schedule(rng, cycles) for _ in range(n_lanes)]
        v_c, s_c, batch_c = _run_batch(schedules, cycles)
        v_ref, s_ref, serial = _run_serial(schedules, cycles)

        assert v_c.tobytes() == v_ref.tobytes(), "c/serial voltages diverged"
        assert s_c.tobytes() == s_ref.tobytes(), "c/serial vdd currents"
        _assert_stats_match(batch_c, serial)


class TestMidRunRefactor:
    """A fault refactorization splits one lane's shard mid-run."""

    def test_refactored_lane_stays_serial_identical(self):
        cycles, refactor_at = 24, 10
        rng = np.random.default_rng(13)
        schedules = [_schedule(rng, cycles) for _ in range(3)]

        def degrade(k, lanes):
            if k == refactor_at:
                pdn, solver = lanes[1]
                pdn.circuit.elements_of_type(Resistor)[0].resistance *= 3.0
                solver.refactor()

        v_b, s_b, batch = _run_batch(schedules, cycles, mutate=degrade)
        v_ref, s_ref, serial = _run_serial(schedules, cycles, mutate=degrade)
        assert v_b.tobytes() == v_ref.tobytes(), "batch vs serial"
        assert s_b.tobytes() == s_ref.tobytes(), "batch vdd currents"
        _assert_stats_match(batch, serial)
        # Value-identical lanes shared one LU; the refactored lane now
        # factorizes alone.
        assert batch.shard_count == 2


class TestGuardRecoveryAndQuarantine:
    def test_poisoned_lu_recovers_via_refactor(self):
        """Stage-1 guard recovery (refactorize + redo).

        Poisoning lane 0's LU in place also poisons its shard (the
        shard borrows the representative lane's factorization), so the
        fused step fails; the guard must roll the bad rows back, redo
        them serially, refactorize lane 0, and keep every lane
        bit-identical to a serially-guarded run.
        """
        cycles, poison_at = 16, 6
        rng = np.random.default_rng(17)
        schedules = [_schedule(rng, cycles) for _ in range(3)]

        def poison_batch(k, lanes):
            if k == poison_at:
                lanes[0][1]._lu[0][:] = np.nan

        def poison_serial(k, lanes):
            if k == poison_at:
                lanes[0][1]._lu[0][:] = np.nan

        n_lanes = len(schedules)
        currents_bt = np.zeros((n_lanes, NUM_SMS))
        lanes = [_make_lane(currents_bt[i]) for i in range(n_lanes)]
        batch = BatchTransientSolver(
            [s for _, s in lanes], shared_current_base=currents_bt
        )
        guard = BatchSolverGuard(batch)
        volts = []
        for k in range(cycles):
            poison_batch(k, lanes)
            for i in range(n_lanes):
                lanes[i][0].set_sm_currents(schedules[i][k])
            node_v, failures = guard.step_cycle(SUBSTEPS, cycle=k)
            assert not failures, f"unexpected quarantine at cycle {k}"
            volts.append(node_v.copy())

        # Serial oracle: each lane behind its own SolverGuard.
        from repro.circuits import SolverGuard

        serial = [_make_lane() for _ in range(n_lanes)]
        serial_guards = [SolverGuard(s, lane=i) for i, (_, s) in
                         enumerate(serial)]
        ref_volts = []
        for k in range(cycles):
            poison_serial(k, serial)
            node_v = []
            for i in range(n_lanes):
                serial[i][0].set_sm_currents(schedules[i][k])
                node_v.append(serial_guards[i].step_cycle(SUBSTEPS, cycle=k))
            ref_volts.append(np.array(node_v))
        assert np.array(volts).tobytes() == np.array(ref_volts).tobytes()
        # Lane 0 recovered through exactly one refactorization, in both
        # drivers; the healthy lanes never entered the ladder.
        assert guard.guards[0].refactor_recoveries == 1
        assert serial_guards[0].refactor_recoveries == 1
        assert guard.counters()["divergences"] == 0
        for g in guard.guards[1:]:
            assert g.recoveries == 0

    def test_nan_state_lane_is_quarantined(self):
        """Unrecoverable reactive-state damage fails only its own lane."""
        cycles, poison_at = 12, 5
        rng = np.random.default_rng(19)
        schedules = [_schedule(rng, cycles) for _ in range(2)]
        currents_bt = np.zeros((2, NUM_SMS))
        lanes = [_make_lane(currents_bt[i]) for i in range(2)]
        batch = BatchTransientSolver(
            [s for _, s in lanes], shared_current_base=currents_bt
        )
        guard = BatchSolverGuard(batch)
        failures = {}
        for k in range(cycles):
            if k == poison_at:
                lanes[1][1]._react_v[:] = np.nan
            for i in range(2):
                lanes[i][0].set_sm_currents(schedules[i][k])
            _, failures = guard.step_cycle(SUBSTEPS, cycle=k)
            if failures:
                break
        assert list(failures) == [1]
        assert guard.guards[1].counters()["divergences"] == 1
        assert guard.guards[0].counters()["divergences"] == 0


class TestCosimCrossBackend:
    """End-to-end: run_cosim_batch on the compiled solver == the serial
    oracle on the NumPy ``TransientSolver``."""

    @settings(max_examples=3, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**10), min_size=2, max_size=3),
        bench_picks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
        k1=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_both_backends_match_serial(self, seeds, bench_picks, k1):
        from repro.core.controller import ControllerConfig
        from repro.sim.cosim import (
            CosimConfig,
            CosimLane,
            run_cosim_batch,
        )
        from tests.oracles.serial_cosim import run_cosim_reference

        benchmarks = ("hotspot", "bfs", "srad")
        lanes = []
        for i, seed in enumerate(seeds):
            kwargs = dict(cycles=160, warmup_cycles=30, seed=seed)
            if i == 1:
                kwargs["controller"] = ControllerConfig(k1=k1)
            lanes.append(
                CosimLane(
                    benchmark=benchmarks[bench_picks[i]],
                    config=CosimConfig(**kwargs),
                )
            )
        serial = [
            run_cosim_reference(ln.benchmark, config=ln.config)
            for ln in lanes
        ]
        batch = run_cosim_batch(list(lanes))
        for i, (b, s) in enumerate(zip(batch, serial)):
            label = f"lane {i}"
            assert np.array_equal(
                b.power_trace.data, s.power_trace.data
            ), label
            assert np.array_equal(b.sm_voltages, s.sm_voltages), label
            assert np.array_equal(
                b.supply_current, s.supply_current
            ), label
            assert b.instructions == s.instructions, label
            assert b.fake_instructions == s.fake_instructions, label
            assert b.throttled_cycles == s.throttled_cycles, label
            assert b.mean_dcc_power_w == s.mean_dcc_power_w, label
