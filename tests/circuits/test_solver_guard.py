"""Numerical guard-rail tests (SolverGuard / BatchSolverGuard).

The guard's contract has three parts: the clean path is bit-identical
to an unguarded solver (recovery machinery must cost nothing when
nothing goes wrong), each escalation stage recovers the class of
failure it exists for (stale/poisoned LU -> refactorize; transient
solve failures -> bounded dt-halving), and an unrecoverable cycle
raises :class:`NumericalDivergence` carrying real forensics with the
solver restored to the cycle boundary.
"""

import json

import numpy as np
import pytest

from repro.circuits import (
    BatchSolverGuard,
    BatchTransientSolver,
    Circuit,
    NumericalDivergence,
    SolverGuard,
    TransientSolver,
)

DT = 1e-10
SUBSTEPS = 4


def rail_circuit(load_a=1.0):
    """Small stacked rail: source, series R, decap, current-source load."""
    ckt = Circuit("rail")
    ckt.add_voltage_source("vdd", "in", "0", 1.0)
    ckt.add_resistor("r", "in", "out", 0.1)
    ckt.add_capacitor("c", "out", "0", 1e-9, v0=1.0)
    ckt.add_current_source("load", "out", "0", load_a)
    return ckt


def make_solver(load_a=1.0):
    solver = TransientSolver(rail_circuit(load_a), dt=DT)
    solver.initialize_dc()
    return solver


class TestCleanPath:
    def test_guarded_cycles_bit_identical_to_unguarded(self):
        guarded = make_solver()
        plain = make_solver()
        guard = SolverGuard(guarded)
        for cycle in range(20):
            node_g = guard.step_cycle(SUBSTEPS, cycle=cycle)
            for _ in range(SUBSTEPS):
                node_p = plain.step()
            assert np.array_equal(node_g, node_p), f"cycle {cycle}"
            assert np.array_equal(guarded.solution, plain.solution)
        assert guarded.time == plain.time
        assert guard.counters() == {
            "refactor_recoveries": 0,
            "dt_halving_recoveries": 0,
            "divergences": 0,
        }
        assert guard.recoveries == 0

    def test_constructor_validation(self):
        solver = make_solver()
        with pytest.raises(ValueError):
            SolverGuard(solver, spike_limit_v=0.0)
        with pytest.raises(ValueError):
            SolverGuard(solver, max_dt_halvings=-1)


class TestRefactorRecovery:
    def test_poisoned_lu_is_refactorized_and_cycle_redone(self):
        solver = make_solver()
        reference = make_solver()
        guard = SolverGuard(solver)
        for cycle in range(3):
            guard.step_cycle(SUBSTEPS, cycle=cycle)
            for _ in range(SUBSTEPS):
                reference.step()
        # Poison the cached factorization: the next solve yields NaN
        # without raising, the health scan catches it, and stage 1
        # (refactorize + redo from the cycle-start snapshot) recovers.
        lu, piv = solver._lu
        solver._lu = (np.full_like(lu, np.nan), piv)
        node_v = guard.step_cycle(SUBSTEPS, cycle=3)
        for _ in range(SUBSTEPS):
            ref_v = reference.step()
        assert guard.refactor_recoveries == 1
        assert guard.divergences == 0
        # Recovery lands on exactly the state a clean cycle produces.
        assert np.array_equal(node_v, ref_v)
        assert solver.time == reference.time

    def test_exception_during_solve_recovers_via_refactor(self, monkeypatch):
        solver = make_solver()
        guard = SolverGuard(solver)
        real_step = solver.step
        calls = {"n": 0}

        # Only the first attempt's solve fails (each failed attempt
        # aborts on its first raising step); the stage-1 redo succeeds.
        def flaky_step():
            calls["n"] += 1
            if calls["n"] <= 1:
                raise FloatingPointError("injected transient failure")
            return real_step()

        monkeypatch.setattr(solver, "step", flaky_step)
        guard.step_cycle(SUBSTEPS, cycle=0)
        assert guard.refactor_recoveries == 1
        assert guard.divergences == 0


class TestDtHalvingRecovery:
    def test_persistent_failure_recovers_at_halved_dt(self, monkeypatch):
        solver = make_solver()
        guard = SolverGuard(solver, max_dt_halvings=3)
        dt0 = solver.dt
        t0 = solver.time
        real_step = solver.step
        calls = {"n": 0}
        # Fail the first attempt and the refactor redo (one raising
        # call aborts each), so the guard must escalate to stage 2.
        def flaky_step():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise FloatingPointError("injected")
            return real_step()

        monkeypatch.setattr(solver, "step", flaky_step)
        guard.step_cycle(SUBSTEPS, cycle=0)
        assert guard.dt_halving_recoveries == 1
        assert guard.refactor_recoveries == 0
        # dt is restored and the end time sits exactly on the nominal
        # grid (the clean path's accumulation sequence).
        assert solver.dt == dt0
        t_expect = t0
        for _ in range(SUBSTEPS):
            t_expect = t_expect + dt0
        assert solver.time == t_expect


class TestDivergence:
    def test_poisoned_state_exhausts_the_ladder(self):
        solver = make_solver()
        guard = SolverGuard(solver, lane=7)
        t_before = solver.time
        # NaN in the reactive state is in the snapshot itself: no
        # recovery stage can undo it, so the ladder must exhaust.
        solver._react_v[:] = np.nan
        with pytest.raises(NumericalDivergence) as excinfo:
            guard.step_cycle(SUBSTEPS, cycle=42)
        err = excinfo.value
        assert err.stage == "exhausted"
        assert err.cycle == 42
        assert err.lane == 7
        assert err.worst_node is not None
        assert guard.divergences == 1
        # The lane is left parked at the cycle boundary.
        assert solver.time == t_before

    def test_spike_limit_catches_absurd_but_finite_voltages(self):
        solver = make_solver()
        # The rail sits near 1 V; a 1 uV ceiling flags every solution.
        guard = SolverGuard(solver, spike_limit_v=1e-6, max_dt_halvings=1)
        with pytest.raises(NumericalDivergence) as excinfo:
            guard.step_cycle(SUBSTEPS, cycle=0)
        err = excinfo.value
        assert np.isfinite(err.worst_value)
        assert abs(err.worst_value) >= 1e-6

    def test_forensics_record_is_json_ready(self):
        solver = make_solver()
        guard = SolverGuard(solver)
        solver._react_v[:] = np.nan
        with pytest.raises(NumericalDivergence) as excinfo:
            guard.step_cycle(SUBSTEPS, cycle=5)
        record = excinfo.value.forensics()
        assert record["stage"] == "exhausted"
        assert record["cycle"] == 5
        assert record["recoveries"] == {
            "refactor_recoveries": 0,
            "dt_halving_recoveries": 0,
            "divergences": 1,
        }
        json.dumps(record)  # must not need any custom encoder


class TestBatchGuard:
    def _batch(self, loads):
        """Rail lanes whose loads read row i of one shared (B, 1) base."""
        base = np.array(loads, dtype=float).reshape(-1, 1)
        solvers = []
        for row, load_a in zip(base, loads):
            circuit = rail_circuit(load_a)
            circuit.element("load").bind_batch(row, 0)
            solver = TransientSolver(circuit, dt=DT)
            solver.initialize_dc()
            solvers.append(solver)
        return BatchTransientSolver(solvers, shared_current_base=base), solvers

    def test_clean_batch_cycle_matches_serial(self):
        batch, solvers = self._batch([0.5, 1.0, 1.5])
        guard = BatchSolverGuard(batch)
        serial = [make_solver(a) for a in (0.5, 1.0, 1.5)]
        for cycle in range(10):
            node_bt, failures = guard.step_cycle(SUBSTEPS, cycle=cycle)
            assert failures == {}
            for row, ref in enumerate(serial):
                for _ in range(SUBSTEPS):
                    ref_v = ref.step()
                assert np.array_equal(node_bt[row], ref_v)

    def test_one_bad_lane_fails_alone(self):
        batch, solvers = self._batch([0.5, 1.0, 1.5])
        guard = BatchSolverGuard(batch)
        guard.step_cycle(SUBSTEPS, cycle=0)
        serial = [make_solver(a) for a in (0.5, 1.0, 1.5)]
        for ref in serial:
            for _ in range(SUBSTEPS):
                ref.step()
        solvers[1]._react_v[:] = np.nan
        node_bt, failures = guard.step_cycle(SUBSTEPS, cycle=1)
        assert list(failures) == [1]
        assert failures[1].lane == 1
        assert failures[1].cycle == 1
        # Healthy lanes are untouched by the bad one's rollback.
        for row in (0, 2):
            for _ in range(SUBSTEPS):
                ref_v = serial[row].step()
            assert np.array_equal(node_bt[row], ref_v)

    def test_counters_aggregate_over_lanes(self):
        batch, solvers = self._batch([1.0, 1.0])
        guard = BatchSolverGuard(batch)
        solvers[0]._react_v[:] = np.nan
        _, failures = guard.step_cycle(SUBSTEPS, cycle=0)
        assert list(failures) == [0]
        assert guard.counters()["divergences"] == 1

    def test_guard_pairing_is_validated(self):
        batch, solvers = self._batch([1.0, 1.0])
        with pytest.raises(ValueError):
            BatchSolverGuard(batch, guards=[SolverGuard(solvers[0])])
        with pytest.raises(ValueError):
            BatchSolverGuard(
                batch,
                guards=[SolverGuard(solvers[1]), SolverGuard(solvers[0])],
            )
