"""Bit-identity of the compiled batch solver against serial lanes.

``BatchTransientSolver.step_n`` runs the fused C substep kernel
(``_solverc.c``); it must reproduce B independent serial
:class:`TransientSolver` runs byte for byte — through randomized lane
counts (a lone lane, padded and full chunks of eight, several chunks)
and shards whose lanes interleave, PDNs at several CR-IVR areas, random
RC meshes up to the kernel's 64 unknowns, lanes whose state holds NaN
or ±inf, a mid-run per-lane ``refactor()`` (shard split), guard
recovery and lane quarantine, and including ``SolverStats``
step/factorization parity.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuits import BatchSolverGuard, BatchTransientSolver, Circuit
from repro.circuits.elements import Resistor
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS
SUBSTEPS = 2
#: CR-IVR areas (mm^2); 0 builds the PDN without the regulator.
AREAS = (0.0, 52.9, 105.8, 211.6)


def _make_lane(buffer=None, area=0.0):
    pdn = build_stacked_pdn(
        stack=StackConfig(), params=DEFAULT_PDN, cr_ivr_area_mm2=area
    )
    pdn.bind_current_buffer(buffer)
    solver = TransientSolver(pdn.circuit, dt=DT)
    return pdn, solver


def _schedule(rng, cycles):
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((cycles, NUM_SMS)) * 1.6)


def _run_batch(schedules, cycles, mutate=None, areas=None):
    """Drive a batch (lane i at CR-IVR area ``areas[i]``, default 0);
    returns recorded waveforms."""
    n_lanes = len(schedules)
    areas = areas or [0.0] * n_lanes
    currents_bt = np.zeros((n_lanes, NUM_SMS))
    lanes = [_make_lane(currents_bt[i], areas[i]) for i in range(n_lanes)]
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


def _run_serial(schedules, cycles, mutate=None, areas=None):
    """The serial oracle: each lane stepped alone, substep by substep."""
    n_lanes = len(schedules)
    areas = areas or [0.0] * n_lanes
    lanes = [_make_lane(area=areas[i]) for i in range(n_lanes)]
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
    """Randomized lanes/seeds/areas: c == serial, byte for byte.

    Lane i sits at CR-IVR area ``areas[i]``; lanes of one area share a
    shard, so mixed lists interleave shards, and the kernel's chunks of
    eight lanes show up whole, padded, alone (width 1) and in pairs.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        areas=st.lists(st.sampled_from(AREAS), min_size=1, max_size=17),
        seed=st.integers(0, 2**16),
        cycles=st.integers(3, 8),
    )
    @example(areas=[52.9], seed=1, cycles=3)
    @example(areas=[0.0, 105.8, 0.0, 105.8, 0.0], seed=2, cycles=3)
    @example(areas=[211.6] * 8, seed=3, cycles=3)
    @example(areas=[105.8] * 17, seed=4, cycles=3)
    @example(areas=[105.8, 211.6] * 8 + [105.8], seed=5, cycles=3)
    @example(areas=list(AREAS) * 4, seed=6, cycles=3)
    def test_c_vs_serial(self, areas, seed, cycles):
        rng = np.random.default_rng(seed)
        schedules = [_schedule(rng, cycles) for _ in areas]
        v_c, s_c, batch_c = _run_batch(schedules, cycles, areas=areas)
        v_ref, s_ref, serial = _run_serial(schedules, cycles, areas=areas)

        assert v_c.tobytes() == v_ref.tobytes(), "c/serial voltages diverged"
        assert s_c.tobytes() == s_ref.tobytes(), "c/serial vdd currents"
        _assert_stats_match(batch_c, serial)
        assert batch_c.shard_count == len(set(areas))


def _rc_mesh(seed, nodes, values, buffer):
    """A random connected RC mesh with ``nodes + 1`` unknowns.

    A voltage source feeds node n0; a random tree of resistors reaches
    every other node, a few extra resistors close loops, each node but
    n0 has a capacitor to ground, and one load current source per slot
    of ``buffer`` (bound to it) draws from a random node.  ``seed``
    fixes the topology and capacitances; ``values`` seeds the
    resistances, so meshes of one seed and different ``values`` share a
    topology family but not an LU.
    """
    rng = np.random.default_rng(seed)
    ohms = np.random.default_rng([seed, values])
    ckt = Circuit("mesh")
    ckt.add_voltage_source("vdd", "n0", "0", 1.0)
    for k in range(1, nodes):
        parent = int(rng.integers(0, k))
        ckt.add_resistor(
            f"r{k}", f"n{parent}", f"n{k}", float(ohms.uniform(0.01, 10.0))
        )
        ckt.add_capacitor(
            f"c{k}", f"n{k}", "0", float(rng.uniform(1e-12, 1e-8))
        )
    for j in range(nodes // 4):
        a, b = rng.choice(nodes, size=2, replace=False)
        ckt.add_resistor(
            f"x{j}", f"n{a}", f"n{b}", float(ohms.uniform(0.01, 10.0))
        )
    for slot in range(buffer.size):
        node = int(rng.integers(1, nodes))
        source = ckt.add_current_source(f"i{slot}", f"n{node}", "0", 0.0)
        source.bind_batch(buffer, slot)
    return ckt


class TestRandomMeshes:
    """Random RC meshes up to the kernel's 64 unknowns: the batch equals
    serial lanes byte for byte; 65 unknowns are refused."""

    LOADS = 3

    def _lanes(self, seed, nodes, n_lanes, currents):
        return [
            TransientSolver(
                _rc_mesh(seed, nodes, i % 2, currents[i]), dt=1e-10
            )
            for i in range(n_lanes)
        ]

    @settings(max_examples=12, deadline=None)
    @given(
        nodes=st.integers(2, 63),
        n_lanes=st.integers(1, 11),
        seed=st.integers(0, 2**16),
    )
    @example(nodes=63, n_lanes=11, seed=7)
    @example(nodes=63, n_lanes=1, seed=8)
    @example(nodes=2, n_lanes=3, seed=9)
    def test_mesh_c_vs_serial(self, nodes, n_lanes, seed):
        steps = 6
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.0, 0.5, size=(steps, n_lanes, self.LOADS))
        base = np.zeros((n_lanes, self.LOADS))
        batch = BatchTransientSolver(
            self._lanes(seed, nodes, n_lanes, base),
            shared_current_base=base,
        )
        currents = np.zeros((n_lanes, self.LOADS))
        serial = self._lanes(seed, nodes, n_lanes, currents)
        assert serial[0].structure.size == nodes + 1
        for k in range(steps):
            base[:] = loads[k]
            currents[:] = loads[k]
            got = batch.step_n(SUBSTEPS).copy()
            want = np.array([s.step_n(SUBSTEPS) for s in serial])
            assert got.tobytes() == want.tobytes(), f"step {k}"
        assert batch.shard_count == min(n_lanes, 2)

    def test_65_unknowns_are_refused(self):
        base = np.zeros((2, self.LOADS))
        lanes = self._lanes(11, 64, 2, base)
        assert lanes[0].structure.size == 65
        with pytest.raises(ValueError, match="at most 64 unknowns"):
            BatchTransientSolver(lanes, shared_current_base=base)


class TestNonFiniteLanes:
    """A lane whose state turns NaN or ±inf mid-run matches its serial
    twin bit for bit (NaN signs included), and the lanes sharing its
    chunk are untouched."""

    @pytest.mark.parametrize(
        "poison",
        [
            lambda s: s._react_v.__setitem__(slice(None), np.nan),
            lambda s: s._react_v.__setitem__(3, np.nan),
            lambda s: s._react_v.__setitem__(2, np.inf),
            lambda s: s._react_i.__setitem__(5, -np.inf),
            lambda s: (
                s._react_v.__setitem__(3, np.nan),
                s._react_i.__setitem__(7, np.inf),
            ),
        ],
        ids=["all-nan", "one-nan", "inf", "minus-inf", "nan-and-inf"],
    )
    def test_non_finite_lane_matches_serial(self, poison):
        cycles, poison_at = 6, 2
        rng = np.random.default_rng(23)
        areas = [105.8, 211.6, 105.8, 105.8]
        schedules = [_schedule(rng, cycles) for _ in areas]

        def mutate(k, lanes):
            if k == poison_at:
                poison(lanes[2][1])

        v_b, s_b, _ = _run_batch(schedules, cycles, mutate, areas)
        v_ref, s_ref, _ = _run_serial(schedules, cycles, mutate, areas)
        assert not np.isfinite(v_b[-1, 2]).all()
        assert np.isfinite(v_b[:, [0, 1, 3]]).all()
        assert v_b.tobytes() == v_ref.tobytes()
        assert s_b.tobytes() == s_ref.tobytes()


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
