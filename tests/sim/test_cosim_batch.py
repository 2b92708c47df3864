"""Equivalence contract of the batched co-sim engine, plus the co-sim
accounting regressions that rode along with it.

``run_cosim_batch`` steps B independent scenarios lock-stepped; the
serial loop kept in ``tests/oracles/serial_cosim.py`` is its
bit-identity oracle — a B-lane batch must reproduce B independent
serial runs *byte for byte*, for every field of
every :class:`CosimResult`, under mixed benchmarks, seeds, controller
gains, disabled controllers and canned fault scenarios, and against the
oracle on the per-object GPU reference too.  These tests drive both paths side by side (randomized via
hypothesis and through canned scenarios) and pin the three accounting
bugfixes: decision-array ownership at the control boundary, completed
kernel-interval counting, and applied-vs-commanded DCC ledgering.

The lane-independence property closes the loop: for any lane mix, lane
i of a batch equals the same lane run alone (``run_cosim``, the loop at
B=1) and the oracle, byte for byte.  A call wider than ``LANE_GROUP``
runs as several lane groups; the same holds across their boundaries.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import pde_loss_ledger
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    ControllerConfig,
    VoltageSmoothingController,
)
from repro.core.prior_art import GlobalThrottleController
from repro.faults.events import ActuatorStuck, FaultSchedule
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim import cosim
from repro.sim.cosim import (
    LANE_GROUP,
    CosimConfig,
    CosimLane,
    LayerShutoffEvent,
    last_batch_solver_info,
    run_cosim,
    run_cosim_batch,
)
from repro.telemetry.flight import FlightRecorder
from repro.workloads.benchmarks import BENCHMARK_NAMES
from tests.oracles.serial_cosim import run_cosim_reference

CYCLES = 260
WARMUP = 40


def _assert_result_equal(batch, serial, label=""):
    """Byte-equality of every CosimResult field."""
    assert np.array_equal(
        batch.power_trace.data, serial.power_trace.data
    ), f"{label}: power trace diverged"
    assert np.array_equal(
        batch.sm_voltages, serial.sm_voltages
    ), f"{label}: sm_voltages diverged"
    assert np.array_equal(
        batch.supply_current, serial.supply_current
    ), f"{label}: supply_current diverged"
    assert batch.benchmark == serial.benchmark
    assert batch.stack == serial.stack
    assert batch.instructions == serial.instructions, label
    assert batch.fake_instructions == serial.fake_instructions, label
    assert batch.throttled_cycles == serial.throttled_cycles, label
    assert batch.controller_power_w == serial.controller_power_w, label
    assert batch.kernels_completed == serial.kernels_completed, label
    assert batch.mean_dcc_power_w == serial.mean_dcc_power_w, label
    assert np.array_equal(
        batch.kernel_durations, serial.kernel_durations
    ), f"{label}: kernel_durations diverged"
    assert batch.fault_report == serial.fault_report, label


def _check_batch(lanes, per_object_gpu=False):
    batch = run_cosim_batch(lanes)
    assert len(batch) == len(lanes)
    for i, (lane, result) in enumerate(zip(lanes, batch)):
        serial = run_cosim_reference(lane.benchmark, config=lane.config,
                                     per_object_gpu=per_object_gpu)
        _assert_result_equal(result, serial, label=f"lane {i} ({lane.benchmark})")


# Three paper benchmarks with distinct power/kernel shapes.
BENCHMARKS = ("hotspot", "backprop", "bfs")


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            run_cosim_batch([])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cycles", CYCLES + 16),
            ("warmup_cycles", WARMUP + 8),
            ("circuit_substeps", 2),
            ("cr_ivr_area_mm2", 211.6),
        ],
    )
    def test_topology_family_mismatch_rejected(self, field, value):
        base = dict(cycles=CYCLES, warmup_cycles=WARMUP, circuit_substeps=1)
        odd = dict(base)
        odd[field] = value
        lanes = [
            CosimLane(benchmark="hotspot", config=CosimConfig(**base)),
            CosimLane(benchmark="hotspot", config=CosimConfig(**odd)),
        ]
        with pytest.raises(ValueError, match=field):
            run_cosim_batch(lanes)

    @pytest.mark.parametrize("make", [
        lambda: GlobalThrottleController(v_threshold=0.95),
        lambda: VoltageSmoothingController(
            config=ControllerConfig(v_threshold=0.99, k1=2)
        ),
    ], ids=["throttle", "stock"])
    def test_shared_controller_object_rejected(self, make):
        """``dataclasses.replace(config, seed=s)`` hands every lane the
        same controller object; two lanes stepping one object would
        corrupt each other's state and counters."""
        shared = CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP,
                             controller_object=make())
        lanes = [
            CosimLane(benchmark="hotspot", config=replace(shared, seed=s))
            for s in (3, 4, 5)
        ]
        lanes[1] = CosimLane(benchmark="hotspot", config=replace(
            shared, seed=4, controller_object=make()
        ))
        with pytest.raises(ValueError, match="lanes 0 and 2 share"):
            run_cosim_batch(lanes)

    def test_other_controller_objects_rejected(self, monkeypatch):
        """The controller bank runs two laws: any other object is refused
        before any lane runs, by run_cosim_batch and run_cosim alike."""
        def no_loop(*args, **kwargs):
            raise AssertionError("a lane group ran")

        monkeypatch.setattr(cosim, "_simulate", no_loop)
        config = CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP,
                             controller_object=object())
        accepted = "VoltageSmoothingController or a GlobalThrottleController"
        with pytest.raises(TypeError, match=f"lane 1: .*{accepted}"):
            run_cosim_batch([CosimLane(config=replace(config,
                                                      controller_object=None)),
                             CosimLane(config=config)])
        with pytest.raises(TypeError, match=accepted):
            run_cosim("hotspot", config)

    @pytest.mark.parametrize("step", [
        lambda c: c.observe(0, np.ones(16)),
        lambda c: c.commands_for(0),
    ], ids=["observed", "read"])
    def test_stepped_controller_object_rejected(self, step):
        """A controller that has already stepped carries another run's
        pipeline and counters: the batch refuses it, naming its lane."""
        ctrl = VoltageSmoothingController(
            config=ControllerConfig(v_threshold=0.99, k1=2)
        )
        step(ctrl)
        config = CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP)
        lanes = [CosimLane(config=config),
                 CosimLane(config=replace(config, controller_object=ctrl))]
        with pytest.raises(ValueError, match="lane 1: .*already stepped"):
            run_cosim_batch(lanes)
        # So does a controller that ran a co-sim before.
        fresh = GlobalThrottleController()
        run_cosim("hotspot", replace(config, controller_object=fresh))
        with pytest.raises(ValueError, match="lane 0: .*already stepped"):
            run_cosim("hotspot", replace(config, controller_object=fresh))


class TestRandomizedBatchEquivalence:
    """Randomized B, benchmarks, seeds and gains — byte-equality per lane."""

    @settings(max_examples=6, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**20), min_size=1, max_size=4),
        bench_picks=st.lists(st.integers(0, len(BENCHMARKS) - 1),
                             min_size=4, max_size=4),
        k1=st.sampled_from([0.5, 1.0, 2.0]),
        k2=st.sampled_from([2.0, 4.0]),
        drop_controller=st.booleans(),
    )
    def test_mixed_lanes(self, seeds, bench_picks, k1, k2, drop_controller):
        lanes = []
        for i, seed in enumerate(seeds):
            kwargs = dict(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed)
            if i == 1:
                kwargs["controller"] = ControllerConfig(k1=k1, k2=k2)
            if i == 2 and drop_controller:
                kwargs["use_controller"] = False
            lanes.append(
                CosimLane(
                    benchmark=BENCHMARKS[bench_picks[i]],
                    config=CosimConfig(**kwargs),
                )
            )
        _check_batch(lanes)

    def test_per_object_gpu_lane(self):
        """Batch lanes on the C engine equal the oracle running the
        per-object GPU reference."""
        _check_batch([
            CosimLane("hotspot", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=3)),
            CosimLane("srad", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=4)),
        ], per_object_gpu=True)

    def test_single_lane_batch(self):
        _check_batch([
            CosimLane("pathfinder", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=11)),
        ])


class TestCannedFaultBatch:
    @pytest.mark.parametrize("scenario", sorted(CANNED_SCENARIOS))
    def test_fault_lane_batches_bit_identically(self, scenario):
        cyc, wu = 700, 80
        _check_batch([
            CosimLane("hotspot", CosimConfig(cycles=cyc, warmup_cycles=wu)),
            CosimLane("hotspot", CosimConfig(
                cycles=cyc, warmup_cycles=wu,
                faults=CANNED_SCENARIOS[scenario]())),
            CosimLane("bfs", CosimConfig(
                cycles=cyc, warmup_cycles=wu, use_controller=False)),
        ])


# ---------------------------------------------------------------------------
# Lane independence: B=k equals k runs at B=1 (and the oracle)
# ---------------------------------------------------------------------------
PROP_CYCLES = 520
PROP_WARMUP = 60
LANE_KINDS = (
    "plain", *sorted(CANNED_SCENARIOS), "actuator-stuck", "shutoff",
    "watchdog", "no-fallback", "global-throttle",
)


def _lane_config(kind, seed, active):
    """A fresh config for one lane recipe (controller objects are
    stateful, so every run gets its own)."""
    controller = (
        ControllerConfig(v_threshold=0.97, k1=15.0) if active
        else ControllerConfig()
    )
    kwargs = dict(
        cycles=PROP_CYCLES, warmup_cycles=PROP_WARMUP, seed=seed,
        controller=controller,
        actuation=WeightedActuation(w1=1.0, w2=1.0, w3=1.0 if active else 0.0),
    )
    if kind in CANNED_SCENARIOS:
        kwargs["faults"] = CANNED_SCENARIOS[kind]()
    elif kind == "actuator-stuck":
        kwargs["faults"] = FaultSchedule(name="stuck", seed=seed, events=(
            ActuatorStuck(start_cycle=40, actuator="diws", sms=(1, 5)),
            ActuatorStuck(start_cycle=120, end_cycle=320, actuator="dcc",
                          sms=(2, 6), value=0.5),
        ))
    elif kind == "shutoff":
        kwargs["shutoff"] = LayerShutoffEvent(layer=3, start_cycle=150)
    elif kind == "watchdog":
        kwargs["controller"] = ControllerConfig(
            v_threshold=controller.v_threshold, k1=controller.k1,
            watchdog_enabled=True, watchdog_patience=2,
            safe_state_release_decisions=20,
        )
        kwargs["faults"] = CANNED_SCENARIOS["guardband-breaker"]()
    elif kind == "no-fallback":
        kwargs["controller"] = ControllerConfig(
            v_threshold=controller.v_threshold, k1=controller.k1,
            sensor_fallback_enabled=False,
        )
        kwargs["faults"] = CANNED_SCENARIOS["sensor-storm"]()
    elif kind == "global-throttle":
        kwargs["controller_object"] = GlobalThrottleController(
            v_threshold=controller.v_threshold
        )
    return CosimConfig(**kwargs)


def _assert_result_bytes_equal(a, b, label):
    """Byte-equality of every CosimResult field plus the fault report."""
    for name in ("sm_voltages", "supply_current", "kernel_durations"):
        assert np.ascontiguousarray(getattr(a, name)).tobytes() == (
            np.ascontiguousarray(getattr(b, name)).tobytes()
        ), f"{label}: {name}"
    assert a.power_trace.data.tobytes() == b.power_trace.data.tobytes(), (
        f"{label}: power trace"
    )
    for name in ("benchmark", "stack", "instructions", "fake_instructions",
                 "throttled_cycles", "controller_power_w",
                 "kernels_completed", "mean_dcc_power_w", "fault_report",
                 "divergence"):
        assert getattr(a, name) == getattr(b, name), f"{label}: {name}"


class TestLaneIndependence:
    """ROADMAP item 5's invariant over the fault and controller mix."""

    @settings(max_examples=10, deadline=None)
    @example(lanes=[  # every kind in one batch, half of them acting
        (kind, 100 + i, i % 2 == 0, BENCHMARKS[i % len(BENCHMARKS)])
        for i, kind in enumerate(LANE_KINDS)
    ])
    @given(lanes=st.lists(
        st.tuples(
            st.sampled_from(LANE_KINDS),
            st.integers(0, 2**16),
            st.booleans(),
            st.sampled_from(BENCHMARKS),
        ),
        min_size=1, max_size=4,
    ))
    def test_batch_lane_equals_solo_run(self, lanes):
        def build():
            return [
                CosimLane(bench, _lane_config(kind, seed, active))
                for kind, seed, active, bench in lanes
            ]

        batch = run_cosim_batch(build())
        for i, lane in enumerate(build()):
            label = f"lane {i} {lanes[i][0]}"
            solo = run_cosim(lane.benchmark, lane.config)
            _assert_result_bytes_equal(batch[i], solo, f"{label} vs solo")
            oracle = run_cosim_reference(
                lane.benchmark, config=build()[i].config
            )
            _assert_result_bytes_equal(batch[i], oracle, f"{label} vs oracle")


# ---------------------------------------------------------------------------
# Lane groups: a wide call runs as groups of at most LANE_GROUP lanes
# ---------------------------------------------------------------------------
GROUP_CYCLES = 300
GROUP_WARMUP = 50
GROUP_LANES = 19  # three groups: lanes 0-5, 6-11 and 12-18


def _group_lanes():
    """Nineteen fresh lanes spreading every lane kind over the groups:
    twelve benchmarks and nineteen seeds, an acting controller with DCC
    on every third lane, one canned fault schedule in each group (the
    fourth in the first), a layer shutoff in the second and a
    global throttle in the third."""
    active = ControllerConfig(v_threshold=0.97, k1=15.0)
    dcc = WeightedActuation(w1=1.0, w2=1.0, w3=1.0)
    faults = dict(zip((2, 5, 9, 15), sorted(CANNED_SCENARIOS)))
    lanes = []
    for i in range(GROUP_LANES):
        kwargs = dict(cycles=GROUP_CYCLES, warmup_cycles=GROUP_WARMUP,
                      seed=500 + 7 * i)
        if i % 3 == 0:
            kwargs.update(controller=active, actuation=dcc)
        if i in faults:
            kwargs["faults"] = CANNED_SCENARIOS[faults[i]]()
        if i == 11:
            kwargs["shutoff"] = LayerShutoffEvent(layer=3, start_cycle=100)
        if i == 16:
            kwargs["controller_object"] = GlobalThrottleController(
                v_threshold=0.97
            )
        lanes.append(CosimLane(
            BENCHMARK_NAMES[i % len(BENCHMARK_NAMES)], CosimConfig(**kwargs)
        ))
    return lanes


def _group_recorder():
    # A guardband at the top of the droop band, so every lane dumps.
    return FlightRecorder(
        num_sms=16, guardband_v=0.99, pre_cycles=8, post_cycles=8,
        max_window_cycles=48, cycle_offset=-GROUP_WARMUP,
    )


def _flight_json(recorder):
    return json.dumps(
        [recorder.summary()] + [dump.to_dict() for dump in recorder.dumps]
    )


class TestLaneGroups:
    def test_group_bounds(self):
        """Consecutive groups of near-equal size, none wider than
        LANE_GROUP; a call of at most LANE_GROUP lanes is one group."""
        assert LANE_GROUP == 8
        for count, sizes in ((1, [1]), (8, [8]), (9, [4, 5]),
                             (19, [6, 6, 7]), (128, [8] * 16)):
            bounds = cosim._lane_groups(count)
            assert [stop - start for start, stop in bounds] == sizes
            assert bounds[0][0] == 0 and bounds[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_each_group_is_one_loop_run(self, monkeypatch):
        widths = []
        simulate = cosim._simulate

        def spy(lanes, *args, **kwargs):
            widths.append((kwargs.get("first_lane", 0), len(lanes)))
            return simulate(lanes, *args, **kwargs)

        monkeypatch.setattr(cosim, "_simulate", spy)
        config = CosimConfig(cycles=40, warmup_cycles=10)
        run_cosim_batch([CosimLane("hotspot", config)] * LANE_GROUP)
        assert widths == [(0, LANE_GROUP)]
        widths.clear()
        run_cosim_batch([CosimLane("hotspot", config)] * 9)
        assert widths == [(0, 4), (4, 5)]

    def test_every_lane_equals_its_solo_batch(self):
        """Each of 19 lanes in three groups equals the same lane run
        alone through run_cosim_batch, byte for byte, its fault report
        and flight recording included."""
        flights = [_group_recorder() for _ in range(GROUP_LANES)]
        batch = run_cosim_batch(_group_lanes(), flights=flights)
        info = last_batch_solver_info()
        assert info["lanes"] == GROUP_LANES
        assert info["fused_cycles"] == GROUP_CYCLES + GROUP_WARMUP
        assert len(batch) == GROUP_LANES
        # The call's shards are its groups' shards, summed.
        shards = 0
        for start, stop in cosim._lane_groups(GROUP_LANES):
            run_cosim_batch(_group_lanes()[start:stop])
            shards += last_batch_solver_info()["shards"]
        assert info["shards"] == shards
        for i, lane in enumerate(_group_lanes()):
            (solo,) = run_cosim_batch([lane], flights=[_group_recorder()])
            label = f"lane {i} ({lane.benchmark})"
            _assert_result_bytes_equal(batch[i], solo, label)
            assert batch[i].flight is flights[i]
            assert batch[i].flight.dumps, label
            assert _flight_json(batch[i].flight) == _flight_json(
                solo.flight
            ), label
        kinds = {
            i for i, lane in enumerate(_group_lanes())
            if lane.config.faults is not None
        }
        assert kinds == {2, 5, 9, 15}
        for i in kinds:
            assert batch[i].fault_report is not None

    def test_wrong_length_flights_rejected_before_any_lane_runs(
        self, monkeypatch
    ):
        def no_loop(*args, **kwargs):
            raise AssertionError("a lane group ran")

        monkeypatch.setattr(cosim, "_simulate", no_loop)
        flights = [_group_recorder() for _ in range(GROUP_LANES - 1)]
        with pytest.raises(ValueError, match=r"one entry per lane \(19\)"):
            run_cosim_batch(_group_lanes(), flights=flights)


# ---------------------------------------------------------------------------
# Accounting regressions (serial path)
# ---------------------------------------------------------------------------
class TestDecisionOwnershipRegression:
    """The control boundary never writes into the controller's decisions.

    ``run_cosim`` zeroes halted SMs' issue widths, distorts commands
    under actuator faults and holds the DCC command across cycles; all
    of it must act on the loop's own rows.  Before the fix the DCC
    vector was aliased (``dcc_powers = dcc``), so the loop's writes
    corrupted the enqueued decision the controller still owned.
    """

    def test_loop_never_mutates_controller_arrays(self, monkeypatch):
        """A stock lane under a layer shutoff and a DIWS actuator jammed
        at 0 on SM 1, with a recorder reading its decisions at every
        apply: each decision keeps the arrays it was built with, the
        last one still commands the halted and jammed SMs, and the GPU
        ran them idle all the same."""
        from repro.core.controller import BankLane

        built = []
        decision = BankLane._decision

        def keep(self, ident):
            fresh = ident not in self._decisions
            made = decision(self, ident)
            if fresh:
                built.append((made, made.issue_widths.copy(),
                              made.fake_rates.copy(),
                              made.dcc_powers_w.copy()))
            return made

        monkeypatch.setattr(BankLane, "_decision", keep)
        # DIWS and DCC, without FII: fakes would light the halted layer.
        ctrl = VoltageSmoothingController(
            config=ControllerConfig(v_threshold=1.0, k1=15.0),
            actuation=WeightedActuation(w1=1.0, w2=0.0, w3=1.0),
        )
        config = CosimConfig(
            cycles=CYCLES, warmup_cycles=WARMUP, controller_object=ctrl,
            shutoff=LayerShutoffEvent(layer=3, start_cycle=0),
            faults=FaultSchedule(name="jam", events=(
                ActuatorStuck(actuator="diws", sms=(1,), value=0.0),
            )),
        )
        result = run_cosim("hotspot", config, flight=FlightRecorder(
            num_sms=16, guardband_v=0.8, cycle_offset=-WARMUP,
        ))
        assert ctrl.stats()["actuations_applied"] > 2
        assert len(built) > 2
        for made, widths, fakes, dcc in built:
            assert np.array_equal(made.issue_widths, widths)
            assert np.array_equal(made.fake_rates, fakes)
            assert np.array_equal(made.dcc_powers_w, dcc)
        assert (ctrl.active_decision.issue_widths[[1, 12, 13, 14, 15]]
                > 0).all()
        powers = result.power_trace.data
        live = powers[:, [0, 2, 3]].mean()
        assert powers[:, 12:16].mean() < 0.5 * live
        assert powers[:, 1].mean() < 0.5 * live
        twin = VoltageSmoothingController(config=ctrl.config,
                                          actuation=ctrl.actuation)
        _assert_result_equal(result, run_cosim_reference(
            "hotspot", replace(config, controller_object=twin),
        ), "jammed, halted lane vs oracle")


class TestKernelAccountingRegression:
    """``kernels_completed`` counts completed kernel *intervals* in the
    recorded window — exactly ``len(kernel_durations)``, never the raw
    launch count (which over-counts the still-running kernel by one)."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_completed_matches_durations(self, bench):
        result = run_cosim(bench, CosimConfig(
            cycles=900, warmup_cycles=100, seed=5))
        assert result.kernels_completed == len(result.kernel_durations)
        if result.kernels_completed:
            assert result.cycles_per_kernel() == pytest.approx(
                float(np.mean(result.kernel_durations))
            )

    def test_single_launch_window_counts_zero_completions(self):
        # A window too short for a second launch: one kernel is running
        # but none *completed*, so the mean-duration guard must trip.
        result = run_cosim("heartwall", CosimConfig(
            cycles=40, warmup_cycles=20, seed=2))
        assert result.kernels_completed == len(result.kernel_durations)
        if result.kernels_completed == 0:
            with pytest.raises(ValueError):
                result.cycles_per_kernel()


class TestAppliedDccLedgerRegression:
    """``mean_dcc_power_w`` ledgers the power the PDN *saw* each cycle,
    not the command enqueued for the next cycle.  A command issued on
    the final cycle is never applied and must not enter the mean."""

    def test_final_cycle_command_never_ledgered(self):
        """A stock lane cut on a cycle that issues a new DCC command:
        the mean ledgers the DCC each recorded cycle ran under, which the
        telemetry's dcc_power_w channel lists, and not that command."""
        from repro.telemetry import Telemetry

        def run(cycles):
            tele = Telemetry(run_id="dcc-ledger")
            result = run_cosim("heartwall", CosimConfig(
                cycles=cycles, warmup_cycles=30, seed=7,
                cr_ivr_area_mm2=52.9,
                controller=ControllerConfig(
                    v_threshold=0.98, v_high_threshold=1.0, k1=15.0
                ),
                actuation=WeightedActuation(w1=1.0, w2=1.0, w3=1.0),
            ), telemetry=tele)
            return result, tele.channels["dcc_power_w"].values

        _, applied = run(400)
        # A cycle whose end applies a new DCC command: the next cycle
        # runs under another power.
        last = next(
            k for k in range(31, len(applied) - 1)
            if applied[k + 1] != applied[k]
        )
        result, ledgered = run(last + 1)
        assert ledgered == applied[:last + 1]
        total = 0.0
        for watts in ledgered:
            total += watts
        assert result.mean_dcc_power_w == total / (last + 1)

    def test_pde_ledger_closes_with_dcc_active(self):
        result = run_cosim("heartwall", CosimConfig(
            cycles=900, warmup_cycles=100, seed=7))
        ledger = pde_loss_ledger(result)
        assert ledger.closes(0.01), (
            f"PDE ledger open by {ledger.closure_rel_error:.3%}"
        )


class TestSweepBatchEquality:
    """`SweepRunner(batch_size=B)` metrics equal the per-point sweep."""

    def test_batched_sweep_matches_serial(self):
        from repro.sim.sweep import run_sweep

        base = CosimConfig(cycles=300, warmup_cycles=50)
        kwargs = dict(
            benchmarks=["hotspot", "bfs"],
            axes={"cr_ivr_area_mm2": [52.9, 105.8]},
            base_config=base,
            base_seed=3,
            max_workers=1,
        )
        serial = run_sweep(**kwargs)
        batched = run_sweep(batch_size=4, **kwargs)
        assert batched.num_failed == 0
        for a, b in zip(serial.points, batched.points):
            assert a.point.index == b.point.index
            assert a.metrics == b.metrics

    def test_batches_group_by_topology_family(self):
        from repro.sim.sweep import SweepRunner, expand_grid

        base = CosimConfig(cycles=300, warmup_cycles=50)
        points = expand_grid(
            ["hotspot", "bfs"], {"cr_ivr_area_mm2": [52.9, 105.8]},
            base_seed=3,
        )
        runner = SweepRunner(points, base, batch_size=4)
        groups = runner._group_batches(points)
        # Four points, two areas: one batch per area, grid order kept.
        assert sorted(tuple(p.index for p in g) for g in groups) == [
            (0, 2), (1, 3),
        ]
        for group in groups:
            areas = {dict(p.overrides)["cr_ivr_area_mm2"] for p in group}
            assert len(areas) == 1
