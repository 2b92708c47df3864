"""Batch lane quarantine: diverged lanes are evicted mid-run, survivors
keep their bit-identity contract.

``run_cosim_batch``'s equivalence suite (tests/sim/test_cosim_batch)
covers healthy runs; these tests drive the *unhealthy* path with
deterministic NaN poisoning via the chaos harness and assert the
quarantine semantics: an evicted lane yields a structured ``diverged``
verdict with its clean waveform prefix, every surviving lane finishes
byte-identical to its serial run (the oracle loop in
``tests/oracles/serial_cosim.py``), and a fully-dead batch degrades to
truncated results instead of a crash.
"""

import json

import numpy as np
import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.events import (
    FaultSchedule,
    LayerShutoff,
    PowerGateTransient,
    ProcessVariation,
    SensorDropout,
)
from repro.sim.cosim import CosimConfig, CosimLane, run_cosim, run_cosim_batch
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder
from tests.oracles.serial_cosim import run_cosim_reference
from tests.sim.test_cosim_batch import _assert_result_bytes_equal

CYCLES = 120
WARMUP = 30


def cfg(seed, **kw):
    return CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed, **kw)


def three_lanes():
    return [
        CosimLane("hotspot", cfg(3)),
        CosimLane("bfs", cfg(5)),
        CosimLane("srad", cfg(7)),
    ]


def poison(at, lane=None):
    """A repeatable (once=False) NaN poisoning of ``lane`` at cycle ``at``.

    once=False keeps serial re-runs of the same plan deterministic:
    the fault is persistent, not claimed away by the first firing.
    """
    return ChaosEvent("cosim_cycle", "nan_poison", at=at, lane=lane, once=False)


class TestEviction:
    def test_poisoned_lane_is_quarantined_survivors_bit_identical(
        self, chaos_plan
    ):
        lanes = three_lanes()
        serial = [run_cosim_reference(ln.benchmark, ln.config) for ln in lanes]
        chaos_plan(ChaosPlan("quarantine", [poison(at=25, lane=1)]))
        batch = run_cosim_batch(lanes)

        assert not batch[0].diverged and not batch[2].diverged
        assert batch[1].diverged
        # Survivors: every recorded field byte-identical to serial.
        for row in (0, 2):
            assert np.array_equal(
                batch[row].sm_voltages, serial[row].sm_voltages
            ), f"lane {row} voltages diverged from serial"
            assert np.array_equal(
                batch[row].power_trace.data, serial[row].power_trace.data
            )
            assert np.array_equal(
                batch[row].supply_current, serial[row].supply_current
            )
            assert batch[row].instructions == serial[row].instructions
            assert batch[row].num_cycles == CYCLES

    def test_dead_lane_keeps_its_clean_prefix(self, chaos_plan):
        lanes = three_lanes()
        serial_mid = run_cosim_reference(lanes[1].benchmark, lanes[1].config)
        chaos_plan(ChaosPlan("prefix", [poison(at=25, lane=1)]))
        batch = run_cosim_batch(lanes)
        dead = batch[1]
        assert dead.num_cycles == 25
        assert np.array_equal(dead.sm_voltages, serial_mid.sm_voltages[:25])
        assert np.array_equal(
            dead.supply_current, serial_mid.supply_current[:25]
        )
        assert np.isfinite(dead.sm_voltages).all()

    def test_divergence_forensics_name_the_original_lane(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("forensics", [poison(at=25, lane=2)]))
        batch = run_cosim_batch(lanes)
        info = batch[2].divergence
        assert info is not None
        assert info["lane"] == 2
        assert info["benchmark"] == "srad"
        assert info["stage"] == "exhausted"
        assert info["cycle"] == 25

    def test_staggered_evictions_leave_a_lone_survivor(self, chaos_plan):
        lanes = three_lanes()
        serial_mid = run_cosim_reference(lanes[1].benchmark, lanes[1].config)
        chaos_plan(ChaosPlan("staggered", [
            poison(at=20, lane=0),
            poison(at=40, lane=2),
        ]))
        batch = run_cosim_batch(lanes)
        assert batch[0].diverged and batch[0].num_cycles == 20
        assert batch[2].diverged and batch[2].num_cycles == 40
        assert not batch[1].diverged
        # The survivor rode through two compactions bit-exactly.
        assert np.array_equal(batch[1].sm_voltages, serial_mid.sm_voltages)
        assert batch[1].instructions == serial_mid.instructions

    def test_all_lanes_dead_is_truncation_not_a_crash(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("wipeout", [poison(at=15, lane=None)]))
        batch = run_cosim_batch(lanes)
        for result in batch:
            assert result.diverged
            assert result.num_cycles == 15
            assert np.isfinite(result.sm_voltages).all()

    def test_warmup_poisoning_yields_an_empty_measured_window(
        self, chaos_plan
    ):
        lanes = [CosimLane("hotspot", cfg(3))]
        # Recorded cycle indices are negative during warmup.
        chaos_plan(ChaosPlan("warmup", [poison(at=-10, lane=0)]))
        batch = run_cosim_batch(lanes)
        assert batch[0].diverged
        assert batch[0].num_cycles == 0
        assert np.isnan(batch[0].min_voltage)

    def test_warmup_eviction_counters_match_serial(self, chaos_plan):
        """A lane evicted during warmup never reaches the warmup
        boundary, so, like its serial run, it reports every instruction
        it executed rather than a post-mortem zero."""
        lanes = three_lanes()
        chaos_plan(ChaosPlan("warmup-lane", [poison(at=-10, lane=1)]))
        batch = run_cosim_batch(lanes)
        chaos_plan(ChaosPlan("warmup-serial", [poison(at=-10)]))
        serial = run_cosim_reference(lanes[1].benchmark, lanes[1].config)
        assert batch[1].diverged and serial.diverged
        assert serial.instructions > 0
        assert batch[1].instructions == serial.instructions
        assert batch[1].fake_instructions == serial.fake_instructions
        assert batch[1].throttled_cycles == serial.throttled_cycles
        # The survivors crossed the boundary normally.
        assert batch[0].num_cycles == CYCLES


class TestFaultedLaneQuarantine:
    def test_dead_lane_fault_report_matches_its_oracle(self, chaos_plan):
        """A lane carrying process variation, sensor dropout, a layer
        shutoff and a power-gating window is poisoned mid-run.  Its
        fault report equals the oracle run under the same poison,
        untargeted: dropped samples and halted SM-cycles count through
        its last completed cycle, though the batch only calls the halt
        hook on edge cycles."""
        faults = FaultSchedule(name="quarantined-faults", seed=21, events=(
            ProcessVariation(sigma=0.05),
            SensorDropout(probability=0.3, start_cycle=-10),
            LayerShutoff(layer=3, start_cycle=20),
            PowerGateTransient(sms=(0, 1), start_cycle=-10, end_cycle=40),
        ))
        lanes = three_lanes()
        lanes[1] = CosimLane("bfs", cfg(5, faults=faults))
        survivors = [
            run_cosim_reference(lanes[i].benchmark, lanes[i].config)
            for i in (0, 2)
        ]
        chaos_plan(ChaosPlan("faulted-lane", [poison(at=60, lane=1)]))
        batch = run_cosim_batch(lanes)
        chaos_plan(ChaosPlan("faulted-serial", [poison(at=60)]))
        oracle = run_cosim_reference(lanes[1].benchmark, lanes[1].config)

        for row, expected in zip((0, 2), survivors):
            _assert_result_bytes_equal(batch[row], expected, f"lane {row}")
        dead = batch[1]
        assert dead.diverged and oracle.diverged and dead.num_cycles == 60
        assert dead.sm_voltages.tobytes() == oracle.sm_voltages.tobytes()
        assert dead.fault_report == oracle.fault_report
        counters = dead.fault_report["counters"]
        # Four shut-off SMs over cycles 20..59, two gated SMs over -10..39.
        assert counters["halted_sm_cycles"] == 4 * 40 + 2 * 50
        assert counters["sensor_samples_dropped"] > 0


def _recorder():
    return FlightRecorder(
        num_sms=16, guardband_v=0.8, pre_cycles=8, post_cycles=8,
        scan_interval=4, cycle_offset=-WARMUP,
    )


def _windows(recorder):
    """Flight dumps minus the actuation table (the banked controller
    shares decision objects the serial one builds as equal copies), as
    JSON so a divergence trigger's NaN voltage compares equal."""
    views = []
    for dump in recorder.dumps:
        d = dump.to_dict()
        d.pop("actuations")
        d.pop("actuation_id")
        views.append(d)
    return json.dumps(views)


class TestFlightRecording:
    def test_recorders_ride_through_evictions(self, chaos_plan):
        """One lane evicted in warmup, one mid-run: every lane's flight
        recording equals its serial run's, including the divergence
        dump of the evicted ones."""
        lanes = three_lanes()
        serial = [None] * 3
        serial[1] = run_cosim_reference(
            lanes[1].benchmark, lanes[1].config, flight=_recorder()
        )
        for row, at in ((0, -10), (2, 25)):
            chaos_plan(ChaosPlan(f"serial-{row}", [poison(at=at)]))
            serial[row] = run_cosim_reference(
                lanes[row].benchmark, lanes[row].config, flight=_recorder()
            )
        chaos_plan(ChaosPlan("flights", [
            poison(at=-10, lane=0), poison(at=25, lane=2),
        ]))
        batch = run_cosim_batch(
            lanes, flights=[_recorder() for _ in lanes]
        )
        assert batch[0].diverged and batch[2].diverged
        assert not batch[1].diverged
        for row in range(3):
            got, want = batch[row].flight, serial[row].flight
            assert got.summary() == want.summary(), f"lane {row}"
            assert _windows(got) == _windows(want), f"lane {row}"
        assert batch[0].flight.cycles_observed == WARMUP - 10
        assert batch[2].flight.cycles_observed == WARMUP + 25


class TestTelemetry:
    def test_quarantine_counters_and_events(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("tele", [poison(at=25, lane=1)]))
        tele = Telemetry(run_id="quarantine-test")
        run_cosim_batch(lanes, telemetry=tele)
        assert tele.counters.get("lanes_quarantined") == 1
        assert tele.counters.get("guard_divergences", 0) >= 1
        kinds = [e["kind"] for e in tele.events]
        assert "lane_quarantined" in kinds

    def test_serial_divergence_is_a_structured_verdict(self, chaos_plan):
        chaos_plan(ChaosPlan("serial", [poison(at=25)]))
        result = run_cosim("hotspot", cfg(3))
        assert result.diverged
        assert result.num_cycles == 25
        assert result.divergence["stage"] == "exhausted"
        # A single run's verdict names no lane, and nothing reports a
        # quarantine.
        assert "lane" not in result.divergence
        assert np.isfinite(result.sm_voltages).all()

    def test_single_run_ignores_lane_targeted_poison(self, chaos_plan):
        """run_cosim honours only untargeted poisoning, even though it
        runs the batched loop as lane 0."""
        clean = run_cosim("hotspot", cfg(3))
        chaos_plan(ChaosPlan("targeted", [poison(at=25, lane=0)]))
        result = run_cosim("hotspot", cfg(3))
        assert not result.diverged
        assert np.array_equal(result.sm_voltages, clean.sm_voltages)

    def test_single_run_telemetry_reports_divergence_not_quarantine(
        self, chaos_plan
    ):
        chaos_plan(ChaosPlan("serial-tele", [poison(at=25)]))
        tele = Telemetry(run_id="serial-divergence")
        run_cosim("hotspot", cfg(3), telemetry=tele)
        kinds = [e["kind"] for e in tele.events]
        assert "numerical_divergence" in kinds
        assert "lane_quarantined" not in kinds
        assert "lanes_quarantined" not in tele.counters
