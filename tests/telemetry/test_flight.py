"""The droop flight recorder: unit behavior + full co-sim coverage.

The acceptance bar for this subsystem is *100% onset coverage*: every
guardband-violation onset a run experiences must land inside some
dump's window, for the serial and the batched co-sim engines alike.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.faults import get_scenario, list_scenarios
from repro.sim.cosim import CosimConfig, CosimLane, run_cosim, run_cosim_batch
from repro.telemetry.flight import (
    ONSET,
    SAFE_ENTER,
    SAFE_EXIT,
    FlightRecorder,
    read_flight_dir,
    render_flight,
)
from tests.oracles.streaming_flight import StreamingFlightRecorder

GUARD = 0.8


def feed(rec, mins, **kw):
    """Observe a synthetic run whose per-cycle min voltage is ``mins``."""
    for v in mins:
        rec.observe(np.array([v, v + 0.05]), **kw)


def dipped(n, dips):
    """A flat 0.9 V trace with 1-cycle dips to 0.7 V at ``dips``."""
    mins = np.full(n, 0.9)
    for d in dips:
        mins[d] = 0.7
    return mins


class TestOnsetDetection:
    def test_single_dip_one_dump(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=8, post_cycles=8)
        feed(rec, dipped(100, [50]))
        rec.finalize()
        assert rec.onsets == 1
        assert len(rec.dumps) == 1
        dump = rec.dumps[0].to_dict()
        assert dump["triggers"] == [
            {"cycle": 50, "kind": ONSET, "min_voltage_v": pytest.approx(0.7)}
        ]
        assert dump["start_cycle"] == 42  # 50 - pre
        assert dump["end_cycle"] == 59  # 50 + post + 1
        assert dump["cycles"] == list(range(42, 59))
        assert len(dump["voltages"]) == 17
        assert dump["min_voltage_v"][50 - 42] == pytest.approx(0.7)

    def test_every_onset_counted_and_covered(self):
        dips = [20, 60, 100, 140, 180]
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        feed(rec, dipped(220, dips))
        rec.finalize()
        assert rec.onsets == len(dips)
        covered = set()
        for dump in rec.dumps:
            d = dump.to_dict()
            covered.update(range(d["start_cycle"], d["end_cycle"]))
        assert all(d in covered for d in dips)

    def test_sustained_violation_is_one_onset(self):
        mins = np.full(100, 0.9)
        mins[40:90] = 0.7  # one long droop
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        feed(rec, mins)
        rec.finalize()
        assert rec.onsets == 1

    def test_onset_on_scan_block_boundary(self):
        # The below/not-below edge must carry across scan blocks.
        scan = 8
        for dip in (scan - 1, scan, scan + 1, 3 * scan):
            rec = FlightRecorder(2, GUARD, pre_cycles=2, post_cycles=2)
            feed(rec, dipped(6 * scan, [dip]))
            rec.finalize()
            assert rec.onsets == 1, f"dip at {dip}"

    def test_run_starting_below_guardband_is_an_onset(self):
        mins = np.full(40, 0.7)
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        feed(rec, mins)
        rec.finalize()
        assert rec.onsets == 1
        assert rec.dumps[0].to_dict()["triggers"][0]["cycle"] == 0


class TestObserveBlock:
    """A block handed to ``observe_runs`` with one run per row leaves a
    recorder exactly as per-cycle ``observe``."""

    @pytest.mark.parametrize("block", [1, 3, 8, 13, 64, 500])
    def test_matches_per_cycle_observe(self, block):
        n = 500
        rng = np.random.default_rng(4)
        volts = 0.9 + 0.01 * rng.standard_normal((n, 3))
        volts[[40, 41, 200, 333, 334, 335], 1] = 0.7
        decisions = [
            SimpleNamespace(
                issue_widths=[2.0, 1.0 + j], fake_rates=[0.0, 0.1 * j],
                dcc_powers_w=[0.0, 0.0],
            )
            for j in range(n // 50)
        ]
        meta = [
            (
                decisions[c // 50],
                ("sensor_bias",) if 100 <= c < 130 else None,
                250 <= c < 300,
            )
            for c in range(n)
        ]
        geometry = dict(num_sms=3, guardband_v=GUARD, pre_cycles=10,
                        post_cycles=6, cycle_offset=-30)
        ref = FlightRecorder(**geometry)
        for c in range(n):
            ref.observe(volts[c], *meta[c])
        rec = FlightRecorder(**geometry)
        for start in range(0, n, block):
            rec.observe_runs(
                volts[start:start + block],
                [(1, row) for row in meta[start:start + block]],
            )
        ref.finalize()
        rec.finalize()
        assert ref.onsets >= 3 and ref.safe_edges == 2
        assert rec.summary() == ref.summary()
        assert [d.to_dict() for d in rec.dumps] == [
            d.to_dict() for d in ref.dumps
        ]


class TestObserveRuns:
    """``observe_runs`` leaves a recorder exactly as per-cycle
    ``observe``, with the metadata handed over as runs."""

    @pytest.mark.parametrize("block", [5, 32, 64, 250])
    def test_matches_per_cycle_observe(self, block):
        n = 600
        rng = np.random.default_rng(9)
        volts = 0.95 + 0.01 * rng.standard_normal((n, 3))
        volts[[100, 101, 400], 2] = 0.7
        volts[520, 0] = np.nan
        decisions = [
            SimpleNamespace(
                issue_widths=[2.0, 1.0 + j], fake_rates=[0.0, 0.1 * j],
                dcc_powers_w=[0.0, 0.0],
            )
            for j in range(4)
        ]
        kinds = ("pdn_drift",)

        def row(c):
            return (
                decisions[min(c // 160, 3)],
                kinds if 300 <= c < 310 else None,
                450 <= c < 470,
            )

        geometry = dict(num_sms=3, guardband_v=GUARD, pre_cycles=10,
                        post_cycles=6, cycle_offset=-40)
        ref = FlightRecorder(**geometry)
        rec = FlightRecorder(**geometry)
        # An odd first block, and a forced dump between blocks.
        edges = sorted({0, 3, 203, n} | set(range(3, n, block)))
        for start, stop in zip(edges, edges[1:]):
            for c in range(start, stop):
                ref.observe(volts[c], *row(c))
            runs = []
            for c in range(start, stop):
                r = row(c)
                if runs and all(a is b for a, b in zip(runs[-1][1], r)):
                    runs[-1][0] += 1
                else:
                    runs.append([1, r])
            rec.observe_runs(volts[start:stop], runs)
            if stop == 203:
                ref.force_dump("numerical_divergence")
                rec.force_dump("numerical_divergence")
        ref.finalize()
        rec.finalize()
        assert ref.onsets >= 2 and ref.safe_edges == 2
        assert rec.summary() == ref.summary()
        assert json.dumps([d.to_dict() for d in rec.dumps]) == json.dumps(
            [d.to_dict() for d in ref.dumps]
        )


class TestInputValidation:
    def test_runs_must_cover_the_block(self):
        rec = FlightRecorder(2, GUARD)
        row = (None, None, False)
        with pytest.raises(ValueError, match="do not cover"):
            rec.observe_runs(np.full((5, 2), 0.9), [(2, row), (2, row)])
        with pytest.raises(ValueError, match="do not cover"):
            rec.observe_runs(np.full((2, 2), 0.9), [(3, row), (-1, row)])
        assert rec.cycles_observed == 0

    def test_block_must_be_cycles_by_sms(self):
        rec = FlightRecorder(2, GUARD)
        row = (None, None, False)
        with pytest.raises(ValueError, match="cycles, 2"):
            rec.observe_runs(np.full((4, 3), 0.9), [(4, row)])
        with pytest.raises(ValueError, match="cycles, 2"):
            rec.observe_runs(np.full(4, 0.9), [(4, row)])

    def test_negative_max_dumps_rejected(self):
        with pytest.raises(ValueError, match="max_dumps"):
            FlightRecorder(2, GUARD, max_dumps=-1)

    def test_empty_window_cap_rejected(self):
        with pytest.raises(ValueError, match="max_window_cycles"):
            FlightRecorder(2, GUARD, max_window_cycles=0)

    def test_scan_interval_is_gone(self):
        with pytest.raises(TypeError):
            FlightRecorder(2, GUARD, scan_interval=8)
        assert FlightRecorder(2, GUARD).max_window_cycles == 384


def _random_stream(rng, num_sms, n):
    """Per-cycle voltages and (decision, fault kinds, safe) rows with
    dips, clustered onsets, NaN rows, safe-state runs and fault runs."""
    volts = 0.85 + 0.02 * rng.standard_normal((n, num_sms))
    for _ in range(rng.integers(0, 8)):
        at = int(rng.integers(0, max(n, 1)))
        volts[at:at + int(rng.integers(1, 6)), rng.integers(num_sms)] = 0.7
    for _ in range(rng.integers(0, 3) if n else 0):
        volts[rng.integers(n), rng.integers(num_sms)] = np.nan
    decisions = [
        SimpleNamespace(
            issue_widths=[2.0 - 0.1 * j] * num_sms,
            fake_rates=[0.05 * j] * num_sms, dcc_powers_w=[0.0] * num_sms,
        )
        for j in range(3)
    ] + [None]
    kinds = [None, ("sensor_bias",), ("pdn_drift", "sensor_bias")]
    rows, row = [], (None, None, False)
    for _ in range(n):
        if rng.random() < 0.08:
            row = (
                decisions[rng.integers(len(decisions))],
                kinds[rng.integers(len(kinds))],
                bool(rng.random() < 0.3),
            )
        rows.append(row)
    return volts, rows


def _as_runs(rows, merge):
    """Runs of rows, merged by identity when ``merge``, with a few
    zero-count runs mixed in."""
    runs = []
    for row in rows:
        if merge and runs and all(a is b for a, b in zip(runs[-1][1], row)):
            runs[-1][0] += 1
        else:
            runs.append([1, row])
        if len(runs) % 5 == 0:
            runs.append([0, (None, None, True)])
    return [(count, row) for count, row in runs]


class TestAgainstStreamingOracle:
    """The post-run analysis equals the streaming recorder it replaced
    (``tests/oracles/streaming_flight.py``, at any scan interval) on
    random streams fed per cycle and as blocks of runs."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_sms=st.integers(1, 4),
        n=st.integers(0, 400),
        pre=st.integers(0, 24),
        post=st.integers(0, 24),
        max_dumps=st.integers(0, 6),
        max_window=st.one_of(st.none(), st.integers(1, 90)),
        warmup=st.integers(-20, 120),
        scan_interval=st.integers(1, 40),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_summary_and_dump_bytes(
        self, seed, num_sms, n, pre, post, max_dumps, max_window, warmup,
        scan_interval,
    ):
        rng = np.random.default_rng(seed)
        volts, rows = _random_stream(rng, num_sms, n)
        geometry = dict(
            num_sms=num_sms, guardband_v=GUARD, pre_cycles=pre,
            post_cycles=post, max_dumps=max_dumps, cycle_offset=-warmup,
        )
        rec = (
            FlightRecorder(**geometry) if max_window is None
            else FlightRecorder(max_window_cycles=max_window, **geometry)
        )
        ref = StreamingFlightRecorder(
            scan_interval=scan_interval,
            max_window_cycles=rec.max_window_cycles, **geometry,
        )
        forced = set(rng.integers(0, n + 1, size=rng.integers(0, 3)).tolist())
        cycle = 0
        while cycle <= n:
            if cycle in forced:
                for recorder in (ref, rec):
                    recorder.force_dump(
                        "numerical_divergence", min_voltage_v=0.5 + cycle,
                    )
            if cycle == n:
                break
            size = int(rng.choice([0, 1, 1, 2, 7, 30, 120]))
            stop = min(n, cycle + max(size, 1))
            if forced:
                stop = min([stop] + [f for f in forced if f > cycle])
            if size == 0 and rng.random() < 0.5:
                # An empty block changes nothing.
                for recorder in (ref, rec):
                    recorder.observe_runs(volts[cycle:cycle], [])
            if rng.random() < 0.4:
                for c in range(cycle, stop):
                    for recorder in (ref, rec):
                        recorder.observe(volts[c], *rows[c])
            else:
                merge = bool(rng.random() < 0.7)
                for recorder in (ref, rec):
                    recorder.observe_runs(
                        volts[cycle:stop], _as_runs(rows[cycle:stop], merge)
                    )
            cycle = stop
        ref.finalize()
        rec.finalize()
        assert rec.summary() == ref.summary()
        assert [json.dumps(d.to_dict()) for d in rec.dumps] == [
            json.dumps(d.to_dict()) for d in ref.dumps
        ]


class TestWindowOwnership:
    def test_block_kept_as_given_then_dumps_own_their_windows(self):
        volts = np.full((40, 2), 0.9)
        volts[20] = 0.7
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        rec.observe_runs(volts[:], [(40, (None, None, False))])
        assert np.shares_memory(rec._blocks[0], volts)  # no copy
        rec.finalize()
        assert rec._blocks is None and rec._runs is None
        with pytest.raises(RuntimeError, match="finalized"):
            rec.observe(np.full(2, 0.9))
        dump = rec.dumps[0].to_dict()
        volts[:] = np.nan
        assert rec.dumps[0].to_dict() == dump
        assert dump["start_cycle"] == 16 and dump["end_cycle"] == 25

    def test_cosim_hands_over_views_of_its_windows(self, monkeypatch):
        handed = []
        observe_runs = FlightRecorder.observe_runs

        def spy(self, volts, runs):
            handed.append(volts)
            return observe_runs(self, volts, runs)

        monkeypatch.setattr(FlightRecorder, "observe_runs", spy)
        config = _fault_config("guardband-breaker", cycles=200, warmup=40)
        result = run_cosim("hotspot", config, flight=FlightRecorder(
            num_sms=16, guardband_v=0.8, cycle_offset=-40,
        ))
        warm, recorded = handed
        assert warm.base is not None and len(warm) == 40
        assert np.shares_memory(recorded, result.sm_voltages)


class TestWarmupOffset:
    def test_warmup_dip_is_context_not_trigger(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4,
                             cycle_offset=-50)
        feed(rec, dipped(120, [20, 80]))  # recorded cycles -30 and +30
        rec.finalize()
        assert rec.onsets == 1
        dump = rec.dumps[0].to_dict()
        assert dump["triggers"][0]["cycle"] == 30  # recorded numbering
        assert 30 in dump["cycles"]

    def test_summary_windows_use_recorded_numbering(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4,
                             cycle_offset=-50)
        feed(rec, dipped(120, [80]))
        rec.finalize()
        window = rec.summary()["windows"][0]
        assert window["start_cycle"] == 80 - 50 - 4


class TestSafeStateEdges:
    def test_enter_and_exit_edges(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        for c in range(120):
            rec.observe(np.array([0.9, 0.95]), safe=40 <= c < 60)
        rec.finalize()
        assert rec.safe_edges == 2
        kinds = [
            t["kind"] for d in rec.dumps for t in d.to_dict()["triggers"]
        ]
        assert kinds.count(SAFE_ENTER) == 1
        assert kinds.count(SAFE_EXIT) == 1
        # The dump captures the flag itself.
        merged = []
        for d in rec.dumps:
            dd = d.to_dict()
            merged.extend(zip(dd["cycles"], dd["safe_state"]))
        assert (40, True) in merged
        assert (39, False) in dict.fromkeys(merged) or (39, False) in merged


class TestCoalescingAndBounds:
    def test_burst_coalesces_into_one_window(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=8, post_cycles=16)
        feed(rec, dipped(200, [100, 104, 108]))
        rec.finalize()
        assert rec.onsets == 3
        assert len(rec.dumps) == 1
        dump = rec.dumps[0].to_dict()
        assert len(dump["triggers"]) == 3
        assert dump["end_cycle"] == 108 + 16 + 1

    def test_window_length_capped(self):
        cap = 40
        rec = FlightRecorder(2, GUARD, pre_cycles=8, post_cycles=16,
                             max_window_cycles=cap)
        feed(rec, dipped(400, list(range(100, 300, 10))))
        rec.finalize()
        for dump in rec.dumps:
            assert dump.num_cycles() <= cap
        # Every onset still falls inside some window (coverage survives
        # the cap because an overflowing trigger opens a fresh window).
        covered = set()
        for dump in rec.dumps:
            d = dump.to_dict()
            covered.update(range(d["start_cycle"], d["end_cycle"]))
        assert all(c in covered for c in range(100, 300, 10))

    def test_max_dumps_suppresses_not_crashes(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=2, post_cycles=2,
                             max_dumps=2)
        feed(rec, dipped(400, list(range(50, 350, 50))))
        rec.finalize()
        assert len(rec.dumps) == 2
        assert rec.dumps_suppressed > 0
        assert rec.summary()["dumps_suppressed"] == rec.dumps_suppressed

    def test_voltages_match_window_length(self):
        rec = FlightRecorder(3, GUARD, pre_cycles=5, post_cycles=3)
        for v in dipped(64, [30]):
            rec.observe(np.array([v, v + 0.05, v + 0.1]))
        rec.finalize()
        dump = rec.dumps[0].to_dict()
        n = dump["end_cycle"] - dump["start_cycle"]
        assert len(dump["voltages"]) == n
        assert len(dump["min_voltage_v"]) == n
        assert len(dump["safe_state"]) == n
        assert len(dump["active_faults"]) == n
        assert len(dump["actuation_id"]) == n
        assert all(len(row) == 3 for row in dump["voltages"])

    def test_truncated_post_window_on_finalize(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=50)
        feed(rec, dipped(60, [55]))
        rec.finalize()
        dump = rec.dumps[0].to_dict()
        assert dump["end_cycle"] == 60  # run ended before post filled


class TestActuationTable:
    def test_shared_decision_deduped_by_identity(self):
        class Decision:
            issue_widths = [4, 4]
            fake_rates = [0.0, 0.0]
            dcc_powers_w = [0.0, 0.0]

        shared = Decision()
        other = Decision()
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        mins = dipped(40, [20])
        for c, v in enumerate(mins):
            rec.observe(
                np.array([v, v + 0.05]),
                decision=shared if c < 22 else other,
            )
        rec.finalize()
        dump = rec.dumps[0].to_dict()
        assert len(dump["actuations"]) == 2
        assert dump["actuation_id"][:2] == [0, 0]  # same object, one id

    def test_no_decision_records_none(self):
        rec = FlightRecorder(2, GUARD, pre_cycles=2, post_cycles=2)
        feed(rec, dipped(20, [10]))
        rec.finalize()
        dump = rec.dumps[0].to_dict()
        assert dump["actuations"] == []
        assert all(a is None for a in dump["actuation_id"])


class TestPersistence:
    def test_write_and_read_roundtrip(self, tmp_path):
        rec = FlightRecorder(2, GUARD, pre_cycles=4, post_cycles=4)
        feed(rec, dipped(100, [30, 70]))
        rec.finalize()
        paths = rec.write(tmp_path / "flight")
        assert [p.name for p in paths] == ["000.json", "001.json"]
        dumps = read_flight_dir(tmp_path)  # run dir or flight dir
        assert dumps == read_flight_dir(tmp_path / "flight")
        assert len(dumps) == 2
        text = render_flight(dumps, GUARD)
        assert "2 dump(s)" in text
        assert "guardband 0.800 V" in text

    def test_read_missing_dir_is_empty(self, tmp_path):
        assert read_flight_dir(tmp_path) == []
        assert "no dumps" in render_flight([])


def _fault_config(scenario, cycles=600, warmup=100):
    # Mirrors the `repro faults` CLI: degradation machinery on.
    return CosimConfig(
        cycles=cycles,
        warmup_cycles=warmup,
        seed=3,
        faults=get_scenario(scenario),
        controller=ControllerConfig(
            watchdog_enabled=True, sensor_fallback_enabled=True
        ),
    )


def _true_onsets(result, guardband):
    """Independently recompute onset cycles from the recorded voltages."""
    mins = np.asarray(result.sm_voltages).min(axis=1)
    below = mins < guardband
    onsets = [0] if below[0] else []
    onsets += [int(c) for c in np.flatnonzero(below[1:] & ~below[:-1]) + 1]
    return onsets


class TestCosimIntegration:
    @pytest.mark.parametrize("scenario", sorted(list_scenarios()))
    def test_full_onset_coverage_all_scenarios(self, scenario):
        config = _fault_config(scenario)
        result = run_cosim("hotspot", config, flight=FlightRecorder(
            num_sms=16, guardband_v=0.8, cycle_offset=-config.warmup_cycles,
        ))
        flight = result.flight
        assert flight is not None
        summary = flight.summary()
        assert summary["cycles_observed"] == config.cycles + config.warmup_cycles

        onsets = _true_onsets(result, 0.8)
        assert summary["onsets"] == len(onsets)
        covered = set()
        for dump in flight.dumps:
            d = dump.to_dict()
            covered.update(range(d["start_cycle"], d["end_cycle"]))
        missed = [c for c in onsets if c not in covered]
        assert not missed, f"{scenario}: onsets not covered: {missed}"

    def test_no_flight_without_telemetry_by_default(self):
        result = run_cosim(
            "hotspot", CosimConfig(cycles=60, warmup_cycles=10)
        )
        assert result.flight is None

    def test_flight_false_suppresses_even_with_telemetry(self):
        from repro.telemetry import Telemetry

        result = run_cosim(
            "hotspot", CosimConfig(cycles=60, warmup_cycles=10),
            telemetry=Telemetry(run_id="t"), flight=False,
        )
        assert result.flight is None

    def test_telemetry_autocreates_and_records_section(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(run_id="t")
        config = _fault_config("guardband-breaker")
        result = run_cosim("hotspot", config, telemetry=tele)
        assert result.flight is not None
        section = tele.sections["flight"]
        assert section["onsets"] == result.flight.onsets
        assert section["dumps"] >= 1

    def test_serial_and_batch_flights_are_identical(self):
        config = _fault_config("guardband-breaker")

        serial = run_cosim("hotspot", config, flight=FlightRecorder(
            num_sms=16, guardband_v=0.8, cycle_offset=-config.warmup_cycles,
        ))
        lanes = [CosimLane(benchmark="hotspot", config=config)]
        flights = [FlightRecorder(
            num_sms=16, guardband_v=0.8, cycle_offset=-config.warmup_cycles,
        )]
        (batch,) = run_cosim_batch(lanes, flights=flights)

        s, b = serial.flight, batch.flight
        assert s.summary() == b.summary()
        assert [d.to_dict() for d in s.dumps] == [
            d.to_dict() for d in b.dumps
        ]
        assert s.onsets > 0  # the scenario actually breaks the guardband

    def test_batch_mixed_flight_lanes(self):
        quiet = CosimConfig(cycles=200, warmup_cycles=40, seed=1)
        loud = _fault_config("guardband-breaker", cycles=200, warmup=40)
        lanes = [
            CosimLane(benchmark="hotspot", config=quiet),
            CosimLane(benchmark="hotspot", config=loud),
        ]
        flights = [
            None,
            FlightRecorder(num_sms=16, guardband_v=0.8, cycle_offset=-40),
        ]
        calm, stormy = run_cosim_batch(lanes, flights=flights)
        assert calm.flight is None
        assert stormy.flight is not None
        assert stormy.flight.cycles_observed == 240

    def test_batch_flights_length_validated(self):
        lanes = [CosimLane(
            benchmark="hotspot",
            config=CosimConfig(cycles=40, warmup_cycles=10),
        )]
        with pytest.raises(ValueError, match="one entry per lane"):
            run_cosim_batch(lanes, flights=[None, None])
