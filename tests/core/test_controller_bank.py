"""Bit-identity contract of the batched controller front end.

``ControllerBank.observe(cycle, seen, observed)`` must leave every
lane's observable state byte-equal to serial per-lane ``observe`` calls
(skipped where ``observed`` is False) — for uniform and mixed control
periods, through quiet stretches (idle lanes re-enqueue the same
decision object), droop storms, NaN sensor dropouts with the fallback
on and off, observation drops that split the lanes' decision phases,
the watchdog's safe state, and subclassed actuation.
"""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.core.actuators import ActuationCommand, WeightedActuation
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)

NUM_SMS = StackConfig().num_sms
DT = 1.0 / 700e6


def _make_lane(config, actuation=None):
    return VoltageSmoothingController(
        stack=StackConfig(), config=config,
        actuation=actuation or WeightedActuation(), dt_s=DT,
    )


def _voltage_stream(rng, cycles):
    """Mostly-quiet voltages with droop storms, overshoot and NaN holes."""
    v = 1.0 + 0.002 * rng.standard_normal((cycles, NUM_SMS))
    v[120:135] -= 0.15  # droop storm: triggers + slew saturation
    v[200:206] += 0.2  # overshoot: FII/DCC side
    v[260:263] = np.nan  # sensor dropout: fallback path
    return v


def _assert_lane_states_equal(serial, banked, cycle=None):
    tag = f"cycle {cycle}" if cycle is not None else "final"
    assert serial.stats() == banked.stats(), f"{tag}: stats diverged"
    assert np.array_equal(
        serial._filter_state, np.asarray(banked._filter_state)
    ), f"{tag}: filter state diverged"
    sd, bd = serial.active_decision, banked.active_decision
    assert np.array_equal(sd.issue_widths, bd.issue_widths), tag
    assert np.array_equal(sd.fake_rates, bd.fake_rates), tag
    assert np.array_equal(sd.dcc_powers_w, bd.dcc_powers_w), tag


def _run_pair(configs, cycles=400, seed=0):
    rng = np.random.default_rng(seed)
    stream = _voltage_stream(rng, cycles)
    serial = [_make_lane(c) for c in configs]
    banked = [_make_lane(c) for c in configs]
    bank = ControllerBank(banked)
    for cycle in range(cycles):
        for i, c in enumerate(serial):
            c.observe(cycle, stream[cycle, :])
        bank.observe(cycle, np.tile(stream[cycle], (len(configs), 1)))
        for i, (s, b) in enumerate(zip(serial, banked)):
            ds = s.commands_for(cycle)
            db = b.commands_for(cycle)
            assert np.array_equal(ds.issue_widths, db.issue_widths), (
                f"lane {i} cycle {cycle}"
            )
            assert np.array_equal(ds.fake_rates, db.fake_rates)
            assert np.array_equal(ds.dcc_powers_w, db.dcc_powers_w)
    for s, b in zip(serial, banked):
        _assert_lane_states_equal(s, b)


class TestBankEquivalence:
    def test_uniform_cadence_mixed_gains(self):
        _run_pair([
            ControllerConfig(),
            ControllerConfig(k1=0.5, k2=4.0),
            ControllerConfig(k1=2.0, k3=10.0),
        ])

    def test_mixed_periods_take_generic_waves(self):
        _run_pair([
            ControllerConfig(control_period_cycles=4),
            ControllerConfig(control_period_cycles=6),
            ControllerConfig(control_period_cycles=4, k1=0.5),
        ])

    def test_watchdog_lane(self):
        _run_pair([
            ControllerConfig(),
            ControllerConfig(watchdog_enabled=True, watchdog_patience=4),
        ], seed=5)

    def test_single_lane_bank(self):
        _run_pair([ControllerConfig()], cycles=300)


def _decision_bytes(d):
    return (
        d.issue_widths.tobytes(), d.fake_rates.tobytes(),
        d.dcc_powers_w.tobytes(),
    )


def _assert_full_state_equal(serial, banked, tag):
    """Every piece of lane state the bank touches, byte for byte."""
    assert serial.stats() == banked.stats(), f"{tag}: stats"
    for name in ("_filter_state", "_last_good", "_fallback_active"):
        assert (
            np.asarray(getattr(serial, name)).tobytes()
            == np.asarray(getattr(banked, name)).tobytes()
        ), f"{tag}: {name}"
    for name in ("_last_decision_cycle", "_subguard_streak",
                 "_healthy_streak", "_flap_flips", "in_safe_state"):
        assert getattr(serial, name) == getattr(banked, name), (
            f"{tag}: {name}"
        )
    assert list(serial._flap_history) == list(banked._flap_history), tag
    assert _decision_bytes(serial._last_enqueued) == _decision_bytes(
        banked._last_enqueued
    ), f"{tag}: last enqueued"
    assert [(at, _decision_bytes(d)) for at, d in serial._pipeline] == [
        (at, _decision_bytes(d)) for at, d in banked._pipeline
    ], f"{tag}: pipeline"


def _run_blocks(configs, seen, observed=None, actuations=None):
    """Drive serial lanes and a bank over per-lane ``seen`` streams.

    ``seen`` is (lanes, cycles, num_sms); ``observed`` (lanes, cycles)
    bool skips a lane's observe on False cycles.  State is compared
    after every cycle; each lane's history of (active issue widths,
    safe-state flag) is returned alongside the lanes and the bank.
    """
    actuations = actuations or [None] * len(configs)
    serial = [_make_lane(c, a) for c, a in zip(configs, actuations)]
    banked = [_make_lane(c, a) for c, a in zip(configs, actuations)]
    bank = ControllerBank(banked)
    history = [[] for _ in configs]
    for cycle in range(seen.shape[1]):
        mask = None if observed is None else observed[:, cycle].copy()
        for i, c in enumerate(serial):
            if mask is None or mask[i]:
                c.observe(cycle, seen[i, cycle])
        bank.observe(cycle, seen[:, cycle], mask)
        for i, (s, b) in enumerate(zip(serial, banked)):
            ds = s.commands_for(cycle)
            assert _decision_bytes(ds) == _decision_bytes(
                b.commands_for(cycle)
            ), f"lane {i} cycle {cycle}: active decision"
            _assert_full_state_equal(s, b, f"lane {i} cycle {cycle}")
            history[i].append((ds.issue_widths.tobytes(), b.in_safe_state))
    return serial, bank, history


def _faulty_streams(lanes, cycles, seed):
    """Per-lane streams: droops, overshoot, scattered and total dropout."""
    rng = np.random.default_rng(seed)
    v = 1.0 + 0.004 * rng.standard_normal((lanes, cycles, NUM_SMS))
    v[:, 60:90] -= 0.12
    v[:, 150:160] += 0.2
    holes = rng.random((lanes, cycles, NUM_SMS)) < 0.2
    holes[:, :40] = False
    v[holes] = np.nan
    v[0, 200:212] = np.nan  # lane 0 loses every sensor for 3 periods
    return v


class TestFaultedLanes:
    """Injector-shaped inputs: NaN rows and an observed mask."""

    def test_nan_rows_with_fallback_on_and_off(self):
        configs = [
            ControllerConfig(sensor_fallback_enabled=False),
            ControllerConfig(),
            ControllerConfig(sensor_fallback_enabled=False, k1=2.0,
                             v_threshold=0.95),
        ]
        seen = _faulty_streams(len(configs), 320, seed=3)
        serial, _, _ = _run_blocks(configs, seen)
        assert serial[0].nan_samples_seen > 0
        assert serial[0].sensor_fallback_samples == 0
        assert serial[1].sensor_fallback_samples == (
            serial[1].nan_samples_seen
        ) > 0
        assert serial[2].triggers > 0

    def test_observed_mask_splits_decision_phases(self):
        configs = [ControllerConfig(), ControllerConfig(k1=0.5),
                   ControllerConfig(sensor_fallback_enabled=False)]
        cycles = 320
        seen = _faulty_streams(len(configs), cycles, seed=8)
        rng = np.random.default_rng(9)
        observed = rng.random((len(configs), cycles)) > 0.1
        observed[0] = True
        observed[1, 4] = False  # lane 1's first due cycle
        serial, bank, _ = _run_blocks(configs, seen, observed)
        assert bank._uniform_period is None, "the drops never split phases"
        phases = {c._last_decision_cycle % 4 for c in serial}
        assert len(phases) > 1

    def test_watchdog_enters_and_leaves_safe_state(self):
        configs = [
            ControllerConfig(watchdog_enabled=True, watchdog_patience=3,
                             safe_state_release_decisions=10),
            ControllerConfig(),
        ]
        cycles = 300
        rng = np.random.default_rng(4)
        seen = 1.0 + 0.002 * rng.standard_normal(
            (len(configs), cycles, NUM_SMS)
        )
        seen[:, 50:110, 5] = 0.7  # deep droop: below the 0.8 V guardband
        seen[0, 60:70, 9] = np.nan
        serial, _, history = _run_blocks(configs, seen)
        safe = [in_safe for _, in_safe in history[0]]
        assert any(safe) and not safe[-1]
        assert serial[0].watchdog_engagements == 1
        assert serial[0].safe_state_decisions > 0
        assert serial[1].watchdog_engagements == 0

    def test_subclassed_actuation_lane(self):
        configs = [ControllerConfig(), ControllerConfig(),
                   ControllerConfig(sensor_fallback_enabled=False)]
        actuations = [None, _GentleActuation(), _GentleActuation(w3=1.0)]
        seen = _faulty_streams(len(configs), 300, seed=5)
        seen[1] = seen[0]  # stock vs subclass on the same stream
        observed = np.ones((len(configs), 300), dtype=bool)
        observed[2, 100:103] = False
        serial, bank, history = _run_blocks(
            configs, seen, observed, actuations
        )
        assert bank._stock is not None
        assert serial[1].triggers > 0
        # The override really changed the command math.
        assert [w for w, _ in history[1]] != [w for w, _ in history[0]]


class _GentleActuation(WeightedActuation):
    """Throttles half as hard as the stock law (overrides ``commands``)."""

    def commands(self, error_v, k1, k2, k3):
        stock = super().commands(error_v, k1, k2, k3)
        return ActuationCommand(
            issue_width=(stock.issue_width + self.issue_width_max) / 2,
            fake_rate=stock.fake_rate,
            dcc_code=stock.dcc_code,
        )


class TestIdleWaveShortcut:
    """Quiet stretches re-enqueue the previous decision object."""

    def test_idle_waves_reuse_decision_object(self):
        lanes = [_make_lane(ControllerConfig()) for _ in range(2)]
        bank = ControllerBank(lanes)
        quiet = np.full((2, NUM_SMS), 1.0)
        seen = set()
        for cycle in range(120):
            bank.observe(cycle, quiet)
            for lane in lanes:
                seen.add(id(lane.commands_for(cycle)))
        # Steady default command: the active decision is one reused
        # object per lane (plus at most the initial default).
        assert len(seen) <= 4
        for lane in lanes:
            assert lane.decisions_made == 30  # every period still decides

    def test_idle_then_droop_recovers_full_wave(self):
        config = ControllerConfig()
        serial = _make_lane(config)
        banked = _make_lane(config)
        bank = ControllerBank([banked])
        for cycle in range(300):
            v = np.full(NUM_SMS, 1.0)
            if 140 <= cycle < 160:
                v -= 0.2
            serial.observe(cycle, v)
            bank.observe(cycle, v[None, :])
            ds = serial.commands_for(cycle)
            db = banked.commands_for(cycle)
            assert np.array_equal(ds.issue_widths, db.issue_widths), cycle
        _assert_lane_states_equal(serial, banked)


class TestBankValidation:
    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ControllerBank([])

    def test_non_controller_lane_rejected(self):
        with pytest.raises(TypeError, match="VoltageSmoothingController"):
            ControllerBank([object()])
