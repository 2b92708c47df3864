"""Bit-identity contract of the controller against its scalar oracle.

``ControllerBank`` is the library's one Algorithm 1.  After
``bank.observe(cycle, seen, observed)`` every lane's observable state
must be byte-equal to the per-SM scalar reference
(``tests/oracles/scalar_controller.ScalarController``) observing
``seen[i]`` where ``observed[i]`` is set — for uniform and mixed
control periods, through quiet stretches (idle lanes re-enqueue the
same decision object), droop storms, NaN sensor dropouts with the
fallback on and off, observation drops that split the lanes' decision
phases, and the watchdog's safe state.  ``VoltageSmoothingController.
observe`` is the bank's one-lane case and meets the same contract.  The
bank's wave runs compiled whenever the native library loaded; the NumPy
wave (under ``forced_fallback``) must match it and the oracle too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import StackConfig
from repro.core.actuators import (
    ActuationCommand,
    CurrentCompensationDAC,
    WeightedActuation,
)
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)
from repro.core.detectors import DETECTOR_OPTIONS
from tests.conftest import forced_fallback
from tests.oracles.scalar_controller import ScalarController

NUM_SMS = StackConfig().num_sms
DT = 1.0 / 700e6


def _make_lane(config, actuation=None, cls=VoltageSmoothingController):
    return cls(
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
    serial = [_make_lane(c, cls=ScalarController) for c in configs]
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


def _run_blocks(configs, seen, observed=None):
    """Drive scalar lanes and a bank over per-lane ``seen`` streams.

    ``seen`` is (lanes, cycles, num_sms); ``observed`` (lanes, cycles)
    bool skips a lane's observe on False cycles.  State is compared
    after every cycle; each lane's history of (active issue widths,
    safe-state flag) is returned alongside the lanes and the bank.
    """
    serial = [_make_lane(c, cls=ScalarController) for c in configs]
    banked = [_make_lane(c) for c in configs]
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
        serial = _make_lane(config, cls=ScalarController)
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


class _GentleActuation(WeightedActuation):
    """Throttles half as hard as the stock law (overrides ``commands``)."""

    def commands(self, error_v, k1, k2, k3):
        stock = super().commands(error_v, k1, k2, k3)
        return ActuationCommand(
            issue_width=(stock.issue_width + self.issue_width_max) / 2,
            fake_rate=stock.fake_rate,
            dcc_code=stock.dcc_code,
        )


class _CoarseDAC(CurrentCompensationDAC):
    """A DAC subclass: the bank could not see an override here either."""


class TestBankValidation:
    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ControllerBank([])

    def test_non_controller_lane_rejected(self):
        with pytest.raises(TypeError, match="VoltageSmoothingController"):
            ControllerBank([object()])

    def test_same_controller_twice_rejected(self):
        lane = _make_lane(ControllerConfig())
        with pytest.raises(ValueError, match="only one lane"):
            ControllerBank([lane, _make_lane(ControllerConfig()), lane])

    def test_subclassed_actuation_rejected(self):
        """The bank's law is the stock actuation's command math, so an
        actuation or DAC subclass (which may override it) is refused
        when the lane is built, not silently run on the stock law."""
        with pytest.raises(TypeError, match="_GentleActuation"):
            _make_lane(ControllerConfig(), _GentleActuation())
        with pytest.raises(TypeError, match="_CoarseDAC"):
            _make_lane(
                ControllerConfig(), WeightedActuation(dac=_CoarseDAC())
            )


class TestLaneOwnership:
    """``VoltageSmoothingController.observe`` is the one-lane bank."""

    def test_observe_builds_and_reuses_a_one_lane_bank(self):
        lane = _make_lane(ControllerConfig())
        lane.observe(0, np.ones(NUM_SMS))
        bank = lane._bank
        assert bank.controllers == [lane]
        lane.observe(1, np.ones(NUM_SMS))
        assert lane._bank is bank

    def test_observe_on_a_multi_lane_bank_lane_raises(self):
        lanes = [_make_lane(ControllerConfig()) for _ in range(2)]
        bank = ControllerBank(lanes)
        bank.observe(0, np.ones((2, NUM_SMS)))
        with pytest.raises(RuntimeError, match="2 lanes"):
            lanes[1].observe(1, np.ones(NUM_SMS))
        # The refused call changed nothing the bank keeps in step.
        assert lanes[1].decisions_made == lanes[0].decisions_made == 1

    def test_a_compacted_one_lane_bank_hands_observe_back(self):
        lanes = [_make_lane(ControllerConfig()) for _ in range(2)]
        ControllerBank(lanes).compact([1])
        lanes[1].observe(0, np.ones(NUM_SMS))
        assert lanes[1].decisions_made == 1


# Random lanes for the equivalence property: any gains and slews (the
# stability gate is off — the property is arithmetic identity, not
# stability), either fallback setting, the watchdog on or off, and
# limit-cycle windows short enough to fill and flag within a stream.
lane_configs = st.builds(
    ControllerConfig,
    v_threshold=st.floats(0.85, 0.99),
    v_high_threshold=st.floats(1.0, 1.2),
    k1=st.floats(0.0, 20.0),
    k2=st.floats(0.0, 20.0),
    k3=st.floats(0.0, 40.0),
    control_period_cycles=st.integers(1, 6),
    latency_cycles=st.integers(1, 30),
    slew_issue=st.floats(0.01, 2.0),
    slew_fake=st.floats(0.01, 2.0),
    slew_dcc_w=st.floats(0.05, 2.0),
    sensor_fallback_enabled=st.booleans(),
    fallback_widen_v=st.floats(0.0, 0.1),
    guardband_v=st.floats(0.6, 0.95),
    detector=st.sampled_from(sorted(DETECTOR_OPTIONS.values(),
                                    key=lambda d: d.name)),
    watchdog_enabled=st.booleans(),
    watchdog_patience=st.integers(1, 4),
    safe_state_release_decisions=st.integers(1, 10),
    limit_cycle_window=st.integers(4, 12),
    limit_cycle_min_flips=st.integers(1, 3),
    allow_unstable=st.just(True),
)
weights = st.tuples(
    st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)


@st.composite
def voltage_streams(draw, cycles=160):
    """Noise plus random droop / overshoot ramps and NaN holes.

    Ramps sweep the filtered measurement through every quantization
    level between nominal and their depth, so trigger, guardband and
    DAC-code boundaries are crossed, not jumped over.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.sampled_from([0.0, 0.004, 0.02]))
    v = 1.0 + sigma * rng.standard_normal((cycles, NUM_SMS))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, cycles - 1))
        length = min(draw(st.integers(1, 80)), cycles - start)
        sms = draw(st.lists(st.integers(0, NUM_SMS - 1), min_size=1,
                            max_size=NUM_SMS, unique=True))
        depth = draw(st.floats(-0.35, 0.3))
        ramp = np.linspace(0.0, depth, length)[:, None]
        v[start:start + length, sms] += ramp
    holes = rng.random(v.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    v[holes] = np.nan
    return v


def _sweep_stream(cycles=160):
    """SMs 8-15 ramp up to 1.3 V over the first half, SMs 0-7 down to
    0.6 V over the whole stream (the guardband falls in the second
    half): every quantization level on the way crosses the thresholds
    (plain and fallback-widened: every fifth cycle drops the even SMs),
    the DAC's code boundaries and the guardband at some decision."""
    v = np.ones((cycles, NUM_SMS))
    v[:, :8] = np.linspace(1.0, 0.6, cycles)[:, None]
    v[:, 8:] = 1.3
    v[:cycles // 2, 8:] = np.linspace(1.0, 1.3, cycles // 2)[:, None]
    v[3::5, ::2] = np.nan
    return v


class TestScalarEquivalenceProperty:
    @given(config=lane_configs, w=weights, stream=voltage_streams())
    @example(
        config=ControllerConfig(
            control_period_cycles=1, latency_cycles=5, k3=10.0,
            slew_dcc_w=2.0, guardband_v=0.8, watchdog_enabled=True,
            watchdog_patience=3, safe_state_release_decisions=5,
            detector=DETECTOR_OPTIONS["adc"], allow_unstable=True,
        ),
        w=(1.0, 0.5, 1.0),
        stream=_sweep_stream(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_observe_matches_the_scalar_oracle(self, config, w, stream):
        """After every observe + commands_for, the one-lane bank behind
        ``VoltageSmoothingController.observe`` leaves the lane byte-equal
        to ``ScalarController``."""
        actuation = WeightedActuation(w1=w[0], w2=w[1], w3=w[2])
        ref = _make_lane(config, actuation, cls=ScalarController)
        lane = _make_lane(config, actuation)
        for cycle, row in enumerate(stream):
            ref.observe(cycle, row)
            lane.observe(cycle, row)
            assert _decision_bytes(ref.commands_for(cycle)) == (
                _decision_bytes(lane.commands_for(cycle))
            ), f"cycle {cycle}: active decision"
            _assert_full_state_equal(ref, lane, f"cycle {cycle}")


@st.composite
def bank_runs(draw, cycles=120):
    """2-5 random lanes, each with its own voltage stream, an observed
    mask that may drop any lane's cycles (a dropped due cycle splits the
    lanes' decision phases), and a per-lane lag on the command read
    (as loop jitter does) that lets the pipelines outgrow their rings."""
    lanes = draw(st.integers(2, 5))
    configs = [draw(lane_configs) for _ in range(lanes)]
    actuations = [
        WeightedActuation(w1=w[0], w2=w[1], w3=w[2])
        for w in (draw(weights) for _ in range(lanes))
    ]
    streams = np.stack(
        [draw(voltage_streams(cycles)) for _ in range(lanes)]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = rng.random((lanes, cycles)) >= draw(
        st.sampled_from([0.0, 0.1, 0.4])
    )
    lags = [draw(st.sampled_from([0, 0, 7, 40])) for _ in range(lanes)]
    return configs, actuations, streams, observed, lags


class TestCompiledWaveProperty:
    @pytest.mark.native
    @given(run=bank_runs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_wave_matches_numpy_wave_and_oracle(self, run):
        """Multi-lane banks: after every cycle the compiled wave's lanes,
        the NumPy wave's lanes and one ``ScalarController`` per lane are
        byte-equal in their full state and their command reads, and the
        two banks agree on every decision id and ring position."""
        configs, actuations, streams, observed, lags = run
        pairs = list(zip(configs, actuations))
        refs = [_make_lane(c, a, cls=ScalarController) for c, a in pairs]
        compiled = ControllerBank([_make_lane(c, a) for c, a in pairs])
        assert compiled._native_wave() is not None
        with forced_fallback():
            numpy_bank = ControllerBank([_make_lane(c, a) for c, a in pairs])
            assert numpy_bank._native_wave() is None
        for cycle in range(streams.shape[1]):
            mask = observed[:, cycle].copy()
            for i, ref in enumerate(refs):
                if mask[i]:
                    ref.observe(cycle, streams[i, cycle])
            compiled.observe(cycle, streams[:, cycle], mask)
            numpy_bank.observe(cycle, streams[:, cycle], mask)
            for i, ref in enumerate(refs):
                tag = f"lane {i} cycle {cycle}"
                read = cycle - lags[i]
                expected = _decision_bytes(ref.commands_for(read))
                for name, bank in (("compiled", compiled),
                                   ("numpy", numpy_bank)):
                    lane = bank.controllers[i]
                    assert _decision_bytes(lane.commands_for(read)) == (
                        expected
                    ), f"{tag} {name}: active decision"
                    _assert_full_state_equal(ref, lane, f"{tag} {name}")
            assert compiled._ints.tobytes() == numpy_bank._ints.tobytes(), (
                f"cycle {cycle}: bank state"
            )
