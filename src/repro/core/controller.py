"""Algorithm 1: the boundary-triggered voltage smoothing controller.

Every cycle each SM's layer voltage ``V_sm(i,j) = V(i,j) - V(i-1,j)``
passes through its detector's RC filter and quantizer (one array
advance for all SMs).  Every control period the controller reads the
measurements and — only when an SM droops below ``v_threshold`` —
computes proportional actuation:

* the drooping SM's issue width is cut by ``k1 * w1 * (V_nom - V_sm)``;
* fake instructions at rate ``k2 * w2 * (V_nom - V_sm)`` are injected
  into the SM *above* it in the stack (raising the neighbour layer's
  current restores the series balance from the other side);
* a DCC code worth ``k3 * w3 * (V_nom - V_sm)`` watts is applied near
  the layer above.

Commands take effect after the loop latency (detector + compute +
actuate + wire delay), modeled by a delay queue.  When the SM recovers
above the threshold its commands relax back to defaults.

:class:`ControllerBank` is the one implementation of the filter
advance and the decision arithmetic: it owns every lane's state as
``(B, ...)`` arrays, and its RC filter and decision wave run in C (the
native library's ``bank_filter`` and ``bank_wave``, whose code the
co-sim's cycle kernel shares).
A :class:`VoltageSmoothingController` is a view of its bank row, and
its ``observe`` steps its one-lane bank.  The per-SM scalar path the
bank replaced is the test oracle ``tests/oracles/scalar_controller.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import native
from repro.config import StackConfig
from repro.core.actuators import CurrentCompensationDAC, WeightedActuation
from repro.core.detectors import DETECTOR_OPTIONS, DetectorSpec, VoltageDetector
from repro.core.overheads import control_latency_cycles


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the Algorithm 1 controller."""

    # Gains follow the sampled-stability analysis: the per-volt power
    # response k_i * P_instr must stay below the 2C/T limit (~12 W/V at
    # the 60-cycle loop), or the loop limit-cycles.
    v_threshold: float = 0.9  # droop trigger voltage (Section VI-C default)
    # Symmetric boost trigger: a layer voltage above this marks an
    # underdrawing layer and engages FII/DCC on it directly.  Sits a bit
    # beyond the droop threshold's mirror so ordinary workload variance
    # does not burn fake-instruction power.
    v_high_threshold: float = 1.15
    v_nominal: float = 1.0
    k1: float = 1.0  # DIWS proportional factor (issue slots per volt)
    k2: float = 8.0  # FII proportional factor (fakes/cycle per volt)
    k3: float = 20.0  # DCC proportional factor (watts per volt)
    control_period_cycles: int = 4  # decision rate of the controller
    # Maximum per-decision command change (slew limiting): abrupt
    # full-swing actuation steps would ring the PDN's package resonance
    # harder than the noise being fixed, and the slew bound also caps
    # the overshoot accumulated during the loop latency
    # (ramp <= slew * latency / period), which is what keeps the high
    # FII gain stable.  Each actuator slews in its *own* natural units —
    # issue slots, fakes/cycle, and watts respectively; a single shared
    # number cannot serve all three (0.02 slots is a meaningful DIWS
    # step, but 0.02 W per decision pins the k3 = 20 W/V DCC DAC to a
    # ramp hundreds of decisions long, disabling it in practice).
    # ``slew_per_decision`` is the legacy shared knob: it still seeds
    # ``slew_issue`` and ``slew_fake`` when they are not given, so
    # existing DIWS/FII configurations behave identically.
    slew_per_decision: float = 0.02
    slew_issue: Optional[float] = None  # issue slots per decision
    slew_fake: Optional[float] = None  # fakes/cycle per decision
    slew_dcc_w: float = 0.25  # watts per decision (5 DAC LSBs)
    latency_cycles: Optional[int] = None  # None -> budget from overheads
    detector: DetectorSpec = field(
        default_factory=lambda: DETECTOR_OPTIONS["oddd"]
    )
    # Escape hatch for the sampled-stability validation below: research
    # configurations that deliberately cross the 2C/T bound (e.g. to
    # reproduce a limit cycle) must opt in explicitly.
    allow_unstable: bool = False
    # --- graceful degradation -----------------------------------------
    # The emergency guardband: ``watchdog_patience`` consecutive
    # decisions measuring the worst SM below ``guardband_v`` escalate to
    # a safe state (issue width clamped to ``safe_issue_width`` on every
    # SM, FII off, DCC clamped off) until
    # ``safe_state_release_decisions`` consecutive healthy decisions
    # release it.  Off by default: escalation deliberately trades
    # throughput for survival, so fault-scenario runs opt in.
    guardband_v: float = 0.8
    watchdog_enabled: bool = False
    watchdog_patience: int = 8
    # Max DIWS throttle: issue width 0 stops real issue everywhere, so
    # every SM draws (near-uniform) idle power and the series stack
    # re-balances by construction, whatever caused the imbalance.
    safe_issue_width: float = 0.0
    safe_state_release_decisions: int = 200
    # Sensor-loss fallback: a NaN sample (dropout) holds the last good
    # measurement and widens that SM's trigger thresholds by
    # ``fallback_widen_v`` — protective actions engage earlier on stale
    # data, power-adding ones later.  NaN itself NEVER reaches the RC
    # filter or produces actuation, fallback enabled or not.
    sensor_fallback_enabled: bool = True
    fallback_widen_v: float = 0.05
    # Limit-cycle detection (stats only): the throttle-engagement flag
    # flipping >= ``limit_cycle_min_flips`` times within the last
    # ``limit_cycle_window`` decisions marks a sustained oscillation.
    limit_cycle_window: int = 32
    limit_cycle_min_flips: int = 12

    def __post_init__(self) -> None:
        if not 0.0 < self.v_threshold <= self.v_nominal:
            raise ValueError("need 0 < v_threshold <= v_nominal")
        if self.v_high_threshold < self.v_nominal:
            raise ValueError("v_high_threshold must be >= v_nominal")
        if self.control_period_cycles <= 0:
            raise ValueError("control period must be positive")
        # A decision applies no earlier than the cycle after it is made
        # (the 2C/T bound below also divides by this latency).
        if self.latency_cycles is not None and self.latency_cycles < 1:
            raise ValueError(
                f"latency_cycles must be at least 1, got {self.latency_cycles}"
            )
        if min(self.k1, self.k2, self.k3) < 0:
            raise ValueError("proportional factors must be non-negative")
        if self.slew_per_decision <= 0:
            raise ValueError("slew limit must be positive")
        # Seed the per-actuator limits from the legacy shared knob.
        if self.slew_issue is None:
            object.__setattr__(self, "slew_issue", self.slew_per_decision)
        if self.slew_fake is None:
            object.__setattr__(self, "slew_fake", self.slew_per_decision)
        if min(self.slew_issue, self.slew_fake, self.slew_dcc_w) <= 0:
            raise ValueError("per-actuator slew limits must be positive")
        if not 0.0 < self.guardband_v < self.v_nominal:
            raise ValueError("need 0 < guardband_v < v_nominal")
        if self.watchdog_patience <= 0:
            raise ValueError("watchdog_patience must be positive")
        if not 0.0 <= self.safe_issue_width <= 2.0:
            raise ValueError("safe_issue_width must be within 0..2 slots")
        if self.safe_state_release_decisions <= 0:
            raise ValueError("safe_state_release_decisions must be positive")
        if self.fallback_widen_v < 0:
            raise ValueError("fallback_widen_v cannot be negative")
        if self.limit_cycle_window < 4:
            raise ValueError("limit_cycle_window must be at least 4")
        if not 0 < self.limit_cycle_min_flips < self.limit_cycle_window:
            raise ValueError(
                "limit_cycle_min_flips must be within the window"
            )
        if not self.allow_unstable:
            limit = self.stability_limit_w_per_v()
            gains = self.effective_power_gains_w_per_v()
            offenders = {
                name: gains[name]
                for name in ("diws", "fii")
                if gains[name] > limit * (1.0 + 1e-9)
            }
            if offenders:
                detail = ", ".join(
                    f"{name}={gain:.2f} W/V" for name, gain in offenders.items()
                )
                raise ValueError(
                    f"unstable controller gains ({detail}) exceed the "
                    f"sampled-stability limit 2C/T = {limit:.2f} W/V at the "
                    f"{self.total_latency_cycles}-cycle loop — such a loop "
                    "limit-cycles (gain beyond 2C/T overshoots the "
                    "boundary capacitance every period); reduce k1/k2, "
                    "tighten the slew limits, shorten the latency, or pass "
                    "allow_unstable=True to study the oscillation"
                )

    @property
    def total_latency_cycles(self) -> int:
        if self.latency_cycles is not None:
            return self.latency_cycles
        return control_latency_cycles(self.detector)

    # ------------------------------------------------------------------
    # Sampled-stability bound (the "~12 W/V" note on the gains above)
    # ------------------------------------------------------------------
    def stability_limit_w_per_v(
        self,
        cycle_time_s: Optional[float] = None,
        boundary_capacitance_f: Optional[float] = None,
    ) -> float:
        """The 2C/T gain bound of the sampled (ZOH) control loop.

        A proportional power-per-volt gain above ``2C/T`` moves more
        charge per loop latency ``T`` than the boundary capacitance
        ``C`` holds, so every correction overshoots and the loop
        limit-cycles.  ``C`` defaults to the decap hanging on one layer
        boundary of the default stack (above + below: 2 x columns x
        per-SM decap = 512 nF), ``T`` to this config's loop latency at
        the default 700 MHz clock — about 12 W/V for the 60-cycle loop.
        """
        if cycle_time_s is None:
            from repro.config import GPUConfig

            cycle_time_s = GPUConfig().cycle_time_s
        if boundary_capacitance_f is None:
            from repro.pdn.parameters import DEFAULT_PDN

            boundary_capacitance_f = (
                2 * StackConfig().num_columns * DEFAULT_PDN.sm_decap
            )
        latency_s = self.total_latency_cycles * cycle_time_s
        return 2.0 * boundary_capacitance_f / latency_s

    def effective_power_gains_w_per_v(self) -> Dict[str, float]:
        """Slew-aware closed-loop power gains, per actuator (W/V).

        The raw proportional gain is ``k_i * P_instr`` (DIWS/FII issue
        or inject instructions worth ``P_instr`` watts each; DCC's
        ``k3`` is already in W/V).  The per-decision slew limit caps how
        much actuation can actually build up within one loop latency —
        ``slew x (latency / period)`` command units — so over the
        guardband excursion (``v_nominal - guardband_v``) the realized
        gain is the *smaller* of the raw gain and that ramp bound.
        Only DIWS and FII gate construction: they always engage when
        triggered, while DCC's contribution scales with the actuation
        weight ``w3`` (zero in the reliability default) which this
        config does not know.
        """
        p_instr = WeightedActuation().instruction_power_w
        decisions = self.total_latency_cycles / self.control_period_cycles
        depth = self.v_nominal - self.guardband_v

        def slew_cap(slew: float, unit_power_w: float) -> float:
            if depth <= 0:
                return float("inf")
            return slew * decisions * unit_power_w / depth

        return {
            "diws": min(self.k1 * p_instr, slew_cap(self.slew_issue, p_instr)),
            "fii": min(self.k2 * p_instr, slew_cap(self.slew_fake, p_instr)),
            "dcc": min(self.k3, slew_cap(self.slew_dcc_w, 1.0)),
        }


@dataclass
class ControlDecision:
    """Per-GPU actuation computed by one controller invocation."""

    issue_widths: np.ndarray  # per SM
    fake_rates: np.ndarray  # per SM
    dcc_powers_w: np.ndarray  # per SM (watts of compensation current)
    triggered_sms: List[int] = field(default_factory=list)


# Columns of ControllerBank._ints: each lane's decision state, counters
# and pipeline-ring bookkeeping.  The C wave (repro/sim/_cyclec.c)
# indexes the same columns, as it does _iparams, _params and _scal.
(_I_LAST, _I_DECISIONS, _I_TRIGGERS, _I_THROTTLE, _I_BOOST, _I_THROTTLED,
 _I_COUNTED, _I_ACT_DIWS, _I_ACT_FII, _I_ACT_DCC, _I_SAT_ISSUE,
 _I_SAT_FAKE, _I_SAT_DCC, _I_WD_ENGAGE, _I_SAFE_DEC, _I_SAFE,
 _I_SUBGUARD, _I_HEALTHY, _I_FB_SAMPLES, _I_NAN_SAMPLES, _I_LC_EVENTS,
 _I_LC_FLAGGED, _I_FLIPS, _I_FLAP_HEAD, _I_FLAP_LEN, _I_ACTIVE,
 _I_LAST_ID, _I_RING_HEAD, _I_RING_LEN, _I_ACTIVE_THR,
 _I_AT_DEFAULT, _I_APPLIED, _NI) = range(33)
# Columns of ControllerBank._iparams (per-lane integer config).
(_Q_PERIOD, _Q_LATENCY, _Q_WATCHDOG, _Q_PATIENCE, _Q_RELEASE, _Q_WINDOW,
 _Q_MIN_FLIPS) = range(7)
# Columns of ControllerBank._params (per-lane float config).
(_P_THR, _P_THR_HIGH, _P_WIDEN, _P_IWMAX, _P_V_NOM, _P_K1W1, _P_K2W2,
 _P_K3W3, _P_UNIT, _P_MAX_CODE, _P_GUARD, _P_SAFE_W) = range(12)
# Slots of ControllerBank._scal (bank-wide due and pop bookkeeping).
_S_NEXT_DUE, _S_UNIFORM, _S_NEXT_POP, _S_MIN_LATENCY = range(4)
#: Status of a wave that found a due lane's ring or store full.
_WAVE_GROW = 2


def _lane_int(col: int, doc: str) -> property:
    return property(
        lambda self: int(self._bank._ints[self._row, col]), doc=doc
    )


def _lane_flag(col: int, doc: str) -> property:
    return property(
        lambda self: bool(self._bank._ints[self._row, col]), doc=doc
    )


class VoltageSmoothingController:
    """One Algorithm 1 lane: its config, and a view of its bank row.

    Every piece of the lane's mutable state — RC filters, decision
    counters, watchdog and limit-cycle state, the latency pipeline —
    lives in one row of its :class:`ControllerBank`'s arrays.  A lane
    gets its own one-lane bank when it is built; joining a multi-lane
    bank (or being compacted) moves the row there.  The attributes below
    read that row: counters as Python ``int`` / ``bool``, decisions as
    :class:`ControlDecision` objects built once per (lane, decision id)
    and kept while the id is live, so an unchanged command is the same
    object.  Only the stock :class:`WeightedActuation` /
    :class:`CurrentCompensationDAC` law is vectorized there, so other
    actuation classes are rejected.
    """

    def __init__(
        self,
        stack: StackConfig = StackConfig(),
        config: ControllerConfig = ControllerConfig(),
        actuation: Optional[WeightedActuation] = None,
        dt_s: float = 1.0 / 700e6,
    ) -> None:
        self.stack = stack
        self.config = config
        self.actuation = actuation or WeightedActuation()
        if (
            type(self.actuation) is not WeightedActuation
            or type(self.actuation.dac) is not CurrentCompensationDAC
        ):
            raise TypeError(
                "the controller runs the stock WeightedActuation / "
                "CurrentCompensationDAC law, got "
                f"{type(self.actuation).__name__} / "
                f"{type(self.actuation.dac).__name__}"
            )
        self.dt_s = dt_s
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        # Sensor front end: the detector's RC filter (stepped as
        # RCLowPassFilter.step does), quantized at its resolution.
        filt = VoltageDetector(config.detector).filter
        tau = filt.r_ohm * filt.c_farad
        self._filter_alpha = dt_s / (tau + dt_s)
        self._resolution_v = config.detector.resolution_v
        self._default_issue_width = float(self.actuation.issue_width_max)
        # Decision objects of the lane's live ids (see _decision).
        self._decisions: Dict[int, ControlDecision] = {}
        self._bank: Optional[ControllerBank] = None
        self._row = 0
        ControllerBank([self])

    # -- the lane's bank row ----------------------------------------------
    decisions_made = _lane_int(_I_DECISIONS, "Decisions made.")
    triggers = _lane_int(_I_TRIGGERS, "Decisions that triggered an SM.")
    throttle_decisions = _lane_int(_I_THROTTLE, "Decisions cutting issue.")
    boost_decisions = _lane_int(_I_BOOST, "Decisions engaging FII or DCC.")
    # Simulated cycles under a throttling command; commands_for may be
    # called more than once for the same cycle without double counting.
    throttled_cycles = _lane_int(_I_THROTTLED, "Throttled simulated cycles.")
    _counted_through_cycle = _lane_int(_I_COUNTED, "Last counted cycle.")
    _last_decision_cycle = _lane_int(_I_LAST, "Cycle of the last decision.")
    watchdog_engagements = _lane_int(_I_WD_ENGAGE, "Safe-state entries.")
    safe_state_decisions = _lane_int(_I_SAFE_DEC, "Decisions in safe state.")
    in_safe_state = _lane_flag(_I_SAFE, "Whether the watchdog holds the lane.")
    _subguard_streak = _lane_int(_I_SUBGUARD, "Sub-guardband decision streak.")
    _healthy_streak = _lane_int(_I_HEALTHY, "Healthy decision streak.")
    sensor_fallback_samples = _lane_int(_I_FB_SAMPLES, "Held samples.")
    nan_samples_seen = _lane_int(_I_NAN_SAMPLES, "Dropped samples.")
    limit_cycle_events = _lane_int(_I_LC_EVENTS, "Limit cycles flagged.")
    _limit_cycle_flagged = _lane_flag(_I_LC_FLAGGED, "In a limit cycle.")
    _flap_flips = _lane_int(_I_FLIPS, "Throttle-flag flips in the window.")
    _active_throttling = _lane_flag(_I_ACTIVE_THR, "Active command throttles.")

    @property
    def actuator_decisions(self) -> Dict[str, int]:
        """Decisions in which each actuator was engaged."""
        row = self._bank._ints[self._row]
        return {"diws": int(row[_I_ACT_DIWS]), "fii": int(row[_I_ACT_FII]),
                "dcc": int(row[_I_ACT_DCC])}

    @property
    def slew_saturations(self) -> Dict[str, int]:
        """Decisions in which each actuator's slew clamp saturated."""
        row = self._bank._ints[self._row]
        return {"issue": int(row[_I_SAT_ISSUE]), "fake": int(row[_I_SAT_FAKE]),
                "dcc": int(row[_I_SAT_DCC])}

    @property
    def _filter_state(self) -> np.ndarray:
        return self._bank._state[self._row]

    @property
    def _last_good(self) -> np.ndarray:
        return self._bank._last_good[self._row]

    @property
    def _fallback_active(self) -> np.ndarray:
        return self._bank._fallback[self._row]

    @property
    def _flap_history(self) -> List[bool]:
        """The throttle flags of the limit-cycle window, oldest first."""
        row = self._bank._ints[self._row]
        width = self.config.limit_cycle_window
        flags = self._bank._flap[self._row]
        head = int(row[_I_FLAP_HEAD])
        return [bool(flags[(head + k) % width])
                for k in range(int(row[_I_FLAP_LEN]))]

    @property
    def active_decision(self) -> ControlDecision:
        return self._decision(int(self._bank._ints[self._row, _I_ACTIVE]))

    @property
    def _last_enqueued(self) -> ControlDecision:
        return self._decision(int(self._bank._ints[self._row, _I_LAST_ID]))

    @property
    def _pipeline(self) -> List[Tuple[int, ControlDecision]]:
        """(apply_at_cycle, decision) entries modelling the loop latency."""
        at, ids = self._bank._ring(self._row)[:2]
        return [(int(a), self._decision(int(i)))
                for a, i in zip(at.tolist(), ids.tolist())]

    def _decision(self, ident: int) -> ControlDecision:
        """The object of live decision ``ident``, built on first use.

        It owns copies of its store rows: the slot is reused once the id
        retires, while consumers (flight recorders) may keep it longer.
        """
        cache = self._decisions
        decision = cache.get(ident)
        if decision is None:
            bank, row = self._bank, self._row
            active = bank._ints[row, _I_ACTIVE]
            for old in [k for k in cache if k < active]:
                del cache[old]
            slot = ident % (bank._cap + 1)
            cat = bank._store[row, slot].copy()
            n = bank.num_sms
            decision = cache[ident] = ControlDecision(
                issue_widths=cat[:n], fake_rates=cat[n:2 * n],
                dcc_powers_w=cat[2 * n:],
                triggered_sms=np.flatnonzero(
                    bank._store_trig[row, slot]
                ).tolist(),
            )
        return decision

    # ------------------------------------------------------------------
    def observe(self, cycle: int, sm_voltages: np.ndarray) -> None:
        """Feed this cycle's true SM voltages through the detectors.

        Runs the per-SM RC filters every cycle; makes a control decision
        every ``control_period_cycles`` and enqueues it to apply after
        the loop latency.

        A non-finite sample means "no reading this cycle" (sensor
        dropout): it never enters the RC filter (NaN would poison the
        filter state permanently) and never produces actuation.  With
        the sensor fallback enabled the SM's last good measurement is
        held instead, with widened trigger thresholds; otherwise the SM
        simply cannot trigger until a real sample returns.

        This is the one-lane case of :class:`ControllerBank`: it steps
        the lane's own bank.  A lane of a multi-lane bank is stepped
        through that bank only.
        """
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        if sm_voltages.shape != (self.stack.num_sms,):
            raise ValueError(
                f"expected {self.stack.num_sms} SM voltages, got "
                f"{sm_voltages.shape}"
            )
        bank = self._bank
        if len(bank.controllers) != 1:
            raise RuntimeError(
                "this controller is one of the "
                f"{len(bank.controllers)} lanes of a ControllerBank; step "
                "it through ControllerBank.observe"
            )
        bank.observe(cycle, sm_voltages[None, :])

    def commands_for(self, cycle: int) -> ControlDecision:
        """The actuation in force at ``cycle`` (after loop latency)."""
        bank, row = self._bank, self._row
        state = bank._ints[row]
        if state[_I_RING_LEN] and (
            bank._ring_at[row, state[_I_RING_HEAD]] <= cycle
        ):
            bank._pop_lane(row, cycle)
        # Count each simulated cycle at most once, so callers that read
        # the same cycle's commands twice do not double-count.
        if cycle > state[_I_COUNTED]:
            state[_I_COUNTED] = cycle
            if state[_I_ACTIVE_THR]:
                state[_I_THROTTLED] += 1
        ident = int(state[_I_ACTIVE])
        return self._decisions.get(ident) or self._decision(ident)

    # ------------------------------------------------------------------
    @property
    def throttle_fraction(self) -> float:
        """Fraction of decisions that cut issue width (for Fig. 12).

        Only work-removing decisions count; overvoltage boosts (FII/DCC
        injections, which *add* work) are reported separately as
        :attr:`boost_fraction`.
        """
        if self.decisions_made == 0:
            return 0.0
        return self.throttle_decisions / self.decisions_made

    @property
    def boost_fraction(self) -> float:
        """Fraction of decisions engaging power-adding actuation."""
        if self.decisions_made == 0:
            return 0.0
        return self.boost_decisions / self.decisions_made

    def stats(self) -> Dict[str, object]:
        """Controller statistics snapshot for telemetry manifests."""
        row = self._bank._ints[self._row].tolist()
        return {
            "decisions_made": row[_I_DECISIONS],
            "triggers": row[_I_TRIGGERS],
            "throttle_decisions": row[_I_THROTTLE],
            "boost_decisions": row[_I_BOOST],
            "throttled_cycles": row[_I_THROTTLED],
            "actuator_decisions": self.actuator_decisions,
            "slew_saturations": self.slew_saturations,
            "watchdog_engagements": row[_I_WD_ENGAGE],
            "safe_state_decisions": row[_I_SAFE_DEC],
            "in_safe_state": bool(row[_I_SAFE]),
            "sensor_fallback_samples": row[_I_FB_SAMPLES],
            "nan_samples_seen": row[_I_NAN_SAMPLES],
            "limit_cycle_events": row[_I_LC_EVENTS],
            "actuations_applied": row[_I_APPLIED],
        }

    def note_applied(self) -> None:
        """Count a new decision applied to the actuators (the co-sim's
        cycle kernel counts the ones it applies itself)."""
        self._bank._ints[self._row, _I_APPLIED] += 1


# ControllerBank arrays the C wave reads, in BankState's field order.
_C_ARRAYS = (
    "_ints", "_iparams", "_params", "_cat_default", "_slew_cat",
    "_fallback", "_flap", "_ring_at", "_ring_id", "_store", "_store_trig",
    "_store_thr", "_scal", "_due", "_state", "_last_good", "_alpha",
    "_step_v", "_fb_on",
)


class _CBank(ctypes.Structure):
    """Mirror of ``BankState`` in ``repro/sim/_cyclec.c`` (field order
    matters): the bank's sizes, then its arrays."""

    _fields_ = [
        (name, ctypes.c_longlong)
        for name in ("n_lanes", "num_sms", "cap", "flap_width")
    ] + [(name, ctypes.c_void_p) for name in _C_ARRAYS]


class ControllerBank:
    """Algorithm 1 over B lock-stepped, independent lanes.

    The one implementation of the per-cycle RC filter advance and the
    per-decision wave, over struct-of-arrays state: each lane's filter,
    counters, watchdog and limit-cycle state and latency pipeline are
    one row of ``(B, ...)`` arrays (the ``_I_*`` columns of ``_ints``;
    :class:`VoltageSmoothingController` is a view of its row).  The
    pipeline is a per-lane ring of ``(apply cycle, decision id)``
    entries beside a store of each live id's ``3 * num_sms`` command row,
    triggered-SM mask and throttle flag.  A lane's live ids — active,
    queued, last enqueued — span at most the ring depth plus one, so the
    store is indexed by ``id % (cap + 1)``; a wave that would overrun
    either grows both (``_grow``) first.

    The filter advance and the wave run compiled (``bank_filter`` and
    ``bank_wave`` in ``repro/sim/_cyclec.c``; the co-sim's cycle kernel
    runs the same filter row helper and calls the same wave).  Per lane
    the filter is the reference's ``_advance_filters``: only fresh
    (finite, observed) samples enter the RC filter, and a dropped
    sample holds its last good measurement (fallback on) or reads NaN.
    The wave is the reference's ``_make_decision``: watchdog,
    Algorithm 1 (or the safe state), slew limiting, statistics and
    enqueueing; an *idle* lane —
    nothing triggered, not in the safe state, and its last command
    exactly the default — re-enqueues its last id instead of storing a
    value-identical command under a new one.  Every operation is
    elementwise per lane (or a row-wise reduction), so each row is
    bit-identical to the per-SM scalar reference
    (``tests/oracles/scalar_controller.py``) and B=1 is the serial case:
    observable state after ``bank.observe(cycle, seen, observed)`` is
    byte-equal to that reference observing ``seen[i]`` for every lane
    ``i`` with ``observed[i]`` set, and nothing for the others.

    Lanes may differ in gains, thresholds, detectors, periods, sensor
    fallback and actuation weights — only ``num_sms`` must match.  The
    bank owns its lanes' ``observe`` duty: ``lane.observe`` raises while
    a multi-lane bank owns the lane.
    """

    def __init__(self, controllers: List[VoltageSmoothingController]) -> None:
        self.controllers = list(controllers)
        if not self.controllers:
            raise ValueError("need at least one controller lane")
        for c in self.controllers:
            if not isinstance(c, VoltageSmoothingController):
                raise TypeError(
                    "ControllerBank requires VoltageSmoothingController "
                    f"lanes, got {type(c).__name__}"
                )
        if len({id(c) for c in self.controllers}) != len(self.controllers):
            raise ValueError("a controller can be only one lane of a bank")
        sizes = {c.stack.num_sms for c in self.controllers}
        if len(sizes) != 1:
            raise ValueError(f"lanes must share num_sms, got {sorted(sizes)}")
        self.num_sms = n = sizes.pop()
        ctrls = self.controllers
        n_lanes = len(ctrls)

        def col(values) -> np.ndarray:
            return np.asarray(values, dtype=float).reshape(-1, 1)

        self._alpha = col([c._filter_alpha for c in ctrls])
        self._step_v = col([c._resolution_v for c in ctrls])
        self._fb_on = np.array(
            [c.config.sensor_fallback_enabled for c in ctrls]
        ).reshape(-1, 1)
        # Per-lane wave parameters, one column each (the _P_* / _Q_*
        # indices), read by the C wave's per-SM proportional law.
        self._params = np.column_stack([
            [c.config.v_threshold for c in ctrls],
            [c.config.v_high_threshold for c in ctrls],
            [c.config.fallback_widen_v for c in ctrls],
            [c._default_issue_width for c in ctrls],
            [c.config.v_nominal for c in ctrls],
            [c.config.k1 * c.actuation.w1 for c in ctrls],
            [c.config.k2 * c.actuation.w2 for c in ctrls],
            [c.config.k3 * c.actuation.w3 for c in ctrls],
            [c.actuation.dac.unit_power_w for c in ctrls],
            [c.actuation.dac.max_code for c in ctrls],
            [c.config.guardband_v for c in ctrls],
            [c.config.safe_issue_width for c in ctrls],
        ]).astype(float)
        self._iparams = np.array([
            (c.config.control_period_cycles, c.config.total_latency_cycles,
             c.config.watchdog_enabled, c.config.watchdog_patience,
             c.config.safe_state_release_decisions,
             c.config.limit_cycle_window, c.config.limit_cycle_min_flips)
            for c in ctrls
        ], dtype=np.int64)
        period = self._iparams[:, _Q_PERIOD]
        # The three actuator command blocks live side by side in one
        # (B, 3*num_sms) row, the layout of the store's command rows.
        self._cat_default = np.zeros((n_lanes, 3 * n))
        self._cat_default[:, :n] = self._params[:, _P_IWMAX:_P_IWMAX + 1]
        self._slew_cat = np.empty((n_lanes, 3 * n))
        self._slew_cat[:, :n] = col([c.config.slew_issue for c in ctrls])
        self._slew_cat[:, n:2 * n] = col([c.config.slew_fake for c in ctrls])
        self._slew_cat[:, 2 * n:] = col([c.config.slew_dcc_w for c in ctrls])
        # A fresh lane's state: filters at their initial voltage, the
        # default decision active (id 0) and last enqueued (id 1, a
        # distinct object), nothing queued.
        self._state = np.repeat(col([c.stack.sm_voltage for c in ctrls]), n, 1)
        self._last_good = np.repeat(
            col([c.config.v_nominal for c in ctrls]), n, 1
        )
        self._fallback = np.zeros((n_lanes, n), dtype=bool)
        self._ints = np.zeros((n_lanes, _NI), dtype=np.int64)
        self._ints[:, _I_LAST] = -period
        self._ints[:, _I_COUNTED] = -1
        self._ints[:, _I_LAST_ID] = 1
        self._ints[:, _I_AT_DEFAULT] = 1
        self._flap = np.zeros(
            (n_lanes, int(self._iparams[:, _Q_WINDOW].max())), dtype=np.uint8
        )
        self._cap = max(
            [int(lat // every) + 2 for every, lat
             in self._iparams[:, :_Q_LATENCY + 1].tolist()]
            + [c._bank._cap for c in ctrls if c._bank is not None]
        )
        self._alloc_ring(self._cap)
        self._store[:, :2] = self._cat_default[:, None, :]
        # Lanes that already had a bank bring their rows along; every
        # lane becomes a view of its row here.
        for i, c in enumerate(ctrls):
            if c._bank is not None:
                self._adopt(i, c._bank, c._row)
            c._bank, c._row = self, i
        # Due bookkeeping (_S_* slots): the next cycle any lane is due.
        # While every lane shares one control period and decision phase
        # (uniform cadence) the whole bank is due together, so a due
        # cycle needs no per-lane test and the wave covers all lanes.
        # An observed mask that drops a lane's due cycle splits the
        # phases, as in a serial run, and the bank falls back to
        # per-lane due tests.  NEXT_POP is a lower bound on the next
        # cycle a lane's pipeline head pops: waves lower it, the pop
        # consumer raises it again.
        last = self._ints[:, _I_LAST]
        self._scal = np.zeros(4, dtype=np.int64)
        periods = set(period.tolist())
        if len(periods) == 1 and len(set(last.tolist())) == 1:
            self._scal[_S_UNIFORM] = periods.pop()
        self._scal[_S_NEXT_DUE] = (last + period).min()
        self._scal[_S_MIN_LATENCY] = self._iparams[:, _Q_LATENCY].min()
        self._due = np.zeros(n_lanes, dtype=np.uint8)  # C wave scratch
        self._measured = np.empty_like(self._state)  # C filter output
        # The C filter and wave, and their view of this bank: bound on
        # the first observe and repointed on growth.
        lib = native.load()
        self._filter_fn, self._wave_fn = lib.bank_filter, lib.bank_wave
        self._c: Optional[_CBank] = None
        self._c_ptr = None

    # -- ring and store layout ------------------------------------------
    def _alloc_ring(self, cap: int) -> None:
        n_lanes, n3 = self._cat_default.shape
        self._cap = cap
        self._ring_at = np.zeros((n_lanes, cap), dtype=np.int64)
        self._ring_id = np.zeros((n_lanes, cap), dtype=np.int64)
        self._store = np.zeros((n_lanes, cap + 1, n3))
        self._store_trig = np.zeros(
            (n_lanes, cap + 1, self.num_sms), dtype=np.uint8
        )
        self._store_thr = np.zeros((n_lanes, cap + 1), dtype=np.uint8)

    def _ring(self, row: int):
        """Lane ``row``'s queued entries in pop order, then its live ids
        (active through last enqueued) with their store rows."""
        state = self._ints[row]
        cap = self._cap
        queued = (state[_I_RING_HEAD] + np.arange(state[_I_RING_LEN])) % cap
        ids = np.arange(state[_I_ACTIVE], state[_I_LAST_ID] + 1)
        slots = ids % (cap + 1)
        return (
            self._ring_at[row, queued], self._ring_id[row, queued], ids,
            self._store[row, slots], self._store_trig[row, slots],
            self._store_thr[row, slots],
        )

    def _place(self, row: int, ring) -> None:
        """Lay ``ring`` (as :meth:`_ring` returns it) out in ``row``."""
        at, ident, ids, store, trig, thr = ring
        self._ring_at[row, :len(at)] = at
        self._ring_id[row, :len(at)] = ident
        self._ints[row, _I_RING_HEAD] = 0
        slots = ids % (self._cap + 1)
        self._store[row, slots] = store
        self._store_trig[row, slots] = trig
        self._store_thr[row, slots] = thr

    def _adopt(self, row: int, old: "ControllerBank", old_row: int) -> None:
        """Take over a lane's state from its previous bank's row."""
        for name in ("_state", "_last_good", "_fallback", "_ints"):
            getattr(self, name)[row] = getattr(old, name)[old_row]
        width = int(self._iparams[row, _Q_WINDOW])
        self._flap[row, :width] = old._flap[old_row, :width]
        self._place(row, old._ring(old_row))

    def _grow(self) -> None:
        """Double the ring depth (and the store), keeping every entry."""
        rings = [self._ring(row) for row in range(len(self.controllers))]
        self._alloc_ring(2 * self._cap)
        for row, ring in enumerate(rings):
            self._place(row, ring)
        if self._c is not None:
            self._bind_c()

    def _bind_c(self) -> _CBank:
        """The C wave's view of this bank, (re)pointed at its arrays."""
        if self._c is None:
            self._c = _CBank(
                n_lanes=len(self.controllers), num_sms=self.num_sms
            )
        self._c.cap = self._cap
        self._c.flap_width = self._flap.shape[1]
        for name in _C_ARRAYS:
            setattr(self._c, name, getattr(self, name).ctypes.data)
        return self._c

    @property
    def _uniform_period(self) -> Optional[int]:
        """The shared control period while the lanes decide in phase."""
        return int(self._scal[_S_UNIFORM]) or None

    # ------------------------------------------------------------------
    def observe(
        self,
        cycle: int,
        seen: np.ndarray,
        observed: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every lane one cycle; decide for the lanes due.

        ``seen`` has shape ``(B, num_sms)``: row i is what lane i's
        detectors see this cycle — the true SM voltages, or a fault
        injector's corrupted copy with NaN for dropped samples.
        ``observed`` (``(B,)`` bool, default all) marks the lanes that
        observe at all this cycle; the other rows are left untouched,
        exactly as a serial run that skips the lane's observe.
        """
        seen = np.ascontiguousarray(seen, dtype=float)
        n_lanes = len(self.controllers)
        expected = (n_lanes, self.num_sms)
        if seen.shape != expected:
            raise ValueError(
                f"expected voltages of shape {expected}, got {seen.shape}"
            )
        if observed is not None:
            observed = np.ascontiguousarray(observed, dtype=bool)
            if observed.shape != (n_lanes,):
                raise ValueError(
                    f"expected an observed mask of shape ({n_lanes},), "
                    f"got {observed.shape}"
                )
            if observed.all():
                observed = None
        if self._c_ptr is None:
            self._c_ptr = ctypes.pointer(self._bind_c())
        measured = self._measured
        self._filter_fn(
            self._c_ptr, seen.ctypes.data,
            None if observed is None else observed.ctypes.data,
            measured.ctypes.data,
        )
        self._decide_due(cycle, measured, observed)

    def _decide_due(
        self,
        cycle: int,
        measured: np.ndarray,
        observed: Optional[np.ndarray],
    ) -> None:
        """Run the decision wave of the lanes due at ``cycle``."""
        if cycle < self._scal[_S_NEXT_DUE]:
            return
        obs = None if observed is None else observed.ctypes.data
        while self._wave_fn(self._c_ptr, cycle, measured.ctypes.data, obs) == (
            _WAVE_GROW
        ):
            self._grow()

    # ------------------------------------------------------------------
    def _pop_lane(self, row: int, cycle: int) -> None:
        """Pop lane ``row``'s entries due by ``cycle``; the last popped
        id becomes active (its throttle flag with it)."""
        state = self._ints[row]
        cap = self._cap
        head, length = int(state[_I_RING_HEAD]), int(state[_I_RING_LEN])
        at, ids = self._ring_at[row], self._ring_id[row]
        popped = -1
        while length and at[head] <= cycle:
            popped = int(ids[head])
            head = (head + 1) % cap
            length -= 1
        state[_I_RING_HEAD] = head
        state[_I_RING_LEN] = length
        if popped >= 0 and popped != state[_I_ACTIVE]:
            state[_I_ACTIVE] = popped
            state[_I_ACTIVE_THR] = self._store_thr[row, popped % (cap + 1)]

    # ------------------------------------------------------------------
    def compact(self, keep: List[int]) -> "ControllerBank":
        """Rebuild the bank over the ``keep`` lanes (batch quarantine).

        Mid-run re-homing is exact: every piece of mutable lane state is
        a row of this bank's arrays, which the new bank adopts — due
        bookkeeping is reconstructed from each lane's last decision
        cycle plus its period, exactly its own cadence.  Dropped lanes'
        controllers are left untouched (their rows simply stop being
        advanced).
        """
        return ControllerBank([self.controllers[i] for i in keep])
