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
advance and the decision arithmetic, vectorized over lanes; a
:class:`VoltageSmoothingController` holds one lane's state, and its
``observe`` steps the lane's one-lane bank.  The per-SM scalar path the
bank replaced is the test oracle ``tests/oracles/scalar_controller.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

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


class VoltageSmoothingController:
    """One Algorithm 1 lane: config, sensor state, latency pipeline, stats.

    :class:`ControllerBank` advances the lane's filters and runs its
    decisions; :meth:`observe` steps the lane's own one-lane bank.
    Only the stock :class:`WeightedActuation` /
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
        # Sensor front end: one array holds every SM's RC filter state
        # (the detector's RC filter, stepped as RCLowPassFilter.step
        # does), quantized at the detector's resolution.
        filt = VoltageDetector(config.detector).filter
        tau = filt.r_ohm * filt.c_farad
        self._filter_alpha = dt_s / (tau + dt_s)
        self._filter_state = np.full(stack.num_sms, stack.sm_voltage)
        self._resolution_v = config.detector.resolution_v
        # The bank that steps this lane (set by ControllerBank).
        self._bank: Optional[ControllerBank] = None
        # (apply_at_cycle, decision) queue modelling the loop latency.
        self._pipeline: Deque[Tuple[int, ControlDecision]] = deque()
        self._last_decision_cycle = -config.control_period_cycles
        self._default_issue_width = float(self.actuation.issue_width_max)
        self.active_decision = self._default_decision()
        self._last_enqueued = self._default_decision()
        # Statistics for performance-penalty accounting.  throttled_cycles
        # counts *simulated* cycles (commands_for may be called more than
        # once for the same cycle without double counting).
        self.throttled_cycles = 0
        self._counted_through_cycle = -1
        self.decisions_made = 0
        self.triggers = 0
        # Per-actuator telemetry: decisions in which each actuator was
        # engaged, and decisions in which its slew clamp saturated (the
        # commanded change exceeded the per-decision limit).
        self.actuator_decisions: Dict[str, int] = {
            "diws": 0, "fii": 0, "dcc": 0
        }
        self.slew_saturations: Dict[str, int] = {
            "issue": 0, "fake": 0, "dcc": 0
        }
        self.throttle_decisions = 0
        self.boost_decisions = 0
        # Graceful-degradation state: sensor-loss fallback holds the
        # last good filtered measurement per SM; the guardband watchdog
        # tracks consecutive sub-guardband decisions and escalates to
        # the safe state; limit-cycle detection watches the throttle
        # flag flap.
        self._last_good = np.full(stack.num_sms, config.v_nominal)
        self._fallback_active = np.zeros(stack.num_sms, dtype=bool)
        self.sensor_fallback_samples = 0
        self.nan_samples_seen = 0
        self.watchdog_engagements = 0
        self.safe_state_decisions = 0
        self.in_safe_state = False
        self._subguard_streak = 0
        self._healthy_streak = 0
        self._flap_history: Deque[bool] = deque(
            maxlen=config.limit_cycle_window
        )
        # Incrementally maintained count of adjacent flag flips inside
        # the history window (O(1) per decision vs re-scanning the
        # window).
        self._flap_flips = 0
        self.limit_cycle_events = 0
        self._limit_cycle_flagged = False
        # Cached "active decision throttles" flag, refreshed whenever a
        # new decision is popped from the pipeline; commands_for()
        # consults it instead of re-scanning issue widths every cycle.
        # Decision arrays are controller-owned and never mutated after
        # enqueue (callers copy at the boundary — see run_cosim), so the
        # cache cannot go stale.
        self._active_throttling = bool(
            np.any(self.active_decision.issue_widths < self._default_issue_width)
        )

    # ------------------------------------------------------------------
    def _default_decision(self) -> ControlDecision:
        n = self.stack.num_sms
        return ControlDecision(
            issue_widths=np.full(n, self._default_issue_width),
            fake_rates=np.zeros(n),
            dcc_powers_w=np.zeros(n),
        )

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

        This is the one-lane case of :class:`ControllerBank`: the first
        call builds the lane's own bank and every call steps it.  A lane
        of a multi-lane bank is stepped through that bank only.
        """
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        if sm_voltages.shape != (self.stack.num_sms,):
            raise ValueError(
                f"expected {self.stack.num_sms} SM voltages, got "
                f"{sm_voltages.shape}"
            )
        bank = self._bank
        if bank is None:
            bank = ControllerBank([self])
        elif len(bank.controllers) != 1:
            raise RuntimeError(
                "this controller is one of the "
                f"{len(bank.controllers)} lanes of a ControllerBank; step "
                "it through ControllerBank.observe"
            )
        bank.observe(cycle, sm_voltages[None, :])

    def _note_worst_measurement(self, worst: float) -> None:
        """Advance the watchdog streaks given this decision's worst SM."""
        cfg = self.config
        if worst < cfg.guardband_v:
            self._subguard_streak += 1
            self._healthy_streak = 0
        else:
            self._subguard_streak = 0
            self._healthy_streak += 1
        if (
            cfg.watchdog_enabled
            and not self.in_safe_state
            and self._subguard_streak >= cfg.watchdog_patience
        ):
            self.in_safe_state = True
            self.watchdog_engagements += 1
            self._healthy_streak = 0
        elif (
            self.in_safe_state
            and self._healthy_streak >= cfg.safe_state_release_decisions
        ):
            self.in_safe_state = False

    def _track_limit_cycle(self, throttling: bool) -> None:
        """Flag sustained on/off flapping of the throttle engagement.

        The adjacent-flip count is maintained incrementally: appending
        to the full window evicts ``history[0]`` — removing the
        ``(history[0], history[1])`` adjacency — and adds the
        ``(history[-1], new)`` one, so each decision costs O(1) instead
        of re-scanning the window.
        """
        cfg = self.config
        hist = self._flap_history
        if len(hist) == cfg.limit_cycle_window and hist[0] != hist[1]:
            self._flap_flips -= 1
        if hist and hist[-1] != throttling:
            self._flap_flips += 1
        hist.append(throttling)
        if len(hist) < cfg.limit_cycle_window:
            return
        flips = self._flap_flips
        if flips >= cfg.limit_cycle_min_flips:
            if not self._limit_cycle_flagged:
                self._limit_cycle_flagged = True
                self.limit_cycle_events += 1
        elif flips <= cfg.limit_cycle_min_flips // 2:
            self._limit_cycle_flagged = False

    def commands_for(self, cycle: int) -> ControlDecision:
        """The actuation in force at ``cycle`` (after loop latency)."""
        while self._pipeline and self._pipeline[0][0] <= cycle:
            _, decision = self._pipeline.popleft()
            self.active_decision = decision
            # Decisions are immutable once enqueued (ownership contract:
            # actuation consumers copy at the boundary), so the throttle
            # scan happens once per decision pop, not once per cycle.
            self._active_throttling = bool(
                np.any(decision.issue_widths < self._default_issue_width)
            )
        # Count each simulated cycle at most once, so callers that read
        # the same cycle's commands twice do not double-count.
        if cycle > self._counted_through_cycle:
            self._counted_through_cycle = cycle
            if self._active_throttling:
                self.throttled_cycles += 1
        return self.active_decision

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
        return {
            "decisions_made": self.decisions_made,
            "triggers": self.triggers,
            "throttle_decisions": self.throttle_decisions,
            "boost_decisions": self.boost_decisions,
            "throttled_cycles": self.throttled_cycles,
            "actuator_decisions": dict(self.actuator_decisions),
            "slew_saturations": dict(self.slew_saturations),
            "watchdog_engagements": self.watchdog_engagements,
            "safe_state_decisions": self.safe_state_decisions,
            "in_safe_state": self.in_safe_state,
            "sensor_fallback_samples": self.sensor_fallback_samples,
            "nan_samples_seen": self.nan_samples_seen,
            "limit_cycle_events": self.limit_cycle_events,
        }


# Columns of ControllerBank._params.
(_P_THR, _P_THR_HIGH, _P_WIDEN, _P_IWMAX, _P_V_NOM, _P_K1W1, _P_K2W2,
 _P_K3W3, _P_UNIT, _P_MAX_CODE) = range(10)


class ControllerBank:
    """Algorithm 1 over B lock-stepped, independent lanes.

    The one implementation of the per-cycle RC filter advance and the
    per-decision Algorithm 1 / slew arithmetic: each lane's
    :class:`VoltageSmoothingController` filter/fallback state is
    re-homed as one row of shared ``(B, num_sms)`` arrays, and the
    scalar remainder — watchdog streaks, pipelines, counters — updates
    the owning controller.  All batched operations are elementwise with
    per-lane ``(B, 1)`` broadcasts (or row-wise reductions), so each row
    is bit-identical to the per-SM scalar reference
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
        self.num_sms = sizes.pop()
        ctrls = self.controllers
        # Re-home per-lane filter/fallback state as rows of batch arrays
        # and take over the lanes.  np.stack copies current values and
        # the lanes keep row views, so a later bank over the same lanes
        # (a compaction) starts from the state this one leaves.
        self._state = np.stack([c._filter_state for c in ctrls])
        self._last_good = np.stack([c._last_good for c in ctrls])
        self._fallback = np.stack([c._fallback_active for c in ctrls])
        for i, c in enumerate(ctrls):
            c._filter_state = self._state[i]
            c._last_good = self._last_good[i]
            c._fallback_active = self._fallback[i]
            c._bank = self

        def col(values) -> np.ndarray:
            return np.asarray(values, dtype=float).reshape(-1, 1)

        self._alpha = col([c._filter_alpha for c in ctrls])
        self._step_v = col([c._resolution_v for c in ctrls])
        self._fb_on = np.array(
            [c.config.sensor_fallback_enabled for c in ctrls]
        ).reshape(-1, 1)
        self._fb_all = bool(self._fb_on.all())
        # Per-lane wave parameters, one column each (the _P_* indices),
        # so a partial wave gathers its lanes' rows with one take.  The
        # stock actuation's per-SM proportional law vectorizes as
        # (B, num_sms) array ops over these (see _decide_banked).
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
        ]).astype(float)
        self._thr = self._params[:, _P_THR:_P_THR + 1]
        self._thr_high = self._params[:, _P_THR_HIGH:_P_THR_HIGH + 1]
        self._period = np.array(
            [c.config.control_period_cycles for c in ctrls], dtype=np.int64
        )
        self._last_decision = np.array(
            [c._last_decision_cycle for c in ctrls], dtype=np.int64
        )
        # Due bookkeeping: the next cycle any lane is due.  While every
        # lane shares one control period and decision phase (uniform
        # cadence) the whole bank is due together, so a due cycle needs
        # no (B,) reduction and the wave covers all lanes.  An observed
        # mask that drops a lane's due cycle splits the phases, as in a
        # serial run, and the bank falls back to per-lane due tests.
        periods = {c.config.control_period_cycles for c in ctrls}
        lasts = {c._last_decision_cycle for c in ctrls}
        self._uniform_period: Optional[int] = (
            periods.pop() if len(periods) == 1 and len(lasts) == 1 else None
        )
        self._next_due = int((self._last_decision + self._period).min())
        self._any_fallback = bool(self._fallback.any())
        # Each lane's loop latency, cached: the config is frozen, and the
        # property re-derives it from the detector on every read.
        self._latency = [c.config.total_latency_cycles for c in ctrls]
        self._min_latency = min(self._latency)
        # A lower bound on the next cycle any lane's pipeline head pops:
        # waves lower it, and the consumer that pops the pipelines
        # raises it again (see repro.sim.cosim); cycles before it need
        # no pipeline scan.
        self.next_pop = 0
        # Per-cycle observe scratch (the filter advance is dispatch-
        # bound at small B; out= ufuncs avoid five temporaries a cycle).
        self._obs_buf = np.empty_like(self._state)
        self._finite_buf = np.empty(self._state.shape, dtype=bool)
        # Wave working set: the three actuator command blocks live side
        # by side in one (B, 3*num_sms) array, so the slew clamp and its
        # saturation test run as single ufunc calls; each lane's
        # ControlDecision holds row-slice views of the blocks.
        n = self.num_sms
        n_lanes = len(ctrls)
        self._cat_default = np.zeros((n_lanes, 3 * n))
        self._cat_default[:, :n] = self._params[:, _P_IWMAX:_P_IWMAX + 1]
        self._slew_cat = np.empty((n_lanes, 3 * n))
        self._slew_cat[:, :n] = col([c.config.slew_issue for c in ctrls])
        self._slew_cat[:, n:2 * n] = col([c.config.slew_fake for c in ctrls])
        self._slew_cat[:, 2 * n:] = col([c.config.slew_dcc_w for c in ctrls])
        # Each lane's last enqueued command, as one bank-owned row kept
        # current by the waves (the bank is the lanes' only enqueuer),
        # and whether it sits exactly at the default decision (gates
        # the idle-lane re-enqueue).
        self._prev_cat = np.stack([
            np.concatenate(
                (d.issue_widths, d.fake_rates, d.dcc_powers_w)
            )
            for d in (c._last_enqueued for c in ctrls)
        ])
        self._at_default = (self._prev_cat == self._cat_default).all(axis=1)
        self._all_at_default = bool(self._at_default.all())

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
        seen = np.asarray(seen, dtype=float)
        expected = (len(self.controllers), self.num_sms)
        if seen.shape != expected:
            raise ValueError(
                f"expected voltages of shape {expected}, got {seen.shape}"
            )
        if observed is not None and observed.all():
            observed = None
        finite = self._finite_buf
        np.isfinite(seen, out=finite)
        if observed is None and finite.all():
            # The reference's all-finite filter advance, broadcast over
            # lanes.
            state = self._state
            buf = self._obs_buf
            np.subtract(seen, state, out=buf)
            buf *= self._alpha
            state += buf
            # Quantize straight into _last_good (rows alias the lanes'
            # held-measurement arrays, which the reference updates with
            # exactly this value on every finite sample).
            measured = self._last_good
            np.divide(state, self._step_v, out=measured)
            np.rint(measured, out=measured)
            measured *= self._step_v
            self.observe_filtered(cycle)
            return
        measured, has_nan = self._advance_masked(seen, finite, observed)
        self._decide_due(cycle, measured, observed, has_nan)

    def observe_filtered(self, cycle: int) -> None:
        """The rest of an all-finite, all-observed :meth:`observe`.

        For a caller that has already advanced every row's RC filter
        and quantizer on finite samples into ``_state`` / ``_last_good``
        with ``observe``'s exact arithmetic (the co-sim's cycle kernel
        does).  Clears the fallback flags and runs a decision wave when
        one is due.
        """
        if self._any_fallback:
            # Clearing an all-False fallback row is a no-op, so one
            # global clear matches the per-lane clears.
            self._fallback[:] = False
            self._any_fallback = False
        if cycle >= self._next_due:
            self._decide_due(cycle, self._last_good, None, False)

    def _decide_due(
        self,
        cycle: int,
        measured: np.ndarray,
        observed: Optional[np.ndarray],
        has_nan: bool,
    ) -> None:
        """Run the decision wave of the lanes due at ``cycle``."""
        if cycle < self._next_due:
            return
        if self._uniform_period is not None and observed is None:
            self._next_due = cycle + self._uniform_period
            self._last_decision[:] = cycle
            self._wave(cycle, measured, None, has_nan)
            return
        self._uniform_period = None
        due = cycle - self._last_decision >= self._period
        if observed is not None:
            due &= observed
        rows = np.flatnonzero(due)
        if rows.size:
            self._last_decision[rows] = cycle
            self._wave(
                cycle, measured, None if rows.size == len(due) else rows,
                has_nan,
            )
        self._next_due = int((self._last_decision + self._period).min())

    def _advance_masked(
        self,
        seen: np.ndarray,
        finite: np.ndarray,
        observed: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, bool]:
        """Filter advance for blocks with NaN samples or unobserved rows.

        Row-for-row the reference's filter advance
        (``ScalarController._advance_filters`` in
        ``tests/oracles/scalar_controller.py``): only fresh
        (finite, observed) samples enter the RC filter, the held
        measurement updates where they do, and a dropped sample either
        holds its last good value (fallback on, thresholds widened) or
        reads NaN.  Unobserved rows change nowhere.  Returns the
        measurement block and whether it holds any NaN.  The co-sim's
        cycle kernel (``repro/sim/_cyclec.c``) repeats this arithmetic
        element for element; this body is its oracle.
        """
        state = self._state
        if observed is None:
            rows = True
            fresh = finite
            dropped = ~finite
        else:
            rows = observed.reshape(-1, 1)
            fresh = finite & rows
            dropped = fresh ^ rows
        np.copyto(state, state + self._alpha * (seen - state), where=fresh)
        measured = np.rint(state / self._step_v) * self._step_v
        np.copyto(self._last_good, measured, where=fresh)
        held = dropped if self._fb_all else dropped & self._fb_on
        np.copyto(measured, self._last_good, where=held)
        # An observed SM is fallback-held exactly where its sample was
        # dropped under an enabled fallback (a disabled lane's flags
        # never leave False).
        np.copyto(self._fallback, held, where=rows)
        has_nan = False
        if not self._fb_all:
            blind = dropped & ~self._fb_on
            if blind.any():
                measured[blind] = np.nan
                has_nan = True
        self._count_dropped(dropped.sum(axis=1))
        self._any_fallback = bool(self._fallback.any())
        return measured, has_nan

    def _count_dropped(self, counts: np.ndarray) -> None:
        """Credit per-lane dropped-sample counts to the lanes' stats."""
        fb_on = self._fb_on
        for i, count in enumerate(counts.tolist()):
            if count:
                c = self.controllers[i]
                c.nan_samples_seen += count
                if fb_on[i, 0]:
                    c.sensor_fallback_samples += count

    def observe_measured(
        self,
        cycle: int,
        measured: np.ndarray,
        observed: Optional[np.ndarray],
        has_nan: bool,
        any_fallback: bool,
    ) -> None:
        """The rest of a masked :meth:`observe`, for a caller that ran
        :meth:`_advance_masked`'s arithmetic (the co-sim's cycle kernel
        does) and passes what it leaves; runs a due decision wave."""
        self._any_fallback = any_fallback
        self._decide_due(cycle, measured, observed, has_nan)

    # ------------------------------------------------------------------
    def _wave(
        self,
        cycle: int,
        measured: np.ndarray,
        rows: Optional[np.ndarray],
        has_nan: bool,
    ) -> None:
        """One decision wave over the due lanes ``rows`` (None = all).

        Per lane this is the reference's ``_make_decision``
        (``tests/oracles/scalar_controller.py``): watchdog, Algorithm 1
        (or the safe state), slew limiting, statistics and enqueueing.  An
        *idle* lane — nothing triggered, not in the safe state, and its
        previous command exactly the default — would enqueue a command
        value-identical to its previous one, so it re-enqueues that same
        decision object instead: downstream consumers can then skip
        actuation on an identity check, and a wave of idle lanes skips
        the clamp entirely.
        """
        self.next_pop = min(self.next_pop, cycle + self._min_latency)
        if rows is None:
            ctrls = self.controllers
            latency = self._latency
            m = measured
            P = self._params
            thr = self._thr
            thr_high = self._thr_high
        else:
            ctrls = [self.controllers[i] for i in rows]
            latency = [self._latency[i] for i in rows]
            m = measured[rows]
            P = self._params[rows]
            thr = P[:, _P_THR:_P_THR + 1]
            thr_high = P[:, _P_THR_HIGH:_P_THR_HIGH + 1]
        # Watchdog streaks advance on each lane's worst measured SM; an
        # all-NaN row (total sensor loss without fallback) is no
        # evidence either way.
        if has_nan:
            worst = np.where(np.isfinite(m), m, np.inf).min(axis=1).tolist()
        else:
            worst = m.min(axis=1).tolist()
        inf = np.inf
        for c, w in zip(ctrls, worst):
            c._last_decision_cycle = cycle
            if w != inf:
                c._note_worst_measurement(w)
        # A fallback-held SM's thresholds widen: protective throttling
        # engages earlier on stale data, power-adding boosts later.
        # NaN fails both comparisons — it never actuates.
        if self._any_fallback:
            fb = self._fallback if rows is None else self._fallback[rows]
            widen = np.where(fb, P[:, _P_WIDEN:_P_WIDEN + 1], 0.0)
            low = m < thr + widen
            high = m > thr_high + widen
        else:
            low = m < thr
            high = m > thr_high
        safe = [c.in_safe_state for c in ctrls]
        any_safe = any(safe)
        if any_safe:
            # The safe state replaces Algorithm 1 outright.
            live = ~np.array(safe).reshape(-1, 1)
            low &= live
            high &= live
        trig_mask = low | high
        trig = trig_mask.any(axis=1).tolist()
        any_trig = any(trig)
        if not any_trig and not any_safe and (
            self._all_at_default if rows is None
            else self._at_default[rows].all()
        ):
            for c, lat in zip(ctrls, latency):
                c.decisions_made += 1
                c._track_limit_cycle(False)
                c._pipeline.append((cycle + lat, c._last_enqueued))
            return
        at_default = (
            self._at_default if rows is None else self._at_default[rows]
        ).tolist()
        idle = [
            a and not t and not s for a, t, s in zip(at_default, trig, safe)
        ]
        n = self.num_sms
        if rows is None:
            cat_default = self._cat_default
            slew = self._slew_cat
        else:
            cat_default = self._cat_default[rows]
            slew = self._slew_cat[rows]
        cat = cat_default.copy()
        widths = cat[:, :n]
        fakes = cat[:, n:2 * n]
        dcc = cat[:, 2 * n:]
        decisions: List[Optional[ControlDecision]] = [
            None if idle[j] else ControlDecision(
                issue_widths=widths[j], fake_rates=fakes[j],
                dcc_powers_w=dcc[j],
            )
            for j in range(len(ctrls))
        ]
        if any_trig:
            self._decide_banked(m, low, high, P, widths, fakes, dcc)
            for j, t in enumerate(trig):
                if t:
                    decisions[j].triggered_sms = np.flatnonzero(
                        trig_mask[j]
                    ).tolist()
        if any_safe:
            for j, c in enumerate(ctrls):
                if safe[j]:
                    widths[j] = float(c.config.safe_issue_width)
                    c.safe_state_decisions += 1
        k = len(ctrls)
        prev_cat = self._prev_cat if rows is None else self._prev_cat[rows]
        clamped = np.clip(cat, prev_cat - slew, prev_cat + slew)
        # Per lane and actuator (issue, fake, dcc): did the clamp bite?
        saturated = (clamped != cat).reshape(k, 3, n).any(axis=2).tolist()
        cat[:] = clamped
        throttling = (
            (widths < P[:, _P_IWMAX:_P_IWMAX + 1]).any(axis=1).tolist()
        )
        # Per lane: FII engaged, DCC engaged.
        boosting = (cat[:, n:] > 0.0).reshape(k, 2, n).any(axis=2).tolist()
        now_default = (cat == cat_default).all(axis=1)
        if rows is None:
            self._prev_cat[:] = cat
            self._at_default = now_default
        else:
            self._prev_cat[rows] = cat
            self._at_default[rows] = now_default
        self._all_at_default = bool(self._at_default.all())
        relaxed = now_default.tolist()
        for j, c in enumerate(ctrls):
            c.decisions_made += 1
            d = decisions[j]
            if d is None:
                c._track_limit_cycle(False)
                c._pipeline.append((cycle + latency[j], c._last_enqueued))
                continue
            if relaxed[j]:
                # Idle waves may re-enqueue a default decision for the
                # rest of the run: give it its own arrays, so it does
                # not keep this wave's (k, 3n) block alive.
                d = ControlDecision(
                    issue_widths=d.issue_widths.copy(),
                    fake_rates=d.fake_rates.copy(),
                    dcc_powers_w=d.dcc_powers_w.copy(),
                    triggered_sms=d.triggered_sms,
                )
            sat_i, sat_f, sat_d = saturated[j]
            if sat_i:
                c.slew_saturations["issue"] += 1
            if sat_f:
                c.slew_saturations["fake"] += 1
            if sat_d:
                c.slew_saturations["dcc"] += 1
            c._last_enqueued = d
            if d.triggered_sms:
                c.triggers += 1
            throttled = throttling[j]
            c._track_limit_cycle(throttled)
            if throttled:
                c.throttle_decisions += 1
                c.actuator_decisions["diws"] += 1
            fii_active, dcc_active = boosting[j]
            if fii_active:
                c.actuator_decisions["fii"] += 1
            if dcc_active:
                c.actuator_decisions["dcc"] += 1
            if fii_active or dcc_active:
                c.boost_decisions += 1
            c._pipeline.append((cycle + latency[j], d))

    # ------------------------------------------------------------------
    def _decide_banked(
        self,
        m: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        P: np.ndarray,
        widths: np.ndarray,
        fakes: np.ndarray,
        dcc: np.ndarray,
    ) -> None:
        """Vectorized Algorithm 1 body across the wave's triggered SMs.

        Bit-identical per triggered lane to the reference's per-SM
        ``_decide`` (``tests/oracles/scalar_controller.py``) over the
        stock :class:`WeightedActuation` /
        :class:`CurrentCompensationDAC` law (``P`` holds the wave's
        rows of ``_params``):

        * low side writes ``min(iwmax, max(0, iwmax - (k1*w1)*err))``
          (the clamps collapse to ``iwmax`` exactly where ``err <= 0``,
          matching ``WeightedActuation.commands``'s early return, which
          the ``np.where`` keeps exact even for pathological negative
          gains);
        * high side max-merges FII/DCC into default-zero rows, i.e.
          plain masked assignment; the DAC quantization
          ``min(max_code, round(p / unit))`` uses ``np.rint``, whose
          half-to-even tie-breaking matches Python's ``round``.

        ``k1*w1`` etc. are precomputed per lane so the product
        associates exactly as ``WeightedActuation.commands``'s
        ``k1 * self.w1 * error_v``.
        """
        iwmax = P[:, _P_IWMAX:_P_IWMAX + 1]
        v_nom = P[:, _P_V_NOM:_P_V_NOM + 1]
        err = v_nom - m
        w_raw = np.minimum(
            iwmax, np.maximum(0.0, iwmax - P[:, _P_K1W1:_P_K1W1 + 1] * err)
        )
        np.copyto(widths, np.where(err > 0, w_raw, iwmax), where=low)
        high_eff = high & ~low
        if high_eff.any():
            over = m - v_nom
            pos = over > 0
            fake = np.minimum(
                2.0, np.maximum(0.0, P[:, _P_K2W2:_P_K2W2 + 1] * over)
            )
            np.copyto(fakes, np.where(pos, fake, 0.0), where=high_eff)
            unit = P[:, _P_UNIT:_P_UNIT + 1]
            p = P[:, _P_K3W3:_P_K3W3 + 1] * over
            code = np.minimum(
                P[:, _P_MAX_CODE:_P_MAX_CODE + 1], np.rint(p / unit)
            )
            power = np.where(pos & (p > 0), code * unit, 0.0)
            np.copyto(dcc, power, where=high_eff)

    # ------------------------------------------------------------------
    def compact(self, keep: List[int]) -> "ControllerBank":
        """Rebuild the bank over the ``keep`` lanes (batch quarantine).

        Mid-run re-homing is exact: every piece of mutable lane state
        either lives on the controller object itself (pipelines,
        counters, ``_last_decision_cycle``, ``_last_enqueued``) or is a
        row *view* of the bank arrays — so the constructor's
        ``np.stack`` reads current values — and the due bookkeeping is
        reconstructed from ``_last_decision_cycle + period``, which is
        exactly a lane's own cadence.  Dropped lanes' controllers are
        left untouched (their state rows simply stop being advanced).
        """
        return ControllerBank([self.controllers[i] for i in keep])
