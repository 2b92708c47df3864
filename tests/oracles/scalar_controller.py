"""The per-SM scalar Algorithm 1, kept as the bit-identity oracle.

``repro.core.controller.ControllerBank`` is the only Algorithm 1 in the
library: it keeps every lane's state as bank arrays and runs its
decision waves in C or NumPy.  This module keeps the path the bank
replaced, on plain per-object state: one decision loops over the SMs
calling the actuation's scalar ``commands`` / ``boost_commands`` and
the DAC's ``power_for_code``, then slew-limits each actuator with its
own ``np.clip``, and a deque models the latency pipeline.  The
bank-equivalence suite and the serial co-sim oracle run it as their
reference.

The method bodies below are the former shipped path verbatim (the
constructor, the watchdog and limit-cycle updates, ``commands_for`` and
the statistics came from ``VoltageSmoothingController`` when its state
moved into the bank); only ``_decide``'s ``decision`` argument, which
served the bank's removed per-lane fallback, is gone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.config import StackConfig
from repro.core.actuators import CurrentCompensationDAC, WeightedActuation
from repro.core.controller import ControlDecision, ControllerConfig
from repro.core.detectors import VoltageDetector


class ScalarController:
    """Algorithm 1 one SM at a time: the reference the bank must match."""

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
        # (apply_at_cycle, decision) queue modelling the loop latency.
        self._pipeline: Deque[Tuple[int, ControlDecision]] = deque()
        self._last_decision_cycle = -config.control_period_cycles
        self._default_issue_width = float(self.actuation.issue_width_max)
        self.active_decision = self._default_decision()
        self._last_enqueued = self._default_decision()
        # The ControllerBank's decision ids: the active one, the last
        # enqueued, and the pipeline's.  An idle decision (nothing
        # triggered, no safe state, the last command the default) keeps
        # the last id; any other takes the next.  A co-sim applies a
        # decision when the active id changes (actuations_applied).
        self.active_id, self._last_id = 0, 1
        self._pipeline_ids: Deque[int] = deque()
        self._at_default = True
        self.actuations_applied = 0
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
        """
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        if sm_voltages.shape != (self.stack.num_sms,):
            raise ValueError(
                f"expected {self.stack.num_sms} SM voltages, got "
                f"{sm_voltages.shape}"
            )
        measured = self._advance_filters(sm_voltages)
        if cycle - self._last_decision_cycle < self.config.control_period_cycles:
            return
        self._last_decision_cycle = cycle
        self._make_decision(cycle, measured)

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
            self.active_id = self._pipeline_ids.popleft()
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
            # Counted by the co-sim loop that applies the decisions.
            "actuations_applied": self.actuations_applied,
        }

    def _advance_filters(self, sm_voltages: np.ndarray) -> np.ndarray:
        """Advance every SM's RC filter one cycle; return the measurement.

        RC filter + quantization for all SMs at once.  The elementwise
        float64 ops match RCLowPassFilter.step / VoltageDetector.sample
        exactly (np.rint is round-half-even, like Python's round), so
        decisions are bit-identical to the per-object path.  Non-finite
        samples never enter the filter state.

        :class:`ControllerBank` runs the same arithmetic batched over
        lanes (broadcasting over a leading batch axis is elementwise,
        hence bit-identical per row).
        """
        cfg = self.config
        finite = np.isfinite(sm_voltages)
        state = self._filter_state
        alpha = self._filter_alpha
        step = self._resolution_v
        if finite.all():
            state += alpha * (sm_voltages - state)
            measured = np.rint(state / step) * step
            self._last_good[:] = measured
            if self._fallback_active.any():
                self._fallback_active[:] = False
        else:
            bad = ~finite
            self.nan_samples_seen += int(bad.sum())
            np.copyto(state, state + alpha * (sm_voltages - state), where=finite)
            measured = np.rint(state / step) * step
            np.copyto(self._last_good, measured, where=finite)
            self._fallback_active[finite] = False
            if cfg.sensor_fallback_enabled:
                np.copyto(measured, self._last_good, where=bad)
                self._fallback_active[bad] = True
                self.sensor_fallback_samples += int(bad.sum())
            else:
                measured[bad] = np.nan
        return measured

    def _make_decision(self, cycle: int, measured: np.ndarray) -> None:
        """Watchdog, Algorithm 1 body, slew limiting and enqueueing.

        The caller has already updated ``_last_decision_cycle`` — this
        is the per-decision tail of :meth:`observe`.
        """
        self._update_watchdog(measured)
        if self.in_safe_state:
            decision = self._safe_decision()
            self.safe_state_decisions += 1
        else:
            decision = self._decide(measured)
        self._apply_slew_limit(decision)
        self._last_enqueued = decision
        self.decisions_made += 1
        if decision.triggered_sms:
            self.triggers += 1
        # Per-actuator engagement accounting, on the post-slew decision
        # actually enqueued.  A throttle decision is one that cuts issue
        # width below the default — overvoltage boosts (which *inject*
        # work) are counted separately, so the Fig. 12 throttling proxy
        # is not inflated by power-adding actuation.
        throttling = bool(
            np.any(decision.issue_widths < self._default_issue_width)
        )
        self._track_limit_cycle(throttling)
        fii_active = bool(np.any(decision.fake_rates > 0.0))
        dcc_active = bool(np.any(decision.dcc_powers_w > 0.0))
        if throttling:
            self.throttle_decisions += 1
            self.actuator_decisions["diws"] += 1
        if fii_active:
            self.actuator_decisions["fii"] += 1
        if dcc_active:
            self.actuator_decisions["dcc"] += 1
        if fii_active or dcc_active:
            self.boost_decisions += 1
        self._pipeline.append(
            (cycle + self.config.total_latency_cycles, decision)
        )
        busy = decision.triggered_sms or self.in_safe_state
        if busy or not self._at_default:
            self._last_id += 1
        self._at_default = bool(
            (decision.issue_widths == self._default_issue_width).all()
            and not decision.fake_rates.any()
            and not decision.dcc_powers_w.any()
        )
        self._pipeline_ids.append(self._last_id)

    def _update_watchdog(self, measured: np.ndarray) -> None:
        """Track sub-guardband streaks; escalate / release the safe state.

        The streaks advance on *decisions* (not cycles), so
        ``watchdog_patience`` is a count of consecutive control
        decisions whose worst measured SM sits below the guardband.
        All-NaN measurements (total sensor loss without fallback) leave
        the streaks untouched: no evidence either way.
        """
        finite = measured[np.isfinite(measured)]
        if finite.size == 0:
            return
        self._note_worst_measurement(float(finite.min()))

    def _safe_decision(self) -> ControlDecision:
        """The emergency safe state: minimal, uniform, boost-free draw.

        Every SM's issue width is clamped to ``safe_issue_width`` and
        all power-adding actuation (FII, DCC) is clamped off: a small
        uniform current per layer restores the series balance no matter
        which layer caused the imbalance, at a known throughput cost.
        The decision still passes through the normal slew limiter and
        latency pipeline — the safe state must not itself ring the PDN.
        """
        n = self.stack.num_sms
        return ControlDecision(
            issue_widths=np.full(n, float(self.config.safe_issue_width)),
            fake_rates=np.zeros(n),
            dcc_powers_w=np.zeros(n),
        )

    def _decide(self, measured: np.ndarray) -> ControlDecision:
        """The Algorithm 1 loop body over all (layer, column) positions.

        Two symmetric boundary triggers implement eq. (6)'s
        ``P_i = k V_i`` around the deadband:

        * an SM below ``v_threshold`` is overdrawing — DIWS throttles it
          proportionally to its droop;
        * an SM above ``v_high_threshold`` is underdrawing — FII / DCC
          raise its power proportionally to its overvoltage.  (In a
          series stack the overvolted SM is exactly the ``SM(i+1, j)``
          neighbour of a drooping SM that Algorithm 1 names as the
          injection target; triggering on its own voltage keeps the
          boost engaged until balance is actually restored instead of
          releasing as soon as the drooping SM crosses back over its
          threshold.)
        """
        cfg = self.config
        decision = self._default_decision()
        for sm in range(self.stack.num_sms):
            v_sm = measured[sm]
            # Sensor-loss fallback widens this SM's thresholds: with a
            # held (stale) measurement, protective throttling engages
            # earlier and power-adding boosts engage later.  NaN (no
            # fallback) fails both comparisons — never actuates.
            widen = (
                cfg.fallback_widen_v if self._fallback_active[sm] else 0.0
            )
            if v_sm < cfg.v_threshold + widen:
                decision.triggered_sms.append(sm)
                error = cfg.v_nominal - v_sm
                command = self.actuation.commands(
                    error, cfg.k1, cfg.k2, cfg.k3
                )
                decision.issue_widths[sm] = command.issue_width
            elif v_sm > cfg.v_high_threshold + widen:
                decision.triggered_sms.append(sm)
                boost = self.actuation.boost_commands(
                    v_sm - cfg.v_nominal, cfg.k2, cfg.k3
                )
                decision.fake_rates[sm] = max(
                    decision.fake_rates[sm], boost.fake_rate
                )
                decision.dcc_powers_w[sm] = max(
                    decision.dcc_powers_w[sm],
                    self.actuation.dac.power_for_code(boost.dcc_code),
                )
        return decision

    def _apply_slew_limit(self, decision: ControlDecision) -> None:
        """Clamp each command within its actuator's per-decision slew.

        Each actuator is limited in its own natural units (issue slots,
        fakes/cycle, watts); saturation of a clamp — the proportional
        law asking for a bigger step than the slew allows — is counted
        per actuator for telemetry.
        """
        cfg = self.config
        previous = self._last_enqueued
        for key, values, prev, slew in (
            ("issue", decision.issue_widths, previous.issue_widths,
             cfg.slew_issue),
            ("fake", decision.fake_rates, previous.fake_rates,
             cfg.slew_fake),
            ("dcc", decision.dcc_powers_w, previous.dcc_powers_w,
             cfg.slew_dcc_w),
        ):
            clamped = np.clip(values, prev - slew, prev + slew)
            if np.any(clamped != values):
                self.slew_saturations[key] += 1
            values[:] = clamped
