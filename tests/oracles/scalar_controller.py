"""The per-SM scalar Algorithm 1, kept as the bit-identity oracle.

``repro.core.controller.VoltageSmoothingController.observe`` steps the
lane's one-lane :class:`~repro.core.controller.ControllerBank`, the only
Algorithm 1 in the library.  This module keeps the path the bank
replaced: one decision loops over the SMs calling the actuation's
scalar ``commands`` / ``boost_commands`` and the DAC's
``power_for_code``, then slew-limits each actuator with its own
``np.clip``.  The bank-equivalence suite and the serial co-sim oracle
run it as their reference.

The method bodies below are the former shipped path verbatim; only
``_decide``'s ``decision`` argument, which served the bank's removed
per-lane fallback, is gone.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import ControlDecision, VoltageSmoothingController


class ScalarController(VoltageSmoothingController):
    """Algorithm 1 one SM at a time: the reference the bank must match."""

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
