"""Prior-art supply-noise mitigation baselines (Section II-C).

The paper surveys three families of conventional (single-layer)
mitigation schemes and argues none transfers to voltage stacking:

* **checkpoint-recovery** — let emergencies happen, detect, roll back
  and re-execute.  Fine for rare events; the sustained imbalance noise
  of a VS system makes emergencies frequent and the rollback cost
  explodes (:class:`CheckpointRecoveryModel` quantifies this);
* **detection-throttle** — sense a droop and throttle processor
  activity.  Conventional throttling is *global* (all cores slow
  equally), which in a stack scales balance and imbalance by the same
  factor: the droop shrinks only in proportion to the throttle depth
  and can never be closed, so the guardband stays violated
  (:class:`GlobalThrottleController` demonstrates this when swapped in
  for Algorithm 1 in the co-simulator);
* compiler/runtime code reshaping — out of scope here (needs real
  code streams), discussed in DESIGN.md.

Both baselines exist to be compared against the cross-layer controller
in the ablation benchmark (`benchmarks/test_ablation_prior_art.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import StackConfig
from repro.core.controller import (
    _NP, _NQ, _P_IWMAX, _P_SAFE_W, _P_THR, _Q_HOLD, _Q_LATENCY, _Q_LAW,
    _Q_PERIOD, _Q_WINDOW, LAW_THROTTLE, BankLane, LaneRow,
)


@dataclass(frozen=True)
class CheckpointRecoveryModel:
    """Cost model of checkpoint/rollback noise tolerance.

    An *emergency* is any cycle in which some SM's supply leaves the
    guardband.  Each emergency rolls the machine back
    ``rollback_cycles`` (restore + re-execute) and consecutive
    emergencies within one rollback window collapse into one event.
    """

    emergency_threshold_v: float = 0.8
    rollback_cycles: int = 1000
    checkpoint_overhead: float = 0.02  # steady-state logging cost

    def __post_init__(self) -> None:
        if self.rollback_cycles <= 0:
            raise ValueError("rollback cost must be positive")
        if not 0 <= self.checkpoint_overhead < 1:
            raise ValueError("overhead must be in [0,1)")

    def count_emergencies(self, sm_voltages: np.ndarray) -> int:
        """Distinct emergency events in a (cycles, sms) voltage record."""
        sm_voltages = np.atleast_2d(np.asarray(sm_voltages, dtype=float))
        emergency_cycles = np.flatnonzero(
            (sm_voltages < self.emergency_threshold_v).any(axis=1)
        )
        if emergency_cycles.size == 0:
            return 0
        events = 1
        last = emergency_cycles[0]
        for cycle in emergency_cycles[1:]:
            if cycle - last >= self.rollback_cycles:
                events += 1
                last = cycle
        return events

    def effective_slowdown(self, sm_voltages: np.ndarray) -> float:
        """Execution-time inflation factor from rollbacks + logging.

        1.0 means no cost; 2.0 means the program takes twice as long.
        """
        sm_voltages = np.atleast_2d(np.asarray(sm_voltages, dtype=float))
        cycles = sm_voltages.shape[0]
        events = self.count_emergencies(sm_voltages)
        wasted = events * self.rollback_cycles
        return (1.0 + self.checkpoint_overhead) * (1.0 + wasted / cycles)


class GlobalThrottleController(BankLane):
    """Conventional detection-throttle, applied chip-wide.

    A lane of the controller bank under its second law: every observed
    cycle counts a decision, and when *any* SM reads below
    ``v_threshold`` (a NaN sample blocks it) and no trigger is pending,
    a trigger is queued ``latency_cycles`` ahead.  The read that pops it
    starts a hold of ``hold_cycles`` from that read cycle, and every SM's
    issue width is ``throttle_width`` while a read falls inside the
    hold, each such read counting a throttled cycle.  This is what a
    single-layer scheme would do — and in a voltage stack it cannot meet
    the guardband, because scaling all layer currents together shrinks
    the *imbalance* (the actual noise source) only by the same
    proportion it costs in performance.

    Pass one as ``CosimConfig.controller_object`` to swap it in for
    Algorithm 1; the per-cycle Python reference it equals is
    ``tests/oracles/global_throttle.py``.
    """

    def __init__(
        self,
        stack: StackConfig = StackConfig(),
        v_threshold: float = 0.9,
        throttle_width: float = 1.0,
        hold_cycles: int = 100,
        latency_cycles: int = 60,
    ) -> None:
        if not 0 < v_threshold <= 1.2:
            raise ValueError("bad threshold")
        if not 0 <= throttle_width <= 2.0:
            raise ValueError("bad throttle width")
        # A hold under one cycle never throttles, and a negative latency
        # would arm a trigger that is already due.
        if hold_cycles < 1:
            raise ValueError("hold_cycles must be at least 1")
        if latency_cycles < 0:
            raise ValueError("latency_cycles cannot be negative")
        self.stack = stack
        self.v_threshold = v_threshold
        self.throttle_width = throttle_width
        self.hold_cycles = hold_cycles
        self.latency_cycles = latency_cycles
        self._join_own_bank()

    def _lane_row(self) -> LaneRow:
        # It decides every observed cycle, releases to the full issue
        # width and throttles to throttle_width (the safe-width column).
        params = [0.0] * _NP
        params[_P_THR] = self.v_threshold
        params[_P_IWMAX] = 2.0
        params[_P_SAFE_W] = self.throttle_width
        iparams = [0] * _NQ
        iparams[_Q_PERIOD] = iparams[_Q_WINDOW] = 1
        iparams[_Q_LATENCY] = self.latency_cycles
        iparams[_Q_LAW] = LAW_THROTTLE
        iparams[_Q_HOLD] = self.hold_cycles
        return LaneRow(tuple(params), tuple(iparams))
