"""The prior-art global throttle's per-cycle Python body, kept as the
oracle of the controller bank's throttle law.

``repro.core.prior_art.GlobalThrottleController`` is a lane of the
controller bank, whose C wave and pop run its law.  This module keeps
the duck-typed class that law replaced — ``observe`` / ``commands_for``
/ ``throttled_cycles`` — byte for byte, so ``tests/core/test_prior_art.py``
and the serial co-sim oracle (``tests/oracles/serial_cosim.py``) can
hold the bank against it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import StackConfig
from repro.core.controller import ControlDecision


class GlobalThrottleReference:
    """Conventional detection-throttle, applied chip-wide.

    When *any* SM droops below the threshold, every SM's issue width is
    throttled to ``throttle_width`` for ``hold_cycles``.
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
        if hold_cycles < 1:
            raise ValueError("hold_cycles must be at least 1")
        if latency_cycles < 0:
            raise ValueError("latency_cycles cannot be negative")
        self.stack = stack
        self.v_threshold = v_threshold
        self.throttle_width = throttle_width
        self.hold_cycles = hold_cycles
        self.latency_cycles = latency_cycles
        self._throttle_until = -1
        self._pending_trigger: Optional[int] = None
        self.throttled_cycles = 0
        self.triggers = 0
        self.decisions_made = 0

    @classmethod
    def of(cls, controller) -> "GlobalThrottleReference":
        """A fresh reference with ``controller``'s settings."""
        return cls(
            controller.stack, controller.v_threshold,
            controller.throttle_width, controller.hold_cycles,
            controller.latency_cycles,
        )

    def observe(self, cycle: int, sm_voltages: np.ndarray) -> None:
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        if sm_voltages.shape != (self.stack.num_sms,):
            raise ValueError(
                f"expected {self.stack.num_sms} SM voltages"
            )
        self.decisions_made += 1
        if self._pending_trigger is None and float(sm_voltages.min()) < self.v_threshold:
            self._pending_trigger = cycle + self.latency_cycles
            self.triggers += 1

    def commands_for(self, cycle: int) -> ControlDecision:
        if self._pending_trigger is not None and cycle >= self._pending_trigger:
            self._throttle_until = cycle + self.hold_cycles
            self._pending_trigger = None
        n = self.stack.num_sms
        throttling = cycle < self._throttle_until
        if throttling:
            self.throttled_cycles += 1
        width = self.throttle_width if throttling else 2.0
        return ControlDecision(
            issue_widths=np.full(n, width),
            fake_rates=np.zeros(n),
            dcc_powers_w=np.zeros(n),
            triggered_sms=list(range(n)) if throttling else [],
        )

    @property
    def throttle_fraction(self) -> float:
        if self.decisions_made == 0:
            return 0.0
        return self.triggers / self.decisions_made
