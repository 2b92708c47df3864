"""Warped-Gates-style execution-unit power gating.

Implements the strategy the paper evaluates (Section V): idle execution
blocks inside an SM (ALU, SFU, LSU) are power-gated to eliminate their
leakage, using

* **idle-detect** — a unit idle for ``idle_detect_cycles`` is gated;
* **break-even** — gating only pays off if the unit then stays gated
  for ``break_even_cycles`` (the energy cost of the sleep transistors'
  switching); the controller tracks whether each gating event ended up
  net-positive;
* **Blackout** — once gated, a unit is forced to stay gated at least
  ``blackout_cycles`` before waking, preventing thrashing;

and pairs with the gating-aware two-level scheduler (GATES,
``GPU(gating_aware_scheduler=True)``), which steers issue toward
already-on units so idle windows stretch past break-even.

The controller drives one SM through its per-SM surface
(:class:`repro.gpu.engine.SMView`, or the oracle's per-object SM):
``gated_units``, ``unit_idle_cycles``, ``gate_unit``, ``ungate_unit``,
``has_demand`` and ``set_active_units``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.gpu.engine import SMView
from repro.gpu.isa import ExecUnit
from repro.gpu.power import LEAKAGE_SHARE


@dataclass(frozen=True)
class PowerGatingConfig:
    """Warped-Gates constants."""

    idle_detect_cycles: int = 5
    break_even_cycles: int = 14
    blackout_cycles: int = 20
    # Never gate the ALU blocks: they wake too often on GPU kernels
    # (Warped Gates gates integer/FP units selectively; our lumped ALU
    # block aggregates both, so we restrict gating to SFU and LSU unless
    # the caller opts in).
    gateable_units: tuple = (ExecUnit.SFU, ExecUnit.LSU)

    def __post_init__(self) -> None:
        if self.idle_detect_cycles <= 0:
            raise ValueError("idle detect must be positive")
        if self.break_even_cycles <= 0:
            raise ValueError("break even must be positive")
        if self.blackout_cycles < 0:
            raise ValueError("blackout cannot be negative")


@dataclass
class GatingStatistics:
    """Outcome accounting for one SM."""

    gating_events: int = 0
    premature_wakes: int = 0  # woke before break-even
    gated_cycles: Dict[ExecUnit, int] = field(default_factory=dict)

    def gated_cycle_total(self) -> int:
        return sum(self.gated_cycles.values())


class WarpedGatesController:
    """Per-SM gating state machine over the gateable execution units."""

    def __init__(
        self,
        sm: SMView,
        config: PowerGatingConfig = PowerGatingConfig(),
    ) -> None:
        self.sm = sm
        self.config = config
        self.stats = GatingStatistics(
            gated_cycles={unit: 0 for unit in config.gateable_units}
        )
        self._gated_since: Dict[ExecUnit, int] = {}

    def step(self, cycle: int) -> None:
        """One gating decision per cycle, before the SM executes it."""
        cfg = self.config
        for unit in cfg.gateable_units:
            if unit in self.sm.gated_units:
                self.stats.gated_cycles[unit] += 1
                gated_for = cycle - self._gated_since[unit]
                if gated_for < cfg.blackout_cycles:
                    continue  # Blackout: hold the gate
                if self.sm.has_demand(unit):
                    if gated_for < cfg.break_even_cycles:
                        self.stats.premature_wakes += 1
                    self.sm.ungate_unit(unit, cycle)
                    del self._gated_since[unit]
            else:
                if self.sm.unit_idle_cycles[unit] >= cfg.idle_detect_cycles:
                    self.sm.gate_unit(unit)
                    self._gated_since[unit] = cycle
                    self.stats.gating_events += 1
        # GATES steers issue toward the units left on (a no-op under GTO).
        self.sm.set_active_units(
            [u for u in ExecUnit if u not in self.sm.gated_units]
        )

    # ------------------------------------------------------------------
    def leakage_energy_saved_j(
        self, sm_leakage_w: float, clock_hz: float = 700e6
    ) -> float:
        """Leakage energy eliminated by gating, net of wake overheads.

        Each premature wake refunds a break-even window's worth of the
        unit's leakage (the standard break-even accounting).
        """
        if sm_leakage_w <= 0 or clock_hz <= 0:
            raise ValueError("leakage and clock must be positive")
        cycle_s = 1.0 / clock_hz
        saved = 0.0
        for unit, cycles in self.stats.gated_cycles.items():
            saved += sm_leakage_w * LEAKAGE_SHARE[unit] * cycles * cycle_s
        mean_share = sum(
            LEAKAGE_SHARE[u] for u in self.config.gateable_units
        ) / len(self.config.gateable_units)
        penalty = (
            self.stats.premature_wakes
            * self.config.break_even_cycles
            * sm_leakage_w
            * mean_share
            * cycle_s
        )
        return saved - penalty
