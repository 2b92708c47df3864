"""L2-cache voltage stacking (Section III-A's second power grid).

The paper partitions the L2 cache and its SM interfaces into four
stacked layers on a power grid *separate* from the SM grid, following
the SRAM-stacking strategy it cites.  SRAM stacking is the easy case:
cache power is leakage-dominated and accesses interleave across banks,
so layer currents are naturally balanced and a small equalizer
suffices.  The SM grid is the hard case the paper focuses on ("our
study focuses on the SM grid since its peak and average power account
for 80 % and 93 % of the whole GPU").

This module models the L2 stack at that level of need: per-layer bank
groups with leakage plus access-proportional dynamic power, the
resulting layer imbalance, and the (small) equalizer sizing — enough to
verify the paper's premise that the L2 grid is not the bottleneck.  The
PDE accounting does not read it: the SM-grid PDE of
:mod:`repro.pdn.efficiency` charges its "other loss" as the CR-IVR
quiescent power, a flat ``PDNParameters.level_shifter_overhead`` and
the controller's power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class L2StackConfig:
    """The stacked L2: four layers of bank groups."""

    num_layers: int = 4
    banks_per_layer: int = 8
    bank_leakage_w: float = 0.08
    energy_per_access_j: float = 1.1e-9
    clock_hz: float = 700e6

    def __post_init__(self) -> None:
        if self.num_layers < 2 or self.banks_per_layer < 1:
            raise ValueError("need >=2 layers and >=1 bank per layer")
        if min(self.bank_leakage_w, self.energy_per_access_j, self.clock_hz) <= 0:
            raise ValueError("power figures must be positive")

    @property
    def layer_leakage_w(self) -> float:
        return self.banks_per_layer * self.bank_leakage_w

    def layer_powers_w(self, accesses_per_cycle: Sequence[float]) -> np.ndarray:
        """Per-layer power for a per-layer access-rate vector."""
        rates = np.asarray(accesses_per_cycle, dtype=float)
        if rates.shape != (self.num_layers,):
            raise ValueError(f"expected {self.num_layers} access rates")
        if np.any(rates < 0):
            raise ValueError("access rates cannot be negative")
        dynamic = rates * self.energy_per_access_j * self.clock_hz
        return self.layer_leakage_w + dynamic

    def imbalance_fraction(
        self, accesses_per_cycle: Sequence[float]
    ) -> float:
        """Share of L2 power the equalizer must shuffle between layers."""
        layers = self.layer_powers_w(accesses_per_cycle)
        total = float(layers.sum())
        excess = float(np.clip(layers - layers.mean(), 0.0, None).sum())
        return excess / total

    def equalizer_conductance_s(
        self,
        worst_access_skew: float = 1.0,
        guardband_v: float = 0.2,
        layer_voltage_v: float = 1.0,
    ) -> float:
        """Equalizer sizing for the worst bank-access skew.

        ``worst_access_skew`` is the worst sustained per-layer access
        rate difference (accesses/cycle).  Because address interleaving
        spreads accesses across bank groups, realistic skews are a
        fraction of one access/cycle — which is why the L2 stack's
        regulator is tiny compared to the SM grid's CR-IVR.
        """
        if worst_access_skew < 0:
            raise ValueError("skew cannot be negative")
        if guardband_v <= 0 or layer_voltage_v <= 0:
            raise ValueError("voltages must be positive")
        worst_current = (
            worst_access_skew * self.energy_per_access_j * self.clock_hz
        ) / layer_voltage_v
        return worst_current / guardband_v


def interleaved_access_rates(
    total_accesses_per_cycle: float,
    num_layers: int = 4,
    skew: float = 0.05,
) -> np.ndarray:
    """Per-layer access rates under address interleaving.

    Interleaving spreads traffic nearly evenly; ``skew`` is the residual
    fractional deviation of the most/least loaded layers.
    """
    if total_accesses_per_cycle < 0:
        raise ValueError("access rate cannot be negative")
    if not 0 <= skew < 1:
        raise ValueError("skew must be in [0,1)")
    base = total_accesses_per_cycle / num_layers
    rates = np.full(num_layers, base)
    rates[0] *= 1 + skew
    rates[-1] *= 1 - skew
    return rates
