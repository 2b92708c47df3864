"""Level-shifted voltage-domain-crossing interfaces (Section III-A).

SMs in different stack layers live in disjoint voltage ranges, so every
signal crossing between an SM and the (separately stacked) L2/memory
interface needs a level shifter.  The paper:

* notes SMs never talk to each other directly — crossings exist only at
  the L2 / memory-controller ports;
* cites a characterization bounding the shifter overhead below 6 % of
  the memory/cache transistor count;
* picks the *switched-capacitor* topology, shown to work at 1 GHz
  signal rates with the best energy-delay trade-off among the
  candidates.

This module models the candidate topologies' energy/delay/area and
aggregates the interface overhead for a full chip.  The PDE accounting
does not read it: its "other loss" term charges a flat
``PDNParameters.level_shifter_overhead`` (1 % of the load) in
:func:`repro.pdn.efficiency.pde_voltage_stacked`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import StackConfig


@dataclass(frozen=True)
class LevelShifterSpec:
    """One candidate level-shifter circuit topology."""

    name: str
    energy_per_transition_j: float
    delay_ps: float
    area_um2: float
    max_signal_rate_hz: float

    def __post_init__(self) -> None:
        if min(
            self.energy_per_transition_j,
            self.delay_ps,
            self.area_um2,
            self.max_signal_rate_hz,
        ) <= 0:
            raise ValueError(f"{self.name}: all figures must be positive")

    @property
    def energy_delay_product(self) -> float:
        return self.energy_per_transition_j * self.delay_ps * 1e-12

    def supports_rate(self, signal_rate_hz: float) -> bool:
        return signal_rate_hz <= self.max_signal_rate_hz


# Candidate topologies from the cited ISCAS'17 evaluation, normalized
# to 40 nm-class figures.
LEVEL_SHIFTER_OPTIONS: Dict[str, LevelShifterSpec] = {
    # Conventional cross-coupled shifters cannot span non-adjacent
    # stacked domains and burn static current when they try.
    "cross_coupled": LevelShifterSpec(
        name="cross-coupled",
        energy_per_transition_j=45e-15,
        delay_ps=180.0,
        area_um2=4.0,
        max_signal_rate_hz=0.4e9,
    ),
    "capacitive_coupled": LevelShifterSpec(
        name="capacitive-coupled",
        energy_per_transition_j=22e-15,
        delay_ps=120.0,
        area_um2=6.5,
        max_signal_rate_hz=0.8e9,
    ),
    # The paper's choice: works at 1 GHz with the best energy-delay.
    "switched_capacitor": LevelShifterSpec(
        name="switched-capacitor",
        energy_per_transition_j=15e-15,
        delay_ps=95.0,
        area_um2=5.2,
        max_signal_rate_hz=1.0e9,
    ),
}


@dataclass(frozen=True)
class InterfaceOverhead:
    """Chip-level cost of all domain-crossing interfaces."""

    shifter: LevelShifterSpec
    num_crossings: int
    signal_rate_hz: float
    activity: float  # fraction of cycles each crossing toggles

    def __post_init__(self) -> None:
        if self.num_crossings <= 0:
            raise ValueError("need at least one crossing")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError("activity must be in [0,1]")
        if not self.shifter.supports_rate(self.signal_rate_hz):
            raise ValueError(
                f"{self.shifter.name} cannot run at "
                f"{self.signal_rate_hz / 1e9:.2f} GHz"
            )

    @property
    def power_w(self) -> float:
        return (
            self.num_crossings
            * self.activity
            * self.signal_rate_hz
            * self.shifter.energy_per_transition_j
        )

    @property
    def area_mm2(self) -> float:
        return self.num_crossings * self.shifter.area_um2 * 1e-6


def chip_interface_overhead(
    stack: StackConfig = StackConfig(),
    bus_width_bits: int = 256,
    signal_rate_hz: float = 1.0e9,
    activity: float = 0.25,
    shifter_key: str = "switched_capacitor",
) -> InterfaceOverhead:
    """Aggregate level-shifter cost for the whole stacked GPU.

    Each SM's L2 port is a ``bus_width_bits``-wide crossing; only SMs
    outside the L2's own domain need shifting (the L2 stack is
    partitioned separately, so we conservatively shift every SM port).
    """
    shifter = LEVEL_SHIFTER_OPTIONS[shifter_key]
    crossings = stack.num_sms * bus_width_bits
    return InterfaceOverhead(
        shifter=shifter,
        num_crossings=crossings,
        signal_rate_hz=signal_rate_hz,
        activity=activity,
    )


def best_topology_for_rate(signal_rate_hz: float) -> LevelShifterSpec:
    """Lowest energy-delay topology supporting the given signal rate.

    Reproduces the paper's selection: at 1 GHz only the
    switched-capacitor topology qualifies, and it also has the best
    energy-delay product.
    """
    candidates = [
        s for s in LEVEL_SHIFTER_OPTIONS.values()
        if s.supports_rate(signal_rate_hz)
    ]
    if not candidates:
        raise ValueError(
            f"no topology supports {signal_rate_hz / 1e9:.2f} GHz"
        )
    return min(candidates, key=lambda s: s.energy_delay_product)
