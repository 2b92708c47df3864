"""GPUWattch-substitute event power model.

Per-cycle SM power = leakage (gateable per execution unit) + issue base
activity + the energy of every instruction issued this cycle times the
clock frequency.  Frequency scaling reduces dynamic power linearly (the
paper's DFS masks clocks rather than scaling voltage, so power is
proportional to f, not f^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.config import GPUConfig, PowerConfig
from repro.gpu.isa import ExecUnit

# Share of SM leakage attributable to each gateable execution block;
# the rest (register file, fetch, L1) is ungateable.
LEAKAGE_SHARE = {
    ExecUnit.ALU: 0.30,
    ExecUnit.SFU: 0.10,
    ExecUnit.LSU: 0.15,
}
UNGATEABLE_LEAKAGE_SHARE = 1.0 - sum(LEAKAGE_SHARE.values())

# Dynamic energy per cycle for clocking/fetch even with no issue (J).
IDLE_DYNAMIC_ENERGY = 0.6e-9


@dataclass
class SMPowerModel:
    """Per-SM leakage and power envelope.

    The engine's step evaluates each cycle's power as
    ``leakage_w(gated) + (IDLE_DYNAMIC_ENERGY + issued energy) * f``,
    with ``f`` the SM clock times its DFS scale.
    """

    gpu: GPUConfig = GPUConfig()
    power: PowerConfig = PowerConfig()

    def leakage_w(self, gated_units: Iterable[ExecUnit] = ()) -> float:
        """Static power with the given execution units power-gated."""
        total = self.power.sm_leakage_power_w
        gated = sum(LEAKAGE_SHARE[u] for u in set(gated_units))
        return total * (1.0 - gated)

    @property
    def peak_power_w(self) -> float:
        """Sanity anchor: dual-issue of the hottest ops at full clock."""
        from repro.gpu.isa import ENERGY, InstructionClass

        hottest = max(ENERGY.values())
        return (
            self.leakage_w()
            + (IDLE_DYNAMIC_ENERGY + 2 * hottest) * self.gpu.sm_clock_hz
        )
