"""Voltage-smoothing actuation mechanisms (Section IV-C).

Fig. 5 surveys GPU power-actuation mechanisms by response time; only
three are fast enough (<= tens of cycles) for the low-frequency noise
band the architecture layer must cover:

* **DIWS** — dynamic issue width scaling (reduce SM power);
* **FII** — fake instruction injection (increase SM power);
* **DCC** — dynamic current compensation through a binary-weighted
  current DAC (increase layer current directly, at area/leakage cost).

:class:`WeightedActuation` holds the weighted control input of eq. (9):
the weights ``(w1, w2, w3)`` that split a proportional error across the
three mechanisms, and the hardware each share lands on (the issue width,
the per-instruction power, the DCC DAC).  The law itself — error to
issue width, fakes/cycle and DAC code — runs in the controller bank's
decision wave (``bank_wave`` in ``repro/sim/_cyclec.c``), which reads
the weights, ``issue_width_max`` and the DAC's ``unit_power_w`` and
``max_code``; ``instruction_power_w`` feeds the controller config's
gain check.  The law's per-SM scalar form is the test oracle
``tests/oracles/scalar_controller.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.gpu.isa import ENERGY, InstructionClass

# ---------------------------------------------------------------------------
# Fig. 5: response timescales (cycles at 700 MHz)
# ---------------------------------------------------------------------------
ACTUATION_TIMESCALES: Dict[str, tuple] = {
    # mechanism: (min_cycles, max_cycles, usable_for_smoothing)
    "dcc": (1, 4, True),
    "fii": (1, 8, True),
    "diws": (1, 10, True),
    "thread_migration": (1_000, 100_000, False),
    "power_gating": (1_000, 50_000, False),
    "dfs": (100_000, 10_000_000, False),  # DPLL re-lock ~ms
}


def smoothing_capable() -> Dict[str, tuple]:
    """Mechanisms fast enough for voltage smoothing (the paper's trio)."""
    return {k: v for k, v in ACTUATION_TIMESCALES.items() if v[2]}


@dataclass(frozen=True)
class CurrentCompensationDAC:
    """Binary-weighted current DAC for DCC (Section IV-C).

    ``n_bits`` binary-weighted current sources; code 0..2^n-1 adds
    ``code * unit_power_w`` of dummy load on the target layer within one
    cycle.  Costs die area and leakage whenever deployed.
    """

    n_bits: int = 6
    unit_power_w: float = 0.05  # LSB power Pd0
    area_um2_per_bit: float = 450.0
    leakage_w_per_bit: float = 0.004

    def __post_init__(self) -> None:
        if self.n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if self.unit_power_w <= 0:
            raise ValueError("unit power must be positive")

    @property
    def max_code(self) -> int:
        return 2**self.n_bits - 1

    @property
    def max_power_w(self) -> float:
        return self.max_code * self.unit_power_w

    @property
    def area_um2(self) -> float:
        return self.n_bits * self.area_um2_per_bit

    @property
    def leakage_w(self) -> float:
        return self.n_bits * self.leakage_w_per_bit


@dataclass(frozen=True)
class WeightedActuation:
    """The weighted control input of eq. (9).

    ``w1 + w2 + w3`` need not be 1; each weight scales how much of the
    proportional error its mechanism absorbs.  ``issue_width_max`` is the
    hardware width; ``instruction_power_w`` approximates ``P_dyn,ins``
    (the per-instruction dynamic power at full clock).
    """

    w1: float = 1.0  # DIWS
    w2: float = 0.0  # FII
    w3: float = 0.0  # DCC
    dac: CurrentCompensationDAC = CurrentCompensationDAC()
    issue_width_max: float = 2.0
    instruction_power_w: float = ENERGY[InstructionClass.FALU] * 700e6

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("weights must be non-negative")
        if self.w1 + self.w2 + self.w3 <= 0:
            raise ValueError("at least one weight must be positive")
