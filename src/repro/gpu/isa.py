"""Instruction classes, latencies and energies.

A deliberately small ISA: the voltage-smoothing controller only cares
about *when* instructions issue and *how much power* each one draws, so
instructions are classified by execution unit and energy, not semantics.

Energies are per warp-instruction (32 threads) and calibrated so a
fully-fed dual-issue SM at 700 MHz lands near the 8 W per-SM peak of the
Fermi-class power envelope (Table I / PowerConfig).
"""

from __future__ import annotations

import enum
from typing import Dict


class InstructionClass(enum.Enum):
    """Instruction kinds, keyed by the block that executes them (Fig. 6)."""

    IALU = "ialu"  # integer ALU op on a shader-core block
    FALU = "falu"  # single-precision FP op on a shader-core block
    FMA = "fma"  # fused multiply-add (highest-energy ALU op)
    SFU = "sfu"  # transcendental on the special function units
    LOAD = "load"  # global/local memory read through the LSU
    STORE = "store"  # memory write through the LSU
    BRANCH = "branch"  # control flow (handled by the ALU block)
    FAKE = "fake"  # paper's fake-injected instruction: power, no effect


class ExecUnit(enum.Enum):
    """The four execution blocks of a Fermi SM (two core blocks, SFU, LSU)."""

    ALU = "alu"
    SFU = "sfu"
    LSU = "lsu"


UNIT_FOR_CLASS: Dict[InstructionClass, ExecUnit] = {
    InstructionClass.IALU: ExecUnit.ALU,
    InstructionClass.FALU: ExecUnit.ALU,
    InstructionClass.FMA: ExecUnit.ALU,
    InstructionClass.BRANCH: ExecUnit.ALU,
    InstructionClass.SFU: ExecUnit.SFU,
    InstructionClass.LOAD: ExecUnit.LSU,
    InstructionClass.STORE: ExecUnit.LSU,
    InstructionClass.FAKE: ExecUnit.ALU,
}

# Pipeline latency in cycles from issue to result availability.
LATENCY: Dict[InstructionClass, int] = {
    InstructionClass.IALU: 4,
    InstructionClass.FALU: 4,
    InstructionClass.FMA: 6,
    InstructionClass.SFU: 16,
    InstructionClass.LOAD: 0,  # resolved by the memory system
    InstructionClass.STORE: 1,
    InstructionClass.BRANCH: 2,
    InstructionClass.FAKE: 1,
}

# Dynamic energy per warp-instruction, joules.  At 700 MHz, two
# instructions per cycle at ~4 nJ each plus base activity approaches the
# ~6.8 W per-SM dynamic peak.
ENERGY: Dict[InstructionClass, float] = {
    InstructionClass.IALU: 3.2e-9,
    InstructionClass.FALU: 3.8e-9,
    InstructionClass.FMA: 4.6e-9,
    InstructionClass.SFU: 4.2e-9,
    InstructionClass.LOAD: 3.6e-9,
    InstructionClass.STORE: 3.4e-9,
    InstructionClass.BRANCH: 2.2e-9,
    # Fake instructions are chosen to mimic a mid-weight ALU op.
    InstructionClass.FAKE: 3.8e-9,
}
