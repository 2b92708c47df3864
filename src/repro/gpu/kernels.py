"""Kernel descriptions -> per-warp instruction streams.

A :class:`KernelSpec` describes a GPU kernel statistically — instruction
mix, memory intensity, dependence density, warp count, body length —
and each kernel launch of the GPU engine expands it into concrete
per-warp instruction streams with register dependencies, as
``(warps, body)`` column arrays (:class:`StreamArrays`), in compiled
code from the spec's per-class tables (:func:`class_tables`).  All
randomness flows through an explicit seed so every simulation is
reproducible.

The specs are how the twelve paper benchmarks are realized (see
``repro.workloads.benchmarks``): each benchmark is a KernelSpec tuned to
its published character (memory-bound BFS, SFU-heavy blackscholes,
phase-structured backprop, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.gpu.isa import (
    ENERGY,
    LATENCY,
    UNIT_FOR_CLASS,
    ExecUnit,
    InstructionClass,
)

# Register file window each warp cycles through; small enough to create
# realistic read-after-write dependence chains.
_NUM_REGS = 16


@dataclass(frozen=True)
class KernelSpec:
    """Statistical description of a kernel's instruction stream.

    ``mix`` maps instruction classes to relative frequencies (normalized
    internally).  ``dependence`` in [0, 1] sets how often an instruction
    reads the most recently written register (longer RAW chains -> lower
    issue rate).  ``warps_per_sm`` and ``body_length`` set occupancy and
    stream length; ``phase_period``/``phase_memory_boost`` overlay a
    coarse compute/memory phase structure (cycles of alternating
    behaviour, the source of low-frequency power swing).
    """

    name: str
    mix: Dict[InstructionClass, float] = field(
        default_factory=lambda: {
            InstructionClass.FALU: 0.5,
            InstructionClass.IALU: 0.3,
            InstructionClass.LOAD: 0.15,
            InstructionClass.STORE: 0.05,
        }
    )
    dependence: float = 0.35
    warps_per_sm: int = 12
    body_length: int = 4000
    phase_period: int = 0  # instructions per phase; 0 disables phases
    phase_memory_boost: float = 0.0  # extra LOAD weight in memory phases

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError(f"kernel {self.name!r} has an empty mix")
        if any(w < 0 for w in self.mix.values()):
            raise ValueError(f"kernel {self.name!r} has negative mix weights")
        if sum(self.mix.values()) <= 0:
            raise ValueError(f"kernel {self.name!r} mix sums to zero")
        if not 0.0 <= self.dependence <= 1.0:
            raise ValueError(f"dependence must be in [0,1], got {self.dependence}")
        if self.warps_per_sm <= 0:
            raise ValueError(f"warps_per_sm must be positive")
        if self.body_length <= 0:
            raise ValueError(f"body_length must be positive")


# --------------------------------------------------------------------------
# Struct-of-arrays stream representation (the GPU engine's)
# --------------------------------------------------------------------------

#: Fixed execution-unit ordering used by all ``(…, 3)`` engine arrays.
UNIT_ORDER = (ExecUnit.ALU, ExecUnit.SFU, ExecUnit.LSU)
_UNIT_INDEX = {unit: idx for idx, unit in enumerate(UNIT_ORDER)}

# An instruction's dynamic energy is drawn over this many cycles of
# pipeline occupancy (bounded by its latency), which sets the spectral
# content of the SM's power trace as seen by the PDN.  The arrays bake
# span/share in so the engine's hot loop only adds.
_SMEAR_LIMIT = 6


@dataclass(frozen=True)
class StreamArrays:
    """One SM's base instruction streams as ``(num_warps, body)`` arrays.

    Column layout per (warp, position):

    - ``unit``: execution-unit index into :data:`UNIT_ORDER`
    - ``latency``: pipeline latency
    - ``span`` / ``share``: energy-smear window and per-slot share of
      the dynamic energy (``span = clip(latency, 1, 6)``,
      ``share = energy / span``)
    - ``is_load``: LOAD-class lanes (resolved by the memory system)
    - ``dest_col``: scoreboard column of the written register
      (register id, or the dummy column 16 for dest-less instructions)
    - ``src1_col`` / ``src2_col``: scoreboard columns of the read
      registers (column 16 when the second source is absent)

    The dummy column lets readiness be computed as one fancy-indexed
    ``max`` over a ``(…, 17)`` ready-at table with no masking.
    """

    num_warps: int
    body_length: int
    unit: np.ndarray
    latency: np.ndarray
    span: np.ndarray
    share: np.ndarray
    is_load: np.ndarray
    dest: np.ndarray  # register id, -1 for none (STORE/BRANCH)
    dest_col: np.ndarray
    src1_col: np.ndarray
    src2_col: np.ndarray

    @classmethod
    def allocate(cls, num_warps: int, body_length: int) -> "StreamArrays":
        """Zeroed C-contiguous columns, for a launch to fill in place."""
        shape = (num_warps, body_length)
        columns = {
            name: np.zeros(shape, dtype=np.int64)
            for name in ("unit", "latency", "span", "dest", "dest_col",
                         "src1_col", "src2_col")
        }
        return cls(
            num_warps, body_length, share=np.zeros(shape),
            is_load=np.zeros(shape, dtype=bool), **columns,
        )


def class_tables(spec: KernelSpec) -> Dict[str, np.ndarray]:
    """The per-class tables a launch draws the spec's streams from.

    Classes are in the mix's insertion order: a stream maps each uniform
    draw to the first class whose cumulative probability exceeds it, so
    the same mix in another order is another stream.  ``cum_base`` holds
    the cumulative probabilities and ``cum_boost`` those of the memory
    phases (LOAD weighted up by ``phase_memory_boost`` on the odd
    phases of ``phase_period`` instructions; without a positive period
    and boost the same as ``cum_base``, so odd phases change nothing);
    then each class's latency, smear span
    and per-slot energy share (the :class:`StreamArrays` columns),
    execution unit, whether it writes a register and whether it loads.
    """
    classes = list(spec.mix.keys())
    weights = np.array([spec.mix[c] for c in classes], dtype=float)
    base_probs = weights / weights.sum()
    if spec.phase_period > 0 and spec.phase_memory_boost > 0:
        boosted = np.array(
            [
                spec.mix[c]
                + (spec.phase_memory_boost if c is InstructionClass.LOAD else 0.0)
                for c in classes
            ]
        )
        boosted = boosted / boosted.sum()
    else:
        boosted = base_probs
    latency = np.array([LATENCY[c] for c in classes], dtype=np.int64)
    span = np.clip(latency, 1, _SMEAR_LIMIT)
    return {
        "cum_base": np.cumsum(base_probs),
        "cum_boost": np.cumsum(boosted),
        "latency": latency,
        "span": span,
        "share": np.array([ENERGY[c] for c in classes], dtype=float) / span,
        "unit": np.array(
            [_UNIT_INDEX[UNIT_FOR_CLASS[c]] for c in classes], dtype=np.int64
        ),
        "has_dest": np.array(
            [
                c is not InstructionClass.STORE
                and c is not InstructionClass.BRANCH
                for c in classes
            ],
            dtype=bool,
        ),
        "is_load": np.array(
            [c is InstructionClass.LOAD for c in classes], dtype=bool
        ),
    }
