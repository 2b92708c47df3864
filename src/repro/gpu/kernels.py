"""Kernel descriptions -> per-warp instruction streams.

A :class:`KernelSpec` describes a GPU kernel statistically — instruction
mix, memory intensity, dependence density, warp count, body length —
and :func:`stream_arrays` expands it into concrete per-warp instruction
streams with register dependencies, as ``(warps, body)`` column arrays
for the GPU engine.  All randomness flows through an explicit seed so
every simulation is reproducible.

The specs are how the twelve paper benchmarks are realized (see
``repro.workloads.benchmarks``): each benchmark is a KernelSpec tuned to
its published character (memory-bound BFS, SFU-heavy blackscholes,
phase-structured backprop, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

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


def _draw_stream_fields(
    spec: KernelSpec, rng: np.random.Generator, count: int, length: int
):
    """The random draws behind ``count`` instruction streams.

    Shared by the struct-of-arrays builder (:func:`stream_arrays`, one
    row per warp) and the per-object stream builder of the GPU oracle
    (``tests/oracles/per_object_gpu.py``, one row) so both consume the
    generator identically — the draws, not the container, define the
    workload.  Each stream makes its own
    five generator calls, in order, into its row of the ``(count,
    length)`` blocks; calls are never merged across streams, because
    ``integers`` draws 32-bit halves and an odd ``length`` leaves one
    buffered for the next call.  The class lookup then runs once on the
    whole block.  Returns ``(classes, op_indices, use_chain,
    random_src1, add_src2, random_src2)``.
    """
    classes = list(spec.mix.keys())
    weights = np.array([spec.mix[c] for c in classes], dtype=float)
    base_probs = weights / weights.sum()

    # Per-position class probabilities (two alternating phase profiles).
    positions = np.arange(length)
    if spec.phase_period > 0 and spec.phase_memory_boost > 0:
        boosted = np.array(
            [
                spec.mix[c]
                + (spec.phase_memory_boost if c is InstructionClass.LOAD else 0.0)
                for c in classes
            ]
        )
        boosted = boosted / boosted.sum()
        in_memory_phase = (positions // spec.phase_period) % 2 == 1
    else:
        boosted = base_probs
        in_memory_phase = np.zeros(length, dtype=bool)

    uniform = np.empty((count, length))
    chain_draw = np.empty((count, length))
    src2_draw = np.empty((count, length))
    random_src1 = np.empty((count, length), dtype=np.int64)
    random_src2 = np.empty((count, length), dtype=np.int64)
    for row in range(count):
        rng.random(out=uniform[row])
        rng.random(out=chain_draw[row])
        random_src1[row] = rng.integers(0, _NUM_REGS, size=length)
        rng.random(out=src2_draw[row])
        random_src2[row] = rng.integers(0, _NUM_REGS, size=length)

    cum_base = np.cumsum(base_probs)
    cum_boost = np.cumsum(boosted)
    idx_base = np.searchsorted(cum_base, uniform, side="right")
    idx_boost = np.searchsorted(cum_boost, uniform, side="right")
    op_indices = np.where(in_memory_phase, idx_boost, idx_base)
    op_indices = np.clip(op_indices, 0, len(classes) - 1)

    use_chain = chain_draw < spec.dependence
    add_src2 = src2_draw < 0.5
    return classes, op_indices, use_chain, random_src1, add_src2, random_src2


def _spec_cache_key(spec: KernelSpec, seed: int, count: int) -> tuple:
    # The mix in insertion order: the draws map uniforms to classes in
    # that order, so two orders of one mix are different streams.
    return (
        spec.name,
        tuple((c.value, w) for c, w in spec.mix.items()),
        spec.dependence,
        spec.body_length,
        spec.phase_period,
        spec.phase_memory_boost,
        seed,
        count,
    )


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
    - ``latency`` / ``energy``: pipeline latency and dynamic energy
    - ``span`` / ``share``: energy-smear window and per-slot share
      (``span = clip(latency, 1, 6)``, ``share = energy / span``)
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
    energy: np.ndarray
    span: np.ndarray
    share: np.ndarray
    is_load: np.ndarray
    dest: np.ndarray  # register id, -1 for none (STORE/BRANCH)
    dest_col: np.ndarray
    src1_col: np.ndarray
    src2_col: np.ndarray


def _stream_block(spec: KernelSpec, seed: int, count: int) -> dict:
    """``count`` warps' streams as ``(count, body)`` column arrays.

    Draws through :func:`_draw_stream_fields`, then does the array work
    once for the whole block; the sequential dest/chain recurrence of
    the oracle's per-instruction builder becomes a running maximum over
    writer positions along the body axis.
    """
    length = spec.body_length
    classes, op_indices, use_chain, random_src1, add_src2, random_src2 = (
        _draw_stream_fields(spec, np.random.default_rng(seed), count, length)
    )
    lat_lut = np.array([LATENCY[c] for c in classes], dtype=np.int64)
    energy_lut = np.array([ENERGY[c] for c in classes], dtype=float)
    unit_lut = np.array(
        [_UNIT_INDEX[UNIT_FOR_CLASS[c]] for c in classes], dtype=np.int64
    )
    has_dest_lut = np.array(
        [
            c is not InstructionClass.STORE and c is not InstructionClass.BRANCH
            for c in classes
        ],
        dtype=bool,
    )
    is_load_lut = np.array(
        [c is InstructionClass.LOAD for c in classes], dtype=bool
    )

    positions = np.arange(length, dtype=np.int64)
    has_dest = has_dest_lut[op_indices]
    dest = np.where(has_dest, positions % _NUM_REGS, -1)

    # src1 chains to the most recent written register strictly before the
    # current position (the oracle builder's running ``last_dest``).
    writer_pos = np.where(has_dest, positions, -1)
    last_writer = np.empty((count, length), dtype=np.int64)
    last_writer[:, 0] = -1
    np.maximum.accumulate(writer_pos[:, :-1], axis=1, out=last_writer[:, 1:])
    src1 = np.where(
        use_chain & (last_writer >= 0), last_writer % _NUM_REGS, random_src1
    )

    latency = lat_lut[op_indices]
    energy = energy_lut[op_indices]
    span = np.clip(latency, 1, _SMEAR_LIMIT)
    return {
        "unit": unit_lut[op_indices],
        "latency": latency,
        "energy": energy,
        "span": span,
        "share": energy / span,
        "is_load": is_load_lut[op_indices],
        "dest": dest,
        "dest_col": np.where(has_dest, dest, _NUM_REGS),
        "src1_col": src1,
        "src2_col": np.where(add_src2, random_src2, _NUM_REGS),
    }


# Cache of generated base streams: under SPMD all 16 SMs request the
# same (spec, seed) streams, so generation runs once per GPU, not per SM.
_ARRAY_CACHE: dict = {}
_STREAM_CACHE_LIMIT = 64


def stream_arrays(spec: KernelSpec, seed: int, count: int) -> StreamArrays:
    """The kernel's base streams for one SM in struct-of-arrays form.

    Cached per (spec, seed, count): all SMs share the streams under
    SPMD.  The arrays describe exactly the instructions the GPU oracle's
    ``build_warps`` materializes as objects from the same seed.
    """
    key = _spec_cache_key(spec, seed, count)
    cached = _ARRAY_CACHE.get(key)
    if cached is None:
        cached = StreamArrays(
            num_warps=count,
            body_length=spec.body_length,
            **_stream_block(spec, seed, count),
        )
        if len(_ARRAY_CACHE) >= _STREAM_CACHE_LIMIT:
            _ARRAY_CACHE.clear()
        _ARRAY_CACHE[key] = cached
    return cached


def jittered_lengths(
    spec: KernelSpec,
    count: int,
    jitter: float,
    jitter_seed: Optional[int],
    seed: int,
) -> np.ndarray:
    """Per-warp stream lengths, with jitter modelling tail imbalance.

    ``jitter`` in [0, 1) scales each warp's stream length by a uniform
    draw in ``1 ± jitter`` from ``jitter_seed`` (unique per SM), so SMs
    diverge only in workload tails, not code.  One vector draw yields
    the same values as the GPU oracle's ``count`` scalar draws;
    ``np.rint`` rounds half to even as ``round`` does.  Lengths beyond
    ``body_length`` mean the stream wraps around to its own head.
    """
    if jitter < 0 or jitter >= 1:
        raise ValueError(f"jitter must be in [0,1), got {jitter}")
    if jitter == 0:
        return np.full(count, spec.body_length, dtype=np.int64)
    jitter_rng = np.random.default_rng(seed if jitter_seed is None else jitter_seed)
    scale = 1.0 + jitter * jitter_rng.uniform(-1.0, 1.0, size=count)
    return np.maximum(1, np.rint(spec.body_length * scale)).astype(np.int64)
