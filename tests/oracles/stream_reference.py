"""The per-warp kernel-launch builders, kept as the stream oracle.

A GPU engine launch is one call into the native library
(``engine_launch`` in ``repro/gpu/_enginec.c``): it draws every warp's
stream and every SM's jittered lengths through NumPy's Generator
routines, hashes the site miss table and resets the warps.  This module
keeps the Python builders it must equal: the draws as one stream per
call, ``_stream_fields_to_arrays`` stacked warp by warp, one scalar
jitter draw per warp, and one hashed row per warp.  The per-object GPU
oracle (``per_object_gpu.py``) builds its instruction objects from the
same draws (:func:`_draw_stream_fields`).  The function bodies are the
former shipped code; ``site_miss_table`` takes the memory system as an
argument instead of ``self``, and the stream arrays leave out the
per-instruction energy, which the engine bakes into ``share``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.gpu.isa import ENERGY, LATENCY, UNIT_FOR_CLASS, InstructionClass
from repro.gpu.kernels import (
    _NUM_REGS,
    _SMEAR_LIMIT,
    _UNIT_INDEX,
    KernelSpec,
    StreamArrays,
)
from repro.gpu.memory import MemorySystem


def _draw_stream_fields(spec: KernelSpec, rng: np.random.Generator, length: int):
    """The random draws behind one instruction stream, vectorized.

    Shared by the per-object stream builder
    (``per_object_gpu._sample_stream``) and the struct-of-arrays builder
    (:func:`stream_arrays`) so both consume the generator identically —
    the draws, not the container, define the workload.  Returns
    ``(classes, op_indices, use_chain, random_src1, add_src2,
    random_src2)``.
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

    uniform = rng.random(length)
    cum_base = np.cumsum(base_probs)
    cum_boost = np.cumsum(boosted)
    idx_base = np.searchsorted(cum_base, uniform, side="right")
    idx_boost = np.searchsorted(cum_boost, uniform, side="right")
    op_indices = np.where(in_memory_phase, idx_boost, idx_base)
    op_indices = np.clip(op_indices, 0, len(classes) - 1)

    use_chain = rng.random(length) < spec.dependence
    random_src1 = rng.integers(0, _NUM_REGS, size=length)
    add_src2 = rng.random(length) < 0.5
    random_src2 = rng.integers(0, _NUM_REGS, size=length)
    return classes, op_indices, use_chain, random_src1, add_src2, random_src2


def _stream_fields_to_arrays(
    spec: KernelSpec, rng: np.random.Generator, length: int
) -> dict:
    """One warp's stream directly as column arrays.

    Consumes the generator exactly like :func:`_sample_stream` (both call
    :func:`_draw_stream_fields`); the sequential dest/chain recurrence is
    replaced by a running-maximum over writer positions.
    """
    classes, op_indices, use_chain, random_src1, add_src2, random_src2 = (
        _draw_stream_fields(spec, rng, length)
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
    # current position (the reference's running ``last_dest``).
    writer_pos = np.where(has_dest, positions, -1)
    last_writer = np.empty(length, dtype=np.int64)
    if length:
        last_writer[0] = -1
        np.maximum.accumulate(writer_pos[:-1], out=last_writer[1:])
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
        "src1_col": src1.astype(np.int64),
        "src2_col": np.where(add_src2, random_src2, _NUM_REGS).astype(np.int64),
    }


def stream_arrays(spec: KernelSpec, seed, count: int) -> StreamArrays:
    """The launch's streams built warp by warp (no cache).

    ``seed`` seeds the streams' ``default_rng``, or is the generator
    itself (left in the state the draws end in).
    """
    rng = (
        seed if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    columns = [
        _stream_fields_to_arrays(spec, rng, spec.body_length)
        for _ in range(count)
    ]
    return StreamArrays(
        num_warps=count,
        body_length=spec.body_length,
        **{
            name: np.stack([c[name] for c in columns])
            for name in columns[0] if name != "energy"
        },
    )


def jittered_lengths(
    spec: KernelSpec,
    count: int,
    jitter: float,
    jitter_seed: Union[None, int, np.random.Generator],
    seed: int,
) -> np.ndarray:
    """Per-warp stream lengths exactly as ``build_warps`` assigns them.

    Replays the same jitter-generator consumption (one scalar draw per
    warp, only when ``jitter > 0``); lengths beyond ``body_length`` mean
    the stream wraps around to its own head.  ``jitter_seed`` may also
    be the generator itself (left in the state the draws end in).
    """
    if jitter < 0 or jitter >= 1:
        raise ValueError(f"jitter must be in [0,1), got {jitter}")
    if jitter == 0:
        return np.full(count, spec.body_length, dtype=np.int64)
    jitter_rng = (
        jitter_seed if isinstance(jitter_seed, np.random.Generator)
        else np.random.default_rng(seed if jitter_seed is None else jitter_seed)
    )
    lengths = np.empty(count, dtype=np.int64)
    for warp_id in range(count):
        scale = 1.0 + jitter * float(jitter_rng.uniform(-1.0, 1.0))
        lengths[warp_id] = max(1, int(round(spec.body_length * scale)))
    return lengths


def site_miss_table(
    memory: MemorySystem, num_warps: int, max_pc: int, generation: int
) -> np.ndarray:
    """Hit/miss for every ``(warp_id, pc, generation)`` access site."""
    self = memory
    mask = (1 << 32) - 1
    c1, c2 = 0x7F4A7C15, 0x85EBCA6B
    table = np.empty((num_warps, max_pc), dtype=bool)
    pcs = np.arange(max_pc, dtype=np.uint64)
    for warp_id in range(num_warps):
        # First mixing step in Python ints: the seed product is taken
        # unreduced in the reference, so it may exceed 64 bits.
        h1 = ((self._seed * 0x9E3779B1) ^ (warp_id + c1)) * c2 & mask
        h2 = ((np.uint64(h1) ^ (pcs + np.uint64(c1))) * np.uint64(c2)) & np.uint64(mask)
        h3 = ((h2 ^ np.uint64((int(generation) + c1) & ((1 << 64) - 1))) * np.uint64(c2)) & np.uint64(mask)
        draws = h3.astype(float) / float(1 << 32)
        table[warp_id] = draws < self.miss_ratio
    return table
