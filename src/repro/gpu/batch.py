"""Lock-stepped batch facade over B independent GPU instances.

The batched co-simulator (``repro.sim.cosim.run_cosim_batch``) steps B
scenarios per cycle.  The GPU timing model is already vectorized *within*
one GPU (the struct-of-arrays engine); batching across scenarios lands
as B independent engines behind one facade: per-lane state (kernels,
RNG streams, barrier bookkeeping) stays exactly the serial model's,
which is what keeps the batch bit-identical to B serial runs.

The facade steps all lanes through one ``engine_step_batch`` call per
cycle instead of B ``engine_step`` calls — the per-lane C work is
unchanged (lanes share nothing, so cross-lane order cannot affect
results); only the Python and ctypes dispatch around it is amortized.
The call also runs the launch barrier: the C census leaves per-SM
kernel-done flags in a shared ``(B, num_sms)`` block, a lane's barrier
fires on ``done | exempt``, and the call hands the flagged lanes back
for relaunch before stepping.  The lanes share one clock: a batch of
lanes whose clocks differ is rejected at construction.
"""

from __future__ import annotations

import ctypes
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.gpu.engine import CEngineState
from repro.gpu.gpu import GPU


class _FusedDispatch:
    """Shared ``(B, ...)`` state behind the one-call-per-cycle batch step.

    Re-homes each engine's memory-queue slot, counter pair, power
    output, kernel-done flags and each GPU's barrier-exempt mask as rows
    of shared arrays (then repoints those fields of the C structs in
    place).  While the batch
    steps, the per-lane mirrors — ``gpu.cycle``, the memory slot and
    counters, the engine's kernel-done count — live only in these arrays
    (``clock``, ``slots``, ``counters``, ``ndone``);
    :meth:`GPUBatch.fold` writes them back to the lane objects.
    """

    __slots__ = ("lib", "ptrs", "lanes", "slots", "counters", "powers",
                 "done", "exempt", "ndone", "relaunch", "clock", "call",
                 "args")

    def __init__(self, gpus: Sequence[GPU]) -> None:
        engines = [gpu.engine for gpu in gpus]
        self.lib = engines[0]._clib
        B = len(engines)
        S = engines[0].num_sms
        self.slots = np.zeros(B)
        self.counters = np.zeros((B, 2), dtype=np.int64)
        self.powers = np.zeros((B, S))
        self.done = np.zeros((B, S), dtype=bool)
        self.exempt = np.zeros((B, S), dtype=bool)
        for i, (gpu, eng) in enumerate(zip(gpus, engines)):
            self.slots[i] = eng.memory._next_service_slot
            self.counters[i] = eng._mem_counters
            self.powers[i] = eng._powers_buf
            self.done[i] = eng._done_buf
            self.exempt[i] = gpu._exempt_mask
            eng._mem_slot = self.slots[i : i + 1]
            eng._mem_counters = self.counters[i]
            eng._powers_buf = self.powers[i]
            eng._done_buf = self.done[i]
            gpu._exempt_mask = self.exempt[i]
            cs = eng._cstate
            cs.mem_slot = eng._mem_slot.ctypes.data
            cs.mem_counters = eng._mem_counters.ctypes.data
            cs.powers = eng._powers_buf.ctypes.data
            cs.done = eng._done_buf.ctypes.data
        self.ptrs = (ctypes.POINTER(CEngineState) * B)(
            *[eng._cstate_ptr for eng in engines]
        )
        self.ndone = np.array([eng._c_ndone for eng in engines], dtype=np.int64)
        self.relaunch = np.zeros(B, dtype=np.uint8)
        self.clock = np.array([gpus[0].cycle], dtype=np.int64)
        self.lanes = list(zip(gpus, engines, [e.memory for e in engines]))
        # Hot-path prebinds: the per-cycle call crosses ctypes once, so
        # everything constant about it is resolved here, not per cycle.
        self.call = self.lib.engine_step_batch
        self.args = (
            self.ptrs, B, self.clock.ctypes.data, self.ndone.ctypes.data,
            self.exempt.ctypes.data, self.relaunch.ctypes.data,
        )


class GPUBatch:
    """B independent :class:`GPU` instances stepped in lock-step.

    Once the batch steps, the lanes' ``cycle`` and memory-queue mirrors
    are deferred to it (see :class:`_FusedDispatch`): call :meth:`fold`
    before reading them off a lane.
    """

    def __init__(self, gpus: Sequence[GPU]) -> None:
        self.gpus: List[GPU] = list(gpus)
        if not self.gpus:
            raise ValueError("need at least one GPU lane")
        sizes = {gpu.num_sms for gpu in self.gpus}
        if len(sizes) != 1:
            raise ValueError(f"lanes must share num_sms, got {sorted(sizes)}")
        self.num_sms = sizes.pop()
        cycles = {gpu.cycle for gpu in self.gpus}
        if len(cycles) != 1:
            raise ValueError(
                f"lanes must share a clock, got cycles {sorted(cycles)}"
            )
        # Built on the first fused() call.
        self._fused: Optional[_FusedDispatch] = None

    def __len__(self) -> int:
        return len(self.gpus)

    def __getitem__(self, lane: int) -> GPU:
        return self.gpus[lane]

    def __iter__(self) -> Iterator[GPU]:
        return iter(self.gpus)

    def fused(self) -> _FusedDispatch:
        """The fused dispatch (the lanes' clocks stay aligned: it
        advances every lane exactly one cycle per call)."""
        if self._fused is None:
            self._fused = _FusedDispatch(self.gpus)
        return self._fused

    def step_into(self, out: np.ndarray) -> np.ndarray:
        """Advance every lane one cycle; write per-SM powers into ``out``.

        ``out`` has shape ``(B, num_sms)``; row i receives lane i's
        emitted powers (a copy — callers may mutate rows freely, e.g.
        for fault power scaling).
        """
        fused = self.fused()
        rc = fused.call(*fused.args)
        if rc > 0:
            self.relaunch()
            rc = fused.call(*fused.args)
        if rc < 0:
            raise RuntimeError("C engine pending-load heap overflow")
        np.copyto(out, fused.powers)
        return out

    def relaunch(self) -> None:
        """Launch the next kernel on every lane the census flagged.

        Mirrors ``VectorizedGPUEngine.step``'s launch: a fresh
        generation (the lane's C state struct repointed in place), the
        done count cleared, and the launch recorded at the batch clock's
        cycle.  The flags stay set: the next
        ``engine_step_batch`` call steps these lanes without a census,
        then clears them.
        """
        fused = self._fused
        cycle = int(fused.clock[0])
        for i in np.flatnonzero(fused.relaunch).tolist():
            gpu, eng, _ = fused.lanes[i]
            eng._load_generation(eng.generation + 1)
            fused.ndone[i] = 0
            gpu.kernels_launched += 1
            gpu.kernel_launch_cycles.append(cycle)

    def fold(self, rows: Optional[Iterable[int]] = None) -> None:
        """Write the deferred per-lane mirrors back to the lane objects.

        ``rows`` selects lanes (default all): each gets the batch clock
        as ``gpu.cycle``, its memory-queue slot, its served/miss counts
        (then zeroed in the batch) and its kernel-done count.
        """
        fused = self._fused
        if fused is None:
            return
        cycle = int(fused.clock[0])
        counters = fused.counters
        for i in range(len(self.gpus)) if rows is None else rows:
            gpu, eng, mem = fused.lanes[i]
            gpu.cycle = cycle
            mem._next_service_slot = float(fused.slots[i])
            served, misses = counters[i].tolist()
            if served:
                mem.requests_served += served
                mem.misses += misses
                counters[i] = 0
            eng._c_ndone = int(fused.ndone[i])

    def total_instructions(self) -> int:
        """Aggregate real instructions across all lanes."""
        return sum(gpu.total_instructions() for gpu in self.gpus)

    def total_fake_instructions(self) -> int:
        """Aggregate injected fake instructions across all lanes."""
        return sum(gpu.total_fake_instructions() for gpu in self.gpus)
