"""Lock-stepped batch facade over B independent GPU instances.

The batched co-simulator (``repro.sim.cosim.run_cosim_batch``) steps B
scenarios per cycle.  The GPU timing model is already vectorized *within*
one GPU (PR 5's struct-of-arrays engine); batching across scenarios
lands as B independent engines behind one facade: per-lane state
(kernels, RNG streams, barrier bookkeeping) stays exactly the serial
model's, which is what keeps the batch bit-identical to B serial runs.

When every lane runs the compiled engine backend, the facade steps all
lanes through one ``engine_step_batch`` call per cycle instead of B
``engine_step`` calls — the per-lane C work is unchanged (lanes share
nothing, so cross-lane order cannot affect results); only the Python
and ctypes dispatch around it is amortized.  Lanes with a non-empty
barrier-exempt set (halted SMs) stay on that call: the C census leaves
per-SM kernel-done flags in a shared ``(B, num_sms)`` block, and such a
lane's launch barrier fires on ``done | exempt``.  A batch holding a
NumPy engine steps every lane through ``GPU.step_into``.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.gpu._cbuild import CEngineState, load_engine_lib
from repro.gpu.gpu import GPU


class _FusedDispatch:
    """Cached ctypes plumbing for the one-call-per-cycle batch step.

    Re-homes each engine's memory-queue slot, counter pair, power output
    and kernel-done flags as rows of shared ``(B, ...)`` arrays (then
    repoints the C structs), so the per-cycle shuttles run as one
    vectorized store per direction instead of B NumPy scalar stores.
    The lanes must be stepped only through this dispatch from then on:
    the mirrors below are not resynced from engine state.
    """

    __slots__ = ("lib", "ptrs", "ndone", "lanes", "slots", "counters",
                 "powers", "done", "call", "B", "ndone_ptr", "nsms",
                 "last_ndone")

    def __init__(self, lib: ctypes.CDLL, gpus: Sequence[GPU]) -> None:
        self.lib = lib
        engines = [gpu.engine for gpu in gpus]
        B = len(engines)
        S = engines[0].num_sms
        self.slots = np.zeros(B)
        self.counters = np.zeros((B, 2), dtype=np.int64)
        self.powers = np.zeros((B, S))
        self.done = np.zeros((B, S), dtype=bool)
        for i, eng in enumerate(engines):
            self.slots[i] = eng.memory._next_service_slot
            self.counters[i] = eng._mem_counters
            self.powers[i] = eng._powers_buf
            self.done[i] = eng._done_buf
            eng._mem_slot = self.slots[i : i + 1]
            eng._mem_counters = self.counters[i]
            eng._powers_buf = self.powers[i]
            eng._done_buf = self.done[i]
            eng._rebuild_cstate()
        self.ptrs = (ctypes.POINTER(CEngineState) * B)(
            *[eng._cstate_ptr for eng in engines]
        )
        self.ndone = np.zeros(B, dtype=np.int64)
        self.lanes = list(zip(gpus, engines, [e.memory for e in engines]))
        # Hot-path prebinds: the per-cycle call crosses ctypes once, so
        # everything constant about it is resolved here, not per cycle.
        self.call = lib.engine_step_batch
        self.B = B
        self.ndone_ptr = self.ndone.ctypes.data
        self.nsms = S
        # last_ndone mirrors each engine's _c_ndone as plain ints so
        # the per-cycle launch check reads list slots, not attributes.
        self.last_ndone = [eng._c_ndone for eng in engines]


class GPUBatch:
    """B independent :class:`GPU` instances stepped in lock-step."""

    def __init__(self, gpus: Sequence[GPU]) -> None:
        self.gpus: List[GPU] = list(gpus)
        if not self.gpus:
            raise ValueError("need at least one GPU lane")
        sizes = {gpu.num_sms for gpu in self.gpus}
        if len(sizes) != 1:
            raise ValueError(f"lanes must share num_sms, got {sorted(sizes)}")
        self.num_sms = sizes.pop()
        # None = not yet probed, False = ineligible (NumPy engine lane).
        self._fused: Optional[object] = None
        self._fused_probed = False

    def __len__(self) -> int:
        return len(self.gpus)

    def __getitem__(self, lane: int) -> GPU:
        return self.gpus[lane]

    def __iter__(self) -> Iterator[GPU]:
        return iter(self.gpus)

    def _probe_fused(self) -> Optional[_FusedDispatch]:
        self._fused_probed = True
        if not all(
            gpu.vectorized and getattr(gpu.engine, "backend", "") == "c"
            for gpu in self.gpus
        ):
            return None
        # Alignment is invariant once established: the fused step
        # advances every lane exactly one cycle per step_into, so
        # checking once here suffices.
        if len({gpu.cycle for gpu in self.gpus}) != 1:
            return None
        lib = load_engine_lib()
        if lib is None:
            return None
        self._fused = _FusedDispatch(lib, self.gpus)
        return self._fused

    def step_into(self, out: np.ndarray) -> np.ndarray:
        """Advance every lane one cycle; write per-SM powers into ``out``.

        ``out`` has shape ``(B, num_sms)``; row i receives lane i's
        emitted powers (a copy — callers may mutate rows freely, e.g.
        for fault power scaling).
        """
        fused = self._fused
        if fused is None and not self._fused_probed:
            fused = self._probe_fused()
        if fused is not None:
            return self._step_fused(fused, self.gpus[0].cycle, out)
        for i, gpu in enumerate(self.gpus):
            gpu.step_into(out[i])
        return out

    def _step_fused(
        self, fused: _FusedDispatch, cycle: int, out: np.ndarray
    ) -> np.ndarray:
        """One ``engine_step_batch`` call for the whole lane set.

        Mirrors ``VectorizedGPUEngine._step_c``'s per-lane protocol —
        launch barrier, memory-queue slot shuttle, counter sync —
        around a single crossing of the ctypes boundary.
        """
        lanes = fused.lanes
        ptrs = fused.ptrs
        last = fused.last_ndone
        nsms = fused.nsms
        done = fused.done
        for i, (gpu, eng, _) in enumerate(lanes):
            nd = last[i]
            if nd != nsms:
                # Halted SMs do not block the barrier: OR the exempt
                # mask into the last census's per-SM flags (the current
                # kernel_done_mask) — unless too few SMs are done for
                # the exempt ones to close the gap.
                exempt = gpu.barrier_exempt
                if not exempt or nd + len(exempt) < nsms or not bool(
                    np.all(done[i] | gpu._refresh_exempt_mask())
                ):
                    continue
            eng._load_generation(eng.generation + 1)
            # _rebuild_cstate allocated a fresh struct; repoint.
            ptrs[i] = eng._cstate_ptr
            gpu._generation = eng.generation
            gpu.kernels_launched += 1
            gpu.kernel_launch_cycles.append(gpu.cycle)
        rc = fused.call(ptrs, fused.B, cycle, fused.ndone_ptr)
        if rc < 0:
            raise RuntimeError("C engine pending-load heap overflow")
        ndone = fused.ndone.tolist()
        fused.last_ndone = ndone
        slots = fused.slots.tolist()
        counters = fused.counters
        served_any = counters[:, 0].tolist()
        for i, (gpu, eng, mem) in enumerate(lanes):
            eng._c_ndone = ndone[i]
            mem._next_service_slot = slots[i]
            served = served_any[i]
            if served:
                mem.requests_served += served
                mem.misses += int(counters[i, 1])
                counters[i] = 0
            gpu.cycle += 1
        np.copyto(out, fused.powers)
        return out

    def total_instructions(self) -> int:
        """Aggregate real instructions across all lanes."""
        return sum(gpu.total_instructions() for gpu in self.gpus)

    def total_fake_instructions(self) -> int:
        """Aggregate injected fake instructions across all lanes."""
        return sum(gpu.total_fake_instructions() for gpu in self.gpus)
