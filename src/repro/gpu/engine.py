"""Struct-of-arrays GPU engine: all 16 SMs stepped as NumPy arrays.

The per-object model (:class:`repro.gpu.sm.StreamingMultiprocessor`)
walks Python objects per warp per cycle — scheduler scans, scoreboard
dict lookups, a per-instruction modulo loop over the energy wheel — and
the stage telemetry shows it dominating co-simulation wall time.  This
module re-implements the *same* microarchitecture with the state held
as ``(num_sms, ...)`` arrays, advancing every SM per cycle in one batch
of vector operations.

The contract with the retained reference is **bit-identical** output:
per-cycle power vectors and every statistic match the per-object model
exactly for the same seed.  That dictates the implementation at the
float-operation level; where it matters the code notes which reference
ordering it is preserving:

* the DIWS budget uses the same ``round()`` (banker's) as the SM;
* the FII accumulator is drained by *sequential* ``-= 1.0`` steps, not
  one fused subtraction (``a - 1.0 - 1.0 != a - 2.0`` in floats);
* energy-wheel deposits happen in reference order (first issue slot,
  second slot, then fakes; offsets ascending) so per-cell float sums
  associate identically;
* memory requests are serviced in the reference's global order — SM 0's
  issue slots before SM 1's — by collecting the cycle's loads and
  replaying them through one cumulative-sum batch
  (:meth:`repro.gpu.memory.MemorySystem.service_batch`);
* leakage is computed by the *same* :meth:`SMPowerModel.leakage_w` on a
  mirrored per-SM ``set`` receiving the identical add/discard sequence,
  so the set-iteration float-sum order matches.

Scoreboards become a ``(sms, warps, 17)`` ready-at table (column 16 is
a dummy register for dest-less instructions, so readiness is a plain
fancy-indexed ``max``), with sentinels for "never written" and "load in
flight".  Both step backends keep each warp's head readiness and head
unit cached (``_ready_cycle``, ``_head_unit``; see
:meth:`VectorizedGPUEngine._refresh_heads`).  A launch drops the loads
still in flight, as the reference does: they belong to the kernel that
issued them.

The GPU facade (:class:`repro.gpu.gpu.GPU`) selects this engine by
default (``vectorized=True``) and exposes per-SM views so existing
consumers (experiments, tests) keep reading per-SM statistics and
issuing per-SM actuation.  The Warped-Gates PG study needs the
per-object scheduler coupling and keeps using the reference model.
"""

from __future__ import annotations

import ctypes
import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import native
from repro.gpu.isa import ENERGY, ExecUnit, InstructionClass
from repro.gpu.kernels import (
    KernelSpec,
    StreamArrays,
    UNIT_ORDER,
    build_warps,
    jittered_lengths,
    stream_arrays,
)
from repro.gpu.memory import MemorySystem
from repro.gpu.power import IDLE_DYNAMIC_ENERGY, SMPowerModel
from repro.gpu.sm import DIWS_WINDOW, SMStatistics, UNIT_PORTS, WAKEUP_CYCLES
from repro.gpu.warp import Warp

_UNIT_INDEX: Dict[ExecUnit, int] = {u: i for i, u in enumerate(UNIT_ORDER)}
_PORTS_INIT = np.array([UNIT_PORTS[u] for u in UNIT_ORDER], dtype=np.int64)
_FAKE_ENERGY = ENERGY[InstructionClass.FAKE]  # latency 1 -> span 1, share=E

# Scoreboard sentinels in the int64 ready-at table.  "Ready" is the
# single comparison ``ready_at <= cycle``: a register never written is
# always ready (very negative), a load in flight never is (very
# positive) until its completion pops and writes the release cycle.
_NEVER = -(1 << 62)
_PENDING = 1 << 62
_FAR = 1 << 62  # done-warp ready cycle / argmin mask value


_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double


class CEngineState(ctypes.Structure):
    """Mirror of ``EngineState`` in ``_enginec.c`` (field order matters)."""

    _fields_ = [
        ("num_sms", _I64),
        ("num_warps", _I64),
        ("body", _I64),
        ("heap_cap", _I64),
        ("max_pc", _I64),
        ("dram_cycles", _I64),
        ("l2_cycles", _I64),
        ("clock_hz", _F64),
        ("idle_energy", _F64),
        ("fake_energy", _F64),
        ("slot_width", _F64),
        ("issue_width", _PTR),
        ("fake_rate", _PTR),
        ("freq_scale", _PTR),
        ("gated", _PTR),
        ("waking", _PTR),
        ("unit_idle", _PTR),
        ("leakage", _PTR),
        ("window_start", _PTR),
        ("budget", _PTR),
        ("fake_acc", _PTR),
        ("clock_acc", _PTR),
        ("wheel", _PTR),
        ("wheel_pos", _PTR),
        ("st_cycles", _PTR),
        ("st_active", _PTR),
        ("st_inst", _PTR),
        ("st_fake", _PTR),
        ("st_stall", _PTR),
        ("pc", _PTR),
        ("length", _PTR),
        ("outstanding", _PTR),
        ("warp_done", _PTR),
        ("ready_at", _PTR),
        ("ready_cycle", _PTR),
        ("head_unit", _PTR),
        ("live", _PTR),
        ("last_warp", _PTR),
        ("heap", _PTR),
        ("heap_len", _PTR),
        ("mem_slot", _PTR),
        ("mem_counters", _PTR),
        ("totals", _PTR),
        ("s_unit", _PTR),
        ("s_latency", _PTR),
        ("s_dest", _PTR),
        ("s_is_load", _PTR),
        ("s_span", _PTR),
        ("s_share", _PTR),
        ("s_dest_col", _PTR),
        ("s_src1_col", _PTR),
        ("s_src2_col", _PTR),
        ("miss_table", _PTR),
        ("powers", _PTR),
        ("done", _PTR),
    ]


# The current generation's stream columns, repointed in the C state at
# every launch as ``s_<column>``.
_STREAM_COLUMNS = (
    "unit", "latency", "dest", "is_load", "span", "share",
    "dest_col", "src1_col", "src2_col",
)


class VectorizedGPUEngine:
    """All SMs of one GPU as struct-of-arrays state, stepped per cycle."""

    #: Pending-load heap capacity per SM for the C backend.
    HEAP_CAPACITY = 4096

    def __init__(
        self,
        kernel: KernelSpec,
        num_sms: int,
        memory: MemorySystem,
        power_model: SMPowerModel,
        seed: int = 0,
        jitter: float = 0.0,
    ) -> None:
        self.kernel = kernel
        self.num_sms = num_sms
        self.num_warps = kernel.warps_per_sm
        self.memory = memory
        self.power_model = power_model
        self.jitter = jitter
        self._base_seed = seed
        # Same per-SM jitter-seed derivation as the GPU's SM construction.
        self._jitter_seeds = [seed * 65_537 + sm_id + 1 for sm_id in range(num_sms)]
        self.generation = 0
        self._clock_hz = power_model.gpu.sm_clock_hz

        S, W = num_sms, self.num_warps
        # Actuation state -------------------------------------------------
        self.issue_width = np.full(S, 2.0)
        self.fake_rate = np.zeros(S)
        self.frequency_scale = np.ones(S)
        self._gated = np.zeros((S, 3), dtype=bool)
        # Mirrored Python sets: fed the same add/discard sequence as the
        # reference SM's ``gated_units`` so leakage_w's set-iteration
        # float-sum order is identical.
        self.gated_sets: List[Set[ExecUnit]] = [set() for _ in range(S)]
        self._waking = np.full((S, 3), _NEVER, dtype=np.int64)  # usable-at
        self.unit_idle = np.zeros((S, 3), dtype=np.int64)
        self._leakage = np.full(S, power_model.leakage_w(()))

        # DIWS / FII / DFS machinery --------------------------------------
        self._window_start = np.zeros(S, dtype=np.int64)
        self._issue_budget = np.rint(self.issue_width * DIWS_WINDOW).astype(
            np.int64
        )
        self._fake_acc = np.zeros(S)
        self._clock_acc = np.zeros(S)

        # Energy wheel ----------------------------------------------------
        self._wheel = np.zeros((S, 8))
        self._wheel_pos = np.zeros(S, dtype=np.int64)

        # Statistics ------------------------------------------------------
        self.stat_cycles = np.zeros(S, dtype=np.int64)
        self.stat_active = np.zeros(S, dtype=np.int64)
        self.stat_instructions = np.zeros(S, dtype=np.int64)
        self.stat_fakes = np.zeros(S, dtype=np.int64)
        self.stat_stalls = np.zeros(S, dtype=np.int64)
        self.stat_kernels = np.zeros(S, dtype=np.int64)
        # O(1) GPU-total counters: [instructions, fakes].
        self._totals = np.zeros(2, dtype=np.int64)

        # Per-warp execution state ---------------------------------------
        self._pc = np.zeros((S, W), dtype=np.int64)
        self._length = np.empty((S, W), dtype=np.int64)
        self._warp_done = np.zeros((S, W), dtype=bool)
        self._outstanding = np.zeros((S, W), dtype=np.int64)
        self._ready_at = np.full((S, W, 17), _NEVER, dtype=np.int64)
        self._ready_cycle = np.full((S, W), _NEVER, dtype=np.int64)
        self._head_unit = np.zeros((S, W), dtype=np.int64)
        self._last_warp = np.full(S, -1, dtype=np.int64)

        # Pending loads: per-SM heaps of (completion, warp, reg) exactly
        # like the reference; _next_pending caches each heap's minimum
        # for a vector gate.
        self._pending: List[List[Tuple[int, int, int]]] = [[] for _ in range(S)]
        self._next_pending = np.full(S, _FAR, dtype=np.int64)

        # Preallocated per-cycle scratch ----------------------------------
        self._rows = np.arange(S)
        self._wids = np.arange(W)
        self._all_s = np.repeat(self._rows, W)
        self._all_w = np.tile(self._wids, S)
        self._ports = np.empty((S, 3), dtype=np.int64)
        self._used = np.zeros((S, 3), dtype=bool)
        self._dyn = np.zeros(S)
        self._n_issued = np.zeros(S, dtype=np.int64)

        self._streams: Optional[StreamArrays] = None
        self._miss_table: Optional[np.ndarray] = None

        # The C kernel runs whenever the native library loaded and the
        # warp index fits its packed heap keys; both step paths are
        # bit-identical, the C one an order of magnitude faster.
        self._clib = native.load() if self.num_warps < (1 << 16) else None
        self.backend = "numpy" if self._clib is None else "c"
        if self.backend == "c":
            self._cheap = np.zeros((S, self.HEAP_CAPACITY), dtype=np.int64)
            self._cheap_len = np.zeros(S, dtype=np.int64)
            self._mem_slot = np.zeros(1)
            self._mem_counters = np.zeros(2, dtype=np.int64)
            self._powers_buf = np.zeros(S)
            # Live warps per SM (not done, or loads outstanding); the C
            # step keeps it, and its census reads it.
            self._live = np.zeros(S, dtype=np.int64)
            # The C census's per-SM kernel-done flags (count in _c_ndone):
            # the launch barrier ORs a barrier-exempt mask into them.
            self._done_buf = np.zeros(S, dtype=bool)
            self._c_ndone = 0
        self._load_generation(0, first=True)

    @property
    def total_instructions(self) -> int:
        return int(self._totals[0])

    @property
    def total_fakes(self) -> int:
        return int(self._totals[1])

    # ------------------------------------------------------------------
    # Kernel generations
    # ------------------------------------------------------------------
    def _load_generation(self, generation: int, first: bool = False) -> None:
        """(Re)launch the kernel on every SM — the global barrier.

        Matches :meth:`StreamingMultiprocessor.start_new_kernel`: fresh
        warps (PCs, scoreboards, outstanding counts), scheduler reset,
        ``kernels_completed`` bumped, and the loads still in flight
        dropped — they belong to the kernel that issued them (their
        bandwidth slot and miss were booked at issue).
        """
        self.generation = generation
        seed = self._base_seed + 7919 * generation
        self._streams = stream_arrays(self.kernel, seed, self.num_warps)
        for s in range(self.num_sms):
            jseed = self._jitter_seeds[s] + 7919 * generation
            self._length[s] = jittered_lengths(
                self.kernel, self.num_warps, self.jitter, jseed, seed
            )
        self._pc[:] = 0
        self._ready_at[:] = _NEVER
        self._outstanding[:] = 0
        self._last_warp[:] = -1
        if not first:
            self.stat_kernels += 1
        miss = self.memory.site_miss_table(
            self.num_warps, int(self._length.max()) + 1, generation
        )
        self._miss_table = miss
        self._refresh_heads(self._all_s, self._all_w)  # also clears done
        if self.backend == "c":
            self._cheap_len[:] = 0
            self._live[:] = self.num_warps
            self._c_ndone = 0
            self._done_buf[:] = False
            if first:
                self._build_cstate()
            else:
                self._point_cstate_at_generation()
            return
        for heap in self._pending:
            heap.clear()
        self._next_pending[:] = _FAR
        timings = self.memory.timings
        self._site_latency = np.where(
            miss, timings.dram_cycles, timings.l2_hit_cycles
        ).astype(np.int64)

    def _build_cstate(self) -> None:
        """Build the C kernel's state struct over the engine's buffers.

        Built once, at construction.  A launch repoints the generation's
        fields in place (:meth:`_point_cstate_at_generation`), and a
        :class:`repro.gpu.batch.GPUBatch` the buffers it re-homes.
        Holding the arrays as attributes keeps every pointer alive for
        the struct's lifetime.
        """
        timings = self.memory.timings

        def ptr(arr: np.ndarray) -> int:
            return arr.ctypes.data

        cs = CEngineState(
            num_sms=self.num_sms,
            num_warps=self.num_warps,
            heap_cap=self.HEAP_CAPACITY,
            dram_cycles=timings.dram_cycles,
            l2_cycles=timings.l2_hit_cycles,
            clock_hz=self._clock_hz,
            idle_energy=IDLE_DYNAMIC_ENERGY,
            fake_energy=_FAKE_ENERGY,
            slot_width=1.0 / timings.requests_per_cycle,
            issue_width=ptr(self.issue_width),
            fake_rate=ptr(self.fake_rate),
            freq_scale=ptr(self.frequency_scale),
            gated=ptr(self._gated),
            waking=ptr(self._waking),
            unit_idle=ptr(self.unit_idle),
            leakage=ptr(self._leakage),
            window_start=ptr(self._window_start),
            budget=ptr(self._issue_budget),
            fake_acc=ptr(self._fake_acc),
            clock_acc=ptr(self._clock_acc),
            wheel=ptr(self._wheel),
            wheel_pos=ptr(self._wheel_pos),
            st_cycles=ptr(self.stat_cycles),
            st_active=ptr(self.stat_active),
            st_inst=ptr(self.stat_instructions),
            st_fake=ptr(self.stat_fakes),
            st_stall=ptr(self.stat_stalls),
            pc=ptr(self._pc),
            length=ptr(self._length),
            outstanding=ptr(self._outstanding),
            warp_done=ptr(self._warp_done),
            ready_at=ptr(self._ready_at),
            ready_cycle=ptr(self._ready_cycle),
            head_unit=ptr(self._head_unit),
            live=ptr(self._live),
            last_warp=ptr(self._last_warp),
            heap=ptr(self._cheap),
            heap_len=ptr(self._cheap_len),
            mem_slot=ptr(self._mem_slot),
            mem_counters=ptr(self._mem_counters),
            totals=ptr(self._totals),
            powers=ptr(self._powers_buf),
            done=ptr(self._done_buf),
        )
        self._cstate = cs
        self._cstate_ptr = ctypes.pointer(cs)
        self._point_cstate_at_generation()

    def _point_cstate_at_generation(self) -> None:
        """Repoint the C state at this generation's streams and miss table."""
        cs, st = self._cstate, self._streams
        cs.body = st.body_length
        cs.max_pc = self._miss_table.shape[1]
        cs.miss_table = self._miss_table.ctypes.data
        for name in _STREAM_COLUMNS:
            setattr(cs, "s_" + name, getattr(st, name).ctypes.data)

    def _refresh_heads(self, s_idx: np.ndarray, w_idx: np.ndarray) -> None:
        """Recompute head instruction and readiness for the given warps.

        Called after any event that moves a warp's head or touches a
        register its head reads/writes: issue (PC advance + dest marked
        pending), load completion (register released), kernel relaunch.
        The C step keeps the same caches with its own refresh_head; the
        launch calls this on both backends.
        """
        if len(s_idx) == 0:
            return
        st = self._streams
        pc = self._pc[s_idx, w_idx]
        done = pc >= self._length[s_idx, w_idx]
        self._warp_done[s_idx, w_idx] = done
        body = st.body_length
        # Jitter-lengthened streams wrap to their own head; clamp keeps
        # the (unused) index of just-done warps in bounds when a stream
        # runs to exactly twice the body.
        eff = np.where(pc >= body, pc - body, pc)
        eff = np.minimum(eff, body - 1)
        rc = np.maximum(
            np.maximum(
                self._ready_at[s_idx, w_idx, st.dest_col[w_idx, eff]],
                self._ready_at[s_idx, w_idx, st.src1_col[w_idx, eff]],
            ),
            self._ready_at[s_idx, w_idx, st.src2_col[w_idx, eff]],
        )
        self._ready_cycle[s_idx, w_idx] = np.where(done, _FAR, rc)
        self._head_unit[s_idx, w_idx] = st.unit[w_idx, eff]

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    @staticmethod
    def _clamp02(values: np.ndarray) -> np.ndarray:
        # Reference per-SM setter: ``min(2.0, max(0.0, x))`` — Python's
        # max/min return 0.0 for NaN (failed comparison keeps the first
        # argument), so np.clip (NaN-propagating) would diverge.
        low = np.where(values > 0.0, values, 0.0)
        return np.where(low < 2.0, low, 2.0)

    def _fanout(self, values: Sequence[float]) -> np.ndarray:
        if not isinstance(values, np.ndarray):
            values = np.asarray(list(values), dtype=float)
        values = values.astype(float, copy=False)
        # zip() semantics: shorter input actuates a prefix of the SMs.
        return values[: self.num_sms]

    def set_issue_widths(self, widths: Sequence[float]) -> None:
        arr = self._fanout(widths)
        self.issue_width[: len(arr)] = self._clamp02(arr)

    def set_fake_rates(self, rates: Sequence[float]) -> None:
        arr = self._fanout(rates)
        self.fake_rate[: len(arr)] = self._clamp02(arr)

    def set_frequency_scales(self, scales: Sequence[float]) -> None:
        arr = self._fanout(scales)
        bad = arr <= 0
        if bad.any():
            # The reference fans out sequentially and raises mid-loop:
            # SMs before the offending value keep their new scale.
            i = int(np.argmax(bad))
            self.frequency_scale[:i] = np.where(arr[:i] < 1.0, arr[:i], 1.0)
            raise ValueError(
                f"frequency scale must be positive, got {float(arr[i])}"
            )
        self.frequency_scale[: len(arr)] = np.where(arr < 1.0, arr, 1.0)

    def set_issue_width(self, sm_id: int, width: float) -> None:
        self.issue_width[sm_id] = min(2.0, max(0.0, float(width)))

    def set_fake_rate(self, sm_id: int, rate: float) -> None:
        self.fake_rate[sm_id] = min(2.0, max(0.0, float(rate)))

    def set_frequency_scale(self, sm_id: int, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"frequency scale must be positive, got {scale}")
        self.frequency_scale[sm_id] = min(1.0, float(scale))

    def gate_unit(self, sm_id: int, unit: ExecUnit) -> None:
        u = _UNIT_INDEX[unit]
        self._gated[sm_id, u] = True
        self.gated_sets[sm_id].add(unit)
        self._waking[sm_id, u] = _NEVER
        self._leakage[sm_id] = self.power_model.leakage_w(self.gated_sets[sm_id])

    def ungate_unit(self, sm_id: int, unit: ExecUnit, cycle: int) -> None:
        if unit not in self.gated_sets[sm_id]:
            return
        u = _UNIT_INDEX[unit]
        self.gated_sets[sm_id].discard(unit)
        self._gated[sm_id, u] = False
        self._waking[sm_id, u] = cycle + WAKEUP_CYCLES
        self.unit_idle[sm_id, u] = -WAKEUP_CYCLES
        self._leakage[sm_id] = self.power_model.leakage_w(self.gated_sets[sm_id])

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def kernel_done_mask(self) -> np.ndarray:
        return np.all(self._warp_done & (self._outstanding == 0), axis=1)

    def step(
        self,
        cycle: int,
        exempt: np.ndarray,
        exempt_any: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        """Advance all SMs one nominal clock.

        Returns ``(powers, launched)`` — the per-SM power vector and
        whether the kernel-launch barrier fired before stepping.  With
        ``out`` the powers are written into the caller's buffer (no
        allocation); otherwise a fresh array is returned each cycle.
        """
        if self.backend == "c":
            return self._step_c(cycle, exempt, exempt_any, out)
        powers, launched = self._step_numpy(cycle, exempt)
        if out is None:
            return powers, launched
        np.copyto(out, powers)
        return out, launched

    def _step_c(
        self,
        cycle: int,
        exempt: np.ndarray,
        exempt_any: bool,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        launched = False
        if exempt_any:
            # _done_buf is the last step's census, i.e. the current
            # kernel_done_mask(): nothing else moves warps between steps.
            if bool(np.all(self._done_buf | exempt)):
                launched = True
        elif self._c_ndone == self.num_sms:
            launched = True
        if launched:
            self._load_generation(self.generation + 1)

        mem = self.memory
        self._mem_slot[0] = mem._next_service_slot
        ndone = self._clib.engine_step(self._cstate_ptr, cycle)
        if ndone < 0:
            raise RuntimeError("C engine pending-load heap overflow")
        self._c_ndone = int(ndone)
        mem._next_service_slot = self._mem_slot[0].item()
        served, misses = self._mem_counters
        if served:
            mem.requests_served += int(served)
            mem.misses += int(misses)
            self._mem_counters[:] = 0
        if out is None:
            return self._powers_buf.copy(), launched
        np.copyto(out, self._powers_buf)
        return out, launched

    def _step_numpy(
        self, cycle: int, exempt: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        launched = False
        if bool(np.all(self.kernel_done_mask() | exempt)):
            self._load_generation(self.generation + 1)
            launched = True

        S, W = self.num_sms, self.num_warps
        rows = self._rows
        self.stat_cycles += 1

        # DFS clock masking: lanes whose accumulator stays below 1 skip
        # execution this cycle (frequency_scale semantics of SM.step).
        self._clock_acc += self.frequency_scale
        active = self._clock_acc >= 1.0
        self._clock_acc[active] -= 1.0
        self.stat_active[active] += 1

        # Load completions (before the kernel-done check, like the SM).
        if bool(np.any(active & (self._next_pending <= cycle))):
            self._complete_loads(cycle, active)

        done_now = self.kernel_done_mask()
        part = active & ~done_now  # lanes that execute the issue path

        if bool(part.any()):
            # DIWS window bookkeeping.
            refresh = part & (cycle - self._window_start >= DIWS_WINDOW)
            if bool(refresh.any()):
                self._window_start[refresh] = cycle
                self._issue_budget[refresh] = np.rint(
                    self.issue_width[refresh] * DIWS_WINDOW
                ).astype(np.int64)

            ports = self._ports
            ports[:] = _PORTS_INIT
            used = self._used
            used[:] = False
            avail = (~self._gated) & (self._waking <= cycle)
            n_issued = self._n_issued
            n_issued[:] = 0
            loads: List[Tuple[int, int, int, int, int]] = []
            wave_deposits = []

            elig = part & (self._issue_budget > 0)
            for wave in range(2):
                if not bool(elig.any()):
                    break
                ready = self._ready_cycle <= cycle
                last = self._last_warp
                safe_last = np.where(last >= 0, last, 0)
                greedy = elig & (last >= 0) & ready[rows, safe_last]
                any_ready = elig & ready.any(axis=1)
                key = self._pc * W + self._wids
                oldest = np.argmin(np.where(ready, key, _FAR), axis=1)
                # GTO falls back to oldest-and-*remembers it* even when
                # the subsequent issue is blocked by a structural hazard.
                np.copyto(self._last_warp, oldest, where=any_ready & ~greedy)
                sel = np.where(greedy, safe_last, oldest)
                havesel = greedy | any_ready
                selunit = self._head_unit[rows, sel]
                free = (ports[rows, selunit] > 0) & avail[rows, selunit]
                ok = havesel & free
                blocked = havesel & ~free
                if bool(blocked.any()):
                    # Structural hazard: oldest ready warp (excluding the
                    # selected one) whose head unit has a free, live port.
                    port_free = (ports > 0) & avail
                    head_free = port_free[rows[:, None], self._head_unit]
                    alt_ok = ready & head_free
                    alt_ok[rows, sel] = False
                    alt = np.argmin(np.where(alt_ok, key, _FAR), axis=1)
                    has_alt = alt_ok[rows, alt]
                    issue = ok | (blocked & has_alt)
                    sel = np.where(ok, sel, alt)
                else:
                    issue = ok
                s_i = np.nonzero(issue)[0]
                if len(s_i) == 0:
                    break
                w_i = sel[s_i]
                u_i = self._head_unit[s_i, w_i]
                ports[s_i, u_i] -= 1
                used[s_i, u_i] = True
                self._last_warp[s_i] = w_i
                self._issue_budget[s_i] -= 1
                self.stat_instructions[s_i] += 1
                n_issued[s_i] += 1
                self._totals[0] += len(s_i)

                st = self._streams
                pc_before = self._pc[s_i, w_i]
                body = st.body_length
                eff = np.where(pc_before >= body, pc_before - body, pc_before)
                self._pc[s_i, w_i] = pc_before + 1
                dest = st.dest[w_i, eff]
                lat = st.latency[w_i, eff]
                is_load = st.is_load[w_i, eff]
                normal = (dest >= 0) & ~is_load
                if bool(normal.any()):
                    self._ready_at[s_i[normal], w_i[normal], dest[normal]] = (
                        cycle + lat[normal]
                    )
                if bool(is_load.any()):
                    # Defer the shared-memory request; serviced at end of
                    # cycle in the reference's (sm, wave) global order.
                    for s, w, r, p in zip(
                        s_i[is_load], w_i[is_load], dest[is_load],
                        pc_before[is_load] + 1,
                    ):
                        loads.append((int(s), wave, int(w), int(r), int(p)))
                    self._ready_at[s_i[is_load], w_i[is_load], dest[is_load]] = (
                        _PENDING
                    )
                    self._outstanding[s_i[is_load], w_i[is_load]] += 1
                wave_deposits.append((s_i, st.span[w_i, eff], st.share[w_i, eff]))
                self._refresh_heads(s_i, w_i)
                elig = issue & (self._issue_budget > 0)

            stall = part & (n_issued == 0)
            self.stat_stalls[stall] += 1

            # FII: fill leftover hardware slots with fake instructions.
            self._fake_acc[part] += self.fake_rate[part]
            can_fake = part & avail[:, 0]
            kf = np.zeros(S, dtype=np.int64)
            kf[can_fake] = np.minimum(
                2 - n_issued[can_fake],
                np.floor(self._fake_acc[can_fake]).astype(np.int64),
            )
            # Drain by sequential subtraction, matching the reference's
            # per-fake ``accumulator -= 1.0`` float steps.
            self._fake_acc[kf >= 1] -= 1.0
            self._fake_acc[kf >= 2] -= 1.0
            self.stat_fakes += kf
            self._totals[1] += int(kf.sum())
            self._fake_acc[part] = np.minimum(self._fake_acc[part], 2.0)

            # PG idle accounting (real issues only; fakes never reset it).
            pu = part[:, None]
            self.unit_idle[pu & used] = 0
            self.unit_idle[pu & ~used] += 1

            # Shared-memory service, in reference global order: both of
            # SM k's issue slots precede SM k+1's.
            if loads:
                loads.sort()
                w_arr = np.array([l[2] for l in loads])
                p_arr = np.array([l[4] for l in loads])
                miss = self._miss_table[w_arr, p_arr]
                completions = self.memory.service_batch(
                    cycle, self._site_latency[w_arr, p_arr], int(miss.sum())
                )
                for (s, _wave, w, reg, _p), comp in zip(loads, completions):
                    heapq.heappush(self._pending[s], (int(comp), w, reg))
                for s in {l[0] for l in loads}:
                    self._next_pending[s] = self._pending[s][0][0]

            # Energy wheel: deposit in reference order (slot 0, slot 1,
            # fakes; offsets ascending) — each (sm, cell) receives its
            # float adds in the identical sequence.
            wheel = self._wheel
            pos = self._wheel_pos
            for s_i, span, share in wave_deposits:
                top = int(span.max()) if len(span) else 0
                for off in range(top):
                    m = span > off
                    idx = s_i[m]
                    wheel[idx, (pos[idx] + off) % 8] += share[m]
            f1 = np.nonzero(kf >= 1)[0]
            wheel[f1, pos[f1]] += _FAKE_ENERGY
            f2 = np.nonzero(kf >= 2)[0]
            wheel[f2, pos[f2]] += _FAKE_ENERGY
        else:
            stall = None

        # Rotate the wheel and read this cycle's dynamic energy for the
        # participating lanes only; masked and drained lanes burn idle.
        dyn = self._dyn
        dyn[:] = 0.0
        p_i = np.nonzero(part)[0]
        if len(p_i):
            pos_p = self._wheel_pos[p_i]
            dyn[p_i] = self._wheel[p_i, pos_p]
            self._wheel[p_i, pos_p] = 0.0
            self._wheel_pos[p_i] = (pos_p + 1) % 8

        # leakage + (IDLE + dynamic) * (clock * f_scale), preserving the
        # reference's operation association exactly.
        f = self._clock_hz * np.where(active, self.frequency_scale, 0.0)
        powers = self._leakage + (IDLE_DYNAMIC_ENERGY + dyn) * f
        return powers, launched

    def _complete_loads(self, cycle: int, active: np.ndarray) -> None:
        refresh_s: List[int] = []
        refresh_w: List[int] = []
        for s in np.nonzero(active & (self._next_pending <= cycle))[0]:
            heap = self._pending[s]
            while heap and heap[0][0] <= cycle:
                _, w, reg = heapq.heappop(heap)
                if self._ready_at[s, w, reg] == _PENDING:
                    self._ready_at[s, w, reg] = cycle
                self._outstanding[s, w] -= 1
                refresh_s.append(s)
                refresh_w.append(w)
            self._next_pending[s] = heap[0][0] if heap else _FAR
        self._refresh_heads(np.asarray(refresh_s), np.asarray(refresh_w))

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def issue_rates(self) -> np.ndarray:
        out = np.zeros(self.num_sms)
        np.divide(
            self.stat_instructions,
            self.stat_active,
            out=out,
            where=self.stat_active > 0,
        )
        return out


class _SMStatsView:
    """Live :class:`SMStatistics`-shaped window into the engine arrays."""

    __slots__ = ("_engine", "_sm_id")

    def __init__(self, engine: VectorizedGPUEngine, sm_id: int) -> None:
        self._engine = engine
        self._sm_id = sm_id

    @property
    def cycles(self) -> int:
        return int(self._engine.stat_cycles[self._sm_id])

    @property
    def active_cycles(self) -> int:
        return int(self._engine.stat_active[self._sm_id])

    @property
    def instructions_issued(self) -> int:
        return int(self._engine.stat_instructions[self._sm_id])

    @property
    def fake_instructions(self) -> int:
        return int(self._engine.stat_fakes[self._sm_id])

    @property
    def issue_stall_cycles(self) -> int:
        return int(self._engine.stat_stalls[self._sm_id])

    @property
    def kernels_completed(self) -> int:
        return int(self._engine.stat_kernels[self._sm_id])

    @property
    def issue_rate(self) -> float:
        active = self.active_cycles
        if active == 0:
            return 0.0
        return self.instructions_issued / active

    def snapshot(self) -> SMStatistics:
        """Detached copy as the reference dataclass."""
        return SMStatistics(
            cycles=self.cycles,
            active_cycles=self.active_cycles,
            instructions_issued=self.instructions_issued,
            fake_instructions=self.fake_instructions,
            issue_stall_cycles=self.issue_stall_cycles,
            kernels_completed=self.kernels_completed,
        )


class SMView:
    """Per-SM facade over the vectorized engine.

    Presents the :class:`StreamingMultiprocessor` surface that
    experiments and tests use — actuation setters, live statistics,
    gating, and the (lazily materialized) warp list describing the
    current kernel generation's streams.
    """

    def __init__(self, engine: VectorizedGPUEngine, sm_id: int) -> None:
        self._engine = engine
        self.sm_id = sm_id
        self.stats = _SMStatsView(engine, sm_id)
        self._warps_cache: Optional[Tuple[int, List[Warp]]] = None

    # -- actuation ------------------------------------------------------
    @property
    def issue_width_setting(self) -> float:
        return float(self._engine.issue_width[self.sm_id])

    @property
    def fake_rate(self) -> float:
        return float(self._engine.fake_rate[self.sm_id])

    @property
    def frequency_scale(self) -> float:
        return float(self._engine.frequency_scale[self.sm_id])

    def set_issue_width(self, width: float) -> None:
        self._engine.set_issue_width(self.sm_id, width)

    def set_fake_rate(self, rate: float) -> None:
        self._engine.set_fake_rate(self.sm_id, rate)

    def set_frequency_scale(self, scale: float) -> None:
        self._engine.set_frequency_scale(self.sm_id, scale)

    # -- power gating ---------------------------------------------------
    @property
    def gated_units(self) -> Set[ExecUnit]:
        return self._engine.gated_sets[self.sm_id]

    def gate_unit(self, unit: ExecUnit) -> None:
        self._engine.gate_unit(self.sm_id, unit)

    def ungate_unit(self, unit: ExecUnit, cycle: int) -> None:
        self._engine.ungate_unit(self.sm_id, unit, cycle)

    @property
    def unit_idle_cycles(self) -> Dict[ExecUnit, int]:
        return {
            unit: int(self._engine.unit_idle[self.sm_id, i])
            for i, unit in enumerate(UNIT_ORDER)
        }

    # -- execution state ------------------------------------------------
    @property
    def _kernel_generation(self) -> int:
        return self._engine.generation

    @property
    def kernel_done(self) -> bool:
        return bool(self._engine.kernel_done_mask()[self.sm_id])

    @property
    def warps(self) -> List[Warp]:
        """The current generation's warps, materialized as objects.

        A *workload description* (instruction streams and jittered
        lengths exactly as the reference would build them), not live
        execution state — the engine holds PCs and scoreboards as
        arrays.  Cached per kernel generation.
        """
        engine = self._engine
        gen = engine.generation
        if self._warps_cache is None or self._warps_cache[0] != gen:
            seed = engine._base_seed + 7919 * gen
            jseed = engine._jitter_seeds[self.sm_id] + 7919 * gen
            self._warps_cache = (
                gen,
                build_warps(
                    engine.kernel, seed, jitter=engine.jitter, jitter_seed=jseed
                ),
            )
        return self._warps_cache[1]
