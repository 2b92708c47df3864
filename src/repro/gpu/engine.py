"""Struct-of-arrays GPU engine: all 16 SMs stepped by one C call.

The GPU model's state lives here as ``(num_sms, ...)`` arrays, and the
native library's step kernel (``_enginec.c``, see :mod:`repro.native`)
advances every SM per cycle in place on them.

Its oracle is the per-object model in ``tests/oracles/per_object_gpu.py``
(a ``StreamingMultiprocessor`` object per SM, a ``Warp`` object per
warp), and the contract is **bit-identical** output: per-cycle power
vectors and every statistic match exactly for the same seed.  The C
step is a sequential transliteration of the oracle SM's ``step()``; the
Python side keeps what must match the oracle at the float-operation
level outside it:

* the DIWS budget of a fresh window uses the same ``round()``
  (banker's) as the SM;
* leakage is computed by the *same* :meth:`SMPowerModel.leakage_w` on a
  mirrored per-SM ``set`` receiving the identical add/discard sequence,
  so the set-iteration float-sum order matches;
* the actuation setters clamp as the SM's per-SM setters do.

Scoreboards are a ``(sms, warps, 17)`` ready-at table (column 16 is a
dummy register for dest-less instructions, so readiness is a plain
``max``), with sentinels for "never written" and "load in flight".
Each warp's head readiness and head unit are cached (``_ready_cycle``,
``_head_unit``; see :meth:`VectorizedGPUEngine._refresh_heads`).  A
launch drops the loads still in flight, as the oracle does: they
belong to the kernel that issued them.

Warp selection is greedy-then-oldest, or GATES (gating-aware) for the
Warped-Gates power-gating study: GTO over the ready warps whose next
instruction targets a unit the power-gating controller last saw powered
on (:meth:`VectorizedGPUEngine.set_active_units`).

The GPU facade (:class:`repro.gpu.gpu.GPU`) owns one engine and exposes
per-SM views (:class:`SMView`) so consumers (experiments, the
power-gating controller, tests) read per-SM statistics and issue per-SM
actuation.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import native
from repro.gpu.isa import ENERGY, ExecUnit, InstructionClass
from repro.gpu.kernels import (
    _NUM_REGS,
    KernelSpec,
    StreamArrays,
    UNIT_ORDER,
    jittered_lengths,
    stream_arrays,
)
from repro.gpu.memory import MemorySystem
from repro.gpu.power import IDLE_DYNAMIC_ENERGY, SMPowerModel

# Cycles a gated unit needs to wake before accepting work (Blackout).
WAKEUP_CYCLES = 3

DIWS_WINDOW = 10  # cycles per issue-budget window


_UNIT_INDEX: Dict[ExecUnit, int] = {u: i for i, u in enumerate(UNIT_ORDER)}
_FAKE_ENERGY = ENERGY[InstructionClass.FAKE]  # latency 1 -> span 1, share=E

# Scoreboard sentinels in the int64 ready-at table (RA_NEVER and
# RA_PENDING in _enginec.c).  "Ready" is the single comparison
# ``ready_at <= cycle``: a register never written is always ready (very
# negative), a load in flight never is (very positive) until its
# completion pops and writes the release cycle.
_NEVER = -(1 << 62)
_FAR = 1 << 62  # done-warp ready cycle

#: Warps per SM the C engine can run: its pending-load heap keys pack
#: the warp index into 16 bits.
MAX_WARPS_PER_SM = (1 << 16) - 1


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
        ("gates", _I64),
        ("clock_hz", _F64),
        ("idle_energy", _F64),
        ("fake_energy", _F64),
        ("slot_width", _F64),
        ("issue_width", _PTR),
        ("fake_rate", _PTR),
        ("freq_scale", _PTR),
        ("gated", _PTR),
        ("active", _PTR),
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
    """All SMs of one GPU as struct-of-arrays state, stepped per cycle.

    ``gating_aware`` selects GATES warp selection instead of GTO.
    Raises :class:`ValueError` for a kernel with more warps per SM than
    :data:`MAX_WARPS_PER_SM`, and :class:`repro.native.NativeBuildError`
    when the native library is unavailable.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        num_sms: int,
        memory: MemorySystem,
        power_model: SMPowerModel,
        seed: int = 0,
        jitter: float = 0.0,
        gating_aware: bool = False,
    ) -> None:
        if kernel.warps_per_sm > MAX_WARPS_PER_SM:
            raise ValueError(
                f"kernel {kernel.name!r} has {kernel.warps_per_sm} warps per "
                f"SM; the C engine runs at most {MAX_WARPS_PER_SM}"
            )
        self.kernel = kernel
        self.num_sms = num_sms
        self.num_warps = kernel.warps_per_sm
        self.memory = memory
        self.power_model = power_model
        self.jitter = jitter
        self._base_seed = seed
        # SPMD: every SM shares the stream seed; only the jitter seed
        # differs per SM.
        self._jitter_seeds = [seed * 65_537 + sm_id + 1 for sm_id in range(num_sms)]
        self.generation = 0
        self._clock_hz = power_model.gpu.sm_clock_hz
        self._clib = native.load()
        #: The step backend, read into bench fingerprints.
        self.backend = "c"

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
        self.gating_aware = bool(gating_aware)
        # GATES: the units each SM's power-gating controller last saw
        # powered on (all on until it writes them).
        self._active = np.ones((S, 3), dtype=bool)
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
        # Every warp, as the launch's head refresh indexes it.
        self._all_s = np.repeat(np.arange(S), W)
        self._all_w = np.tile(np.arange(W), S)

        self._streams: Optional[StreamArrays] = None
        self._miss_table: Optional[np.ndarray] = None

        # The C step's own state: per-SM pending-load heaps, the memory
        # queue slot and counters, the power row, the live-warp count
        # (not done, or loads outstanding; the step keeps it and its
        # census reads it) and the census's kernel-done flags (count in
        # _c_ndone; the launch barrier ORs a barrier-exempt mask in).
        # A heap holds at most one load per (warp, register): a warp
        # cannot issue while a register its head instruction reads or
        # writes has a load in flight, and a launch empties the heaps.
        self._cheap = np.zeros((S, W * _NUM_REGS), dtype=np.int64)
        self._cheap_len = np.zeros(S, dtype=np.int64)
        self._mem_slot = np.zeros(1)
        self._mem_counters = np.zeros(2, dtype=np.int64)
        self._powers_buf = np.zeros(S)
        self._live = np.zeros(S, dtype=np.int64)
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

        Matches the oracle SM's ``start_new_kernel``: fresh
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
        self._miss_table = self.memory.site_miss_table(
            self.num_warps, int(self._length.max()) + 1, generation
        )
        self._refresh_heads(self._all_s, self._all_w)  # also clears done
        self._cheap_len[:] = 0
        self._live[:] = self.num_warps
        self._c_ndone = 0
        self._done_buf[:] = False
        if first:
            self._build_cstate()
        else:
            self._point_cstate_at_generation()

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
            heap_cap=self._cheap.shape[1],
            dram_cycles=timings.dram_cycles,
            l2_cycles=timings.l2_hit_cycles,
            gates=int(self.gating_aware),
            clock_hz=self._clock_hz,
            idle_energy=IDLE_DYNAMIC_ENERGY,
            fake_energy=_FAKE_ENERGY,
            slot_width=1.0 / timings.requests_per_cycle,
            issue_width=ptr(self.issue_width),
            fake_rate=ptr(self.fake_rate),
            freq_scale=ptr(self.frequency_scale),
            gated=ptr(self._gated),
            active=ptr(self._active),
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

        The launch refreshes every warp here; between launches the C
        step keeps the same caches with its own refresh_head, after
        each issue (PC advance + dest marked pending) and load
        completion (register released).
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

    def set_active_units(self, sm_id: int, units: Iterable[ExecUnit]) -> None:
        """GATES: the units SM ``sm_id``'s power-gating controller sees on.

        A no-op under GTO, like the oracle SM's.  The row keeps what
        was written: a unit the hypervisor wakes afterwards stays out
        of it until the controller's next write.
        """
        if not self.gating_aware:
            return
        row = self._active[sm_id]
        row[:] = False
        for unit in units:
            row[_UNIT_INDEX[unit]] = True

    def has_demand(self, sm_id: int, unit: ExecUnit) -> bool:
        """Does any unfinished warp's next instruction target ``unit``?"""
        return bool(
            (~self._warp_done[sm_id]
             & (self._head_unit[sm_id] == _UNIT_INDEX[unit])).any()
        )

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
        """Advance all SMs one nominal clock (one ``engine_step`` call).

        Returns ``(powers, launched)`` — the per-SM power vector and
        whether the kernel-launch barrier fired before stepping.  With
        ``out`` the powers are written into the caller's buffer (no
        allocation); otherwise a fresh array is returned each cycle.
        """
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
    """Live window into one SM's counters in the engine arrays."""

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


class SMView:
    """Per-SM facade over the engine.

    The per-SM surface that experiments, the power-gating controller
    and tests use — actuation setters, live statistics, gating and
    GATES's active units — the same surface as the oracle SM.
    """

    def __init__(self, engine: VectorizedGPUEngine, sm_id: int) -> None:
        self._engine = engine
        self.sm_id = sm_id
        self.stats = _SMStatsView(engine, sm_id)

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

    def has_demand(self, unit: ExecUnit) -> bool:
        return self._engine.has_demand(self.sm_id, unit)

    def set_active_units(self, units: Iterable[ExecUnit]) -> None:
        self._engine.set_active_units(self.sm_id, units)

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
