"""The per-object GPU model, kept as the GPU engine's oracle.

``repro.gpu.GPU`` steps every SM through the struct-of-arrays engine
(``repro.gpu.engine``, one C call per cycle).  This module keeps the
model that engine transliterates: a :class:`StreamingMultiprocessor`
object per SM, a :class:`Warp` with a dict :class:`Scoreboard` per warp,
:class:`Instruction` objects built per warp by :func:`build_warps`, and
the GTO and GATES schedulers as classes.  :class:`PerObjectGPU` steps
the SMs in a Python loop behind the same surface as ``repro.gpu.GPU``.
The engine-equivalence suites, the serial co-sim oracle
(``per_object_gpu=True``), the power-gating suites and
``benchmarks/test_perf_gpu.py`` compare the engine against it byte for
byte.

The bodies below are the former shipped code; what changed is where
they live, the per-cycle power formula inlined from the power model
(:func:`cycle_power_from_energy`), the SM's two power-gating hooks
(``has_demand``, ``set_active_units``), which the power-gating
controller calls on either model, and :class:`PerRequestMemory`, the
memory system's per-load path (formerly ``MemorySystem``'s own
methods), which the SMs call and the engine replaces with a launch's
site miss table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.gpu.engine import DIWS_WINDOW, WAKEUP_CYCLES
from repro.gpu.isa import (
    ENERGY,
    LATENCY,
    UNIT_FOR_CLASS,
    ExecUnit,
    InstructionClass,
)
from repro.gpu.kernels import _NUM_REGS, KernelSpec
from repro.gpu.memory import MemorySystem, MemoryTimings
from repro.gpu.power import IDLE_DYNAMIC_ENERGY, SMPowerModel
from tests.oracles.stream_reference import _draw_stream_fields


# --------------------------------------------------------------------------
# Memory
# --------------------------------------------------------------------------
class PerRequestMemory(MemorySystem):
    """The shared memory system served one load at a time."""

    def __init__(
        self,
        miss_ratio: float = 0.3,
        timings: MemoryTimings = MemoryTimings(),
        seed: int = 0,
    ) -> None:
        super().__init__(miss_ratio, timings, seed)
        self._rng = np.random.default_rng(seed)

    def request(self, cycle: int, key: Optional[tuple] = None) -> int:
        """Issue a load at ``cycle``; return its completion cycle.

        ``key`` identifies the access site (e.g. ``(warp id, pc)``).
        When given, hit/miss is a *deterministic* function of the key —
        so under the SPMD model every SM executing the same code sees
        the same microarchitectural events, the property that keeps
        layer currents balanced (Section III-A).  Without a key the
        outcome is drawn randomly at the configured miss ratio.
        """
        slot_width = 1.0 / self.timings.requests_per_cycle
        start = max(float(cycle), self._next_service_slot)
        self._next_service_slot = start + slot_width
        queue_delay = start - cycle
        if key is not None:
            draw = self._site_hash(key)
        else:
            draw = self._rng.random()
        if draw < self.miss_ratio:
            latency = self.timings.dram_cycles
            self.misses += 1
        else:
            latency = self.timings.l2_hit_cycles
        self.requests_served += 1
        return int(cycle + queue_delay + latency)

    def _site_hash(self, key: tuple) -> float:
        """Stable uniform draw in [0, 1) from an access-site key."""
        h = self._seed * 0x9E3779B1
        for part in key:
            h = (h ^ (int(part) + 0x7F4A7C15)) * 0x85EBCA6B % (1 << 32)
        return h / float(1 << 32)

    @property
    def observed_miss_ratio(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.misses / self.requests_served

    def reset_statistics(self) -> None:
        self.requests_served = 0
        self.misses = 0


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------
@dataclass
class Instruction:
    """One warp-instruction with register dependencies.

    ``dest`` is the written register id (-1 for none); ``srcs`` are read
    register ids.  Register ids are small ints local to the warp.
    """

    op: InstructionClass
    dest: int = -1
    srcs: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def unit(self) -> ExecUnit:
        return UNIT_FOR_CLASS[self.op]

    @property
    def latency(self) -> int:
        return LATENCY[self.op]

    @property
    def energy(self) -> float:
        return ENERGY[self.op]


FAKE_INSTRUCTION = Instruction(InstructionClass.FAKE)


def cycle_power_from_energy(
    model: SMPowerModel,
    dynamic_energy_j: float,
    frequency_scale: float = 1.0,
    gated_units: Iterable[ExecUnit] = (),
) -> float:
    """Total SM power for one cycle given its dynamic energy draw.

    Used by the SM's energy wheel, which smears each instruction's
    energy over its pipeline occupancy before calling this.
    """
    if frequency_scale < 0:
        raise ValueError(f"frequency_scale must be >= 0, got {frequency_scale}")
    f = model.gpu.sm_clock_hz * frequency_scale
    energy = IDLE_DYNAMIC_ENERGY + dynamic_energy_j
    return model.leakage_w(gated_units) + energy * f


def cycle_power_w(
    model: SMPowerModel,
    issued: Iterable[Instruction],
    frequency_scale: float = 1.0,
    gated_units: Iterable[ExecUnit] = (),
) -> float:
    """Total SM power for one cycle with all issue energy up front.

    ``issued`` are the instructions dispatched this cycle (0-2 plus
    fakes); ``frequency_scale`` is f/f_nominal from DFS.
    """
    return cycle_power_from_energy(
        model, sum(i.energy for i in issued), frequency_scale, gated_units
    )


# --------------------------------------------------------------------------
# Warps and the register scoreboard
# --------------------------------------------------------------------------
# Sentinel meaning "pending on an unresolved memory access".
PENDING_MEMORY = -1


class Scoreboard:
    """Register -> ready-cycle map for one warp."""

    def __init__(self) -> None:
        self._ready_at: Dict[int, int] = {}

    def is_ready(self, reg: int, cycle: int) -> bool:
        ready = self._ready_at.get(reg)
        if ready is None:
            return True
        if ready == PENDING_MEMORY:
            return False
        return cycle >= ready

    def mark_pending(self, reg: int, ready_cycle: int) -> None:
        """Record a write to ``reg`` completing at ``ready_cycle``.

        ``PENDING_MEMORY`` marks an unresolved memory access; it is
        released explicitly by :meth:`release`.
        """
        if reg < 0:
            return
        self._ready_at[reg] = ready_cycle

    def release(self, reg: int, cycle: int) -> None:
        """Resolve a memory-pending register at ``cycle``."""
        if self._ready_at.get(reg) == PENDING_MEMORY:
            self._ready_at[reg] = cycle

    def pending_count(self, cycle: int) -> int:
        return sum(
            1
            for ready in self._ready_at.values()
            if ready == PENDING_MEMORY or ready > cycle
        )


@dataclass
class Warp:
    """One warp's execution state within an SM."""

    warp_id: int
    instructions: List[Instruction]
    pc: int = 0
    scoreboard: Scoreboard = field(default_factory=Scoreboard)
    last_issue_cycle: int = -1
    # Registers whose loads are in flight (for release on completion).
    outstanding_loads: int = 0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.instructions)

    def peek(self) -> Optional[Instruction]:
        if self.done:
            return None
        return self.instructions[self.pc]

    def is_ready(self, cycle: int) -> bool:
        """Can the next instruction issue this cycle?"""
        instruction = self.peek()
        if instruction is None:
            return False
        board = self.scoreboard
        if not board.is_ready(instruction.dest, cycle):
            return False
        return all(board.is_ready(reg, cycle) for reg in instruction.srcs)

    def advance(self, cycle: int) -> Instruction:
        """Issue the next instruction (caller must have checked readiness)."""
        instruction = self.instructions[self.pc]
        self.pc += 1
        self.last_issue_cycle = cycle
        return instruction

    @property
    def progress(self) -> float:
        """Fraction of the stream retired (0..1)."""
        if not self.instructions:
            return 1.0
        return self.pc / len(self.instructions)


# --------------------------------------------------------------------------
# Per-warp instruction streams
# --------------------------------------------------------------------------
def _sample_stream(
    spec: KernelSpec, rng: np.random.Generator, length: int
) -> List[Instruction]:
    """Draw one instruction stream from the spec's statistics."""
    classes, op_indices, use_chain, random_src1, add_src2, random_src2 = (
        _draw_stream_fields(spec, rng, length)
    )

    stream: List[Instruction] = []
    last_dest = -1
    next_reg = 0
    for position in range(length):
        op = classes[op_indices[position]]
        dest = next_reg
        next_reg = (next_reg + 1) % _NUM_REGS
        src1 = (
            last_dest
            if (last_dest >= 0 and use_chain[position])
            else int(random_src1[position])
        )
        srcs = (
            (src1, int(random_src2[position])) if add_src2[position] else (src1,)
        )
        if op is InstructionClass.STORE or op is InstructionClass.BRANCH:
            dest = -1
        stream.append(Instruction(op, dest, srcs))
        if dest >= 0:
            last_dest = dest
    return stream


# Cache of generated base streams: under SPMD all 16 SMs request the
# same (spec, seed) streams, so generation runs once per GPU, not per SM.
_STREAM_CACHE: dict = {}
_STREAM_CACHE_LIMIT = 64


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


def _base_streams(
    spec: KernelSpec, seed: int, count: int
) -> List[List[Instruction]]:
    key = _spec_cache_key(spec, seed, count)
    cached = _STREAM_CACHE.get(key)
    if cached is None:
        rng = np.random.default_rng(seed)
        cached = [_sample_stream(spec, rng, spec.body_length) for _ in range(count)]
        if len(_STREAM_CACHE) >= _STREAM_CACHE_LIMIT:
            _STREAM_CACHE.clear()
        _STREAM_CACHE[key] = cached
    return cached


def build_warps(
    spec: KernelSpec,
    seed: int,
    num_warps: Optional[int] = None,
    jitter: float = 0.0,
    jitter_seed: Optional[int] = None,
) -> List[Warp]:
    """Materialize the kernel's warps for one SM.

    ``seed`` draws the instruction streams; under the SPMD execution
    model every SM passes the *same* seed so all SMs run identical code
    (the balance property that motivates GPU voltage stacking).

    ``jitter`` in [0, 1) perturbs each warp's stream length, modelling
    per-SM thread-block tail imbalance; it draws from ``jitter_seed``
    (unique per SM) so SMs diverge only in workload tails, not code.
    """
    if jitter < 0 or jitter >= 1:
        raise ValueError(f"jitter must be in [0,1), got {jitter}")
    jitter_rng = np.random.default_rng(seed if jitter_seed is None else jitter_seed)
    count = num_warps if num_warps is not None else spec.warps_per_sm
    base = _base_streams(spec, seed, count)
    warps: List[Warp] = []
    for warp_id in range(count):
        stream = base[warp_id]
        if jitter > 0:
            scale = 1.0 + jitter * float(jitter_rng.uniform(-1.0, 1.0))
            length = max(1, int(round(spec.body_length * scale)))
            if length <= spec.body_length:
                stream = stream[:length]
            else:
                stream = stream + stream[: length - spec.body_length]
        else:
            stream = list(stream)
        warps.append(Warp(warp_id, stream))
    return warps


# --------------------------------------------------------------------------
# Warp schedulers
# --------------------------------------------------------------------------
class GTOScheduler:
    """Greedy-then-oldest: keep issuing from the warp issued last as
    long as it stays ready, otherwise fall back to the oldest ready warp."""

    def __init__(self) -> None:
        self._last_warp_id: Optional[int] = None

    def select(self, warps: List[Warp], cycle: int) -> Optional[Warp]:
        """Pick the next warp to issue from, or ``None`` if none ready."""
        ready = [w for w in warps if w.is_ready(cycle)]
        if not ready:
            return None
        if self._last_warp_id is not None:
            for warp in ready:
                if warp.warp_id == self._last_warp_id:
                    return warp
        # Oldest = least progressed, ties broken by warp id.
        chosen = min(ready, key=lambda w: (w.pc, w.warp_id))
        self._last_warp_id = chosen.warp_id
        return chosen

    def issued(self, warp: Warp) -> None:
        self._last_warp_id = warp.warp_id

    def reset(self) -> None:
        self._last_warp_id = None


class GatingAwareScheduler(GTOScheduler):
    """GATES: bias selection toward already-active execution units.

    ``active_units`` is written by the power-gating controller each
    cycle with the units it sees powered on; ready warps whose next
    instruction needs an active unit are preferred, so gated units stay
    idle longer and the break-even condition of power gating is met
    more often.
    """

    def __init__(self) -> None:
        super().__init__()
        self.active_units: Set[ExecUnit] = set(ExecUnit)

    def set_active_units(self, units: Iterable[ExecUnit]) -> None:
        self.active_units = set(units)

    def select(self, warps: List[Warp], cycle: int) -> Optional[Warp]:
        ready = [w for w in warps if w.is_ready(cycle)]
        if not ready:
            return None
        preferred = [
            w for w in ready if w.peek() is not None and w.peek().unit in self.active_units
        ]
        pool = preferred if preferred else ready
        if self._last_warp_id is not None:
            for warp in pool:
                if warp.warp_id == self._last_warp_id:
                    return warp
        chosen = min(pool, key=lambda w: (w.pc, w.warp_id))
        self._last_warp_id = chosen.warp_id
        return chosen


# --------------------------------------------------------------------------
# The streaming multiprocessor
# --------------------------------------------------------------------------
# Ports each execution block accepts per cycle (two 16-core blocks).
UNIT_PORTS = {ExecUnit.ALU: 2, ExecUnit.SFU: 1, ExecUnit.LSU: 1}

# An instruction's dynamic energy is drawn over this many cycles of
# pipeline occupancy (bounded by its latency).
ENERGY_SMEAR_LIMIT = 6


@dataclass
class SMStatistics:
    """One SM's counters accumulated across a run."""

    cycles: int = 0
    active_cycles: int = 0
    instructions_issued: int = 0
    fake_instructions: int = 0
    issue_stall_cycles: int = 0
    kernels_completed: int = 0

    @property
    def issue_rate(self) -> float:
        """Real warps issued per active cycle (paper band: 0.8-1.8)."""
        if self.active_cycles == 0:
            return 0.0
        return self.instructions_issued / self.active_cycles


class StreamingMultiprocessor:
    """One SM executing a kernel with voltage-smoothing actuation hooks.

    Up to two warps dispatch per cycle, subject to the scoreboard, the
    execution-block ports (2 ALU, 1 SFU, 1 LSU) and the shared memory
    system.  DIWS grants ``round(width * DIWS_WINDOW)`` issue slots per
    window; FII fills leftover slots with fake instructions through a
    fractional-rate accumulator; DFS masks clock cycles; power gating
    blocks a unit and wakes it after ``WAKEUP_CYCLES``.  A completed
    kernel re-arms with a derived seed when ``rearm`` is set.
    ``step(cycle)`` advances one nominal clock and returns the SM's
    power draw in watts.
    """

    ENERGY_WHEEL_SIZE = 8

    def __init__(
        self,
        sm_id: int,
        kernel: KernelSpec,
        memory: PerRequestMemory,
        power_model: Optional[SMPowerModel] = None,
        seed: int = 0,
        jitter: float = 0.0,
        scheduler: Optional[GTOScheduler] = None,
        rearm: bool = True,
        jitter_seed: Optional[int] = None,
    ) -> None:
        self.sm_id = sm_id
        self.kernel = kernel
        self.memory = memory
        self.power_model = power_model or SMPowerModel()
        self.scheduler = scheduler or GTOScheduler()
        self.jitter = jitter
        self.rearm = rearm
        self._base_seed = seed
        self._jitter_seed = jitter_seed if jitter_seed is not None else seed
        self._kernel_generation = 0
        self.warps: List[Warp] = build_warps(
            kernel, seed, jitter=jitter, jitter_seed=self._jitter_seed
        )

        # Actuation state --------------------------------------------------
        self.issue_width_setting: float = 2.0  # DIWS target (0..2)
        self.fake_rate: float = 0.0  # FII fakes per cycle (0..2)
        self.frequency_scale: float = 1.0  # DFS f/f_nom (0..1]
        self.gated_units: Set[ExecUnit] = set()
        self._waking_units: dict = {}  # unit -> cycle it becomes usable

        # Internal machinery ------------------------------------------------
        self._issue_budget = self._window_budget()
        self._window_start = 0
        self._fake_accumulator = 0.0
        self._clock_accumulator = 0.0
        self._pending_loads: List[Tuple[int, int, int]] = []  # (cycle, warp, reg)
        # Issued instructions draw their energy over their pipeline
        # occupancy, not in the issue cycle alone: a small energy wheel
        # smears each instruction's energy across the next few cycles.
        self._energy_wheel = [0.0] * self.ENERGY_WHEEL_SIZE
        self._wheel_pos = 0
        self.stats = SMStatistics()
        self.last_cycle_power_w = 0.0
        # Per-unit idle counters for the PG controller.
        self.unit_idle_cycles = {unit: 0 for unit in ExecUnit}

    # ------------------------------------------------------------------
    # Actuation interface (called by controller / hypervisor)
    # ------------------------------------------------------------------
    def set_issue_width(self, width: float) -> None:
        """DIWS: clamp and apply a (possibly fractional) issue width."""
        self.issue_width_setting = min(2.0, max(0.0, float(width)))

    def set_fake_rate(self, rate: float) -> None:
        """FII: clamp and apply fake instructions per cycle."""
        self.fake_rate = min(2.0, max(0.0, float(rate)))

    def set_frequency_scale(self, scale: float) -> None:
        """DFS: clamp and apply the clock-mask fraction."""
        if scale <= 0:
            raise ValueError(f"frequency scale must be positive, got {scale}")
        self.frequency_scale = min(1.0, float(scale))

    def gate_unit(self, unit: ExecUnit) -> None:
        """PG: power-gate an execution block immediately."""
        self.gated_units.add(unit)
        self._waking_units.pop(unit, None)

    def ungate_unit(self, unit: ExecUnit, cycle: int) -> None:
        """PG: begin waking a gated block (usable after WAKEUP_CYCLES).

        The idle counter resets so a just-woken unit is not immediately
        re-gated before demand can reach it (gate thrash).
        """
        if unit in self.gated_units:
            self.gated_units.discard(unit)
            self._waking_units[unit] = cycle + WAKEUP_CYCLES
            self.unit_idle_cycles[unit] = -WAKEUP_CYCLES

    def has_demand(self, unit: ExecUnit) -> bool:
        """PG: does any warp's next instruction target ``unit``?"""
        for warp in self.warps:
            instruction = warp.peek()
            if instruction is not None and instruction.unit is unit:
                return True
        return False

    def set_active_units(self, units: Iterable[ExecUnit]) -> None:
        """GATES: the units the PG controller sees powered on (a no-op
        under GTO)."""
        if isinstance(self.scheduler, GatingAwareScheduler):
            self.scheduler.set_active_units(units)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _window_budget(self) -> int:
        return int(round(self.issue_width_setting * DIWS_WINDOW))

    def _unit_available(self, unit: ExecUnit, cycle: int) -> bool:
        if unit in self.gated_units:
            return False
        wake = self._waking_units.get(unit)
        if wake is not None:
            if cycle < wake:
                return False
            del self._waking_units[unit]
        return True

    def _complete_loads(self, cycle: int) -> None:
        while self._pending_loads and self._pending_loads[0][0] <= cycle:
            _, warp_index, reg = heapq.heappop(self._pending_loads)
            warp = self.warps[warp_index]
            warp.scoreboard.release(reg, cycle)
            warp.outstanding_loads -= 1

    def _rearm_kernel(self) -> None:
        self.start_new_kernel(self._kernel_generation + 1)

    def start_new_kernel(self, generation: int) -> None:
        """Launch the next kernel instance (same spec, derived seed).

        Called by the GPU at kernel-boundary barriers so all SMs launch
        together — the global synchronization a real kernel launch
        provides, which bounds SM-to-SM phase drift.  Loads still in
        flight (a barrier-exempt SM may have some) belong to the kernel
        that issued them and are dropped; their bandwidth slot and miss
        were booked at issue.
        """
        self._kernel_generation = generation
        self._pending_loads = []
        seed = self._base_seed + 7919 * generation
        self.warps = build_warps(
            self.kernel,
            seed,
            jitter=self.jitter,
            jitter_seed=self._jitter_seed + 7919 * generation,
        )
        self.scheduler.reset()
        self.stats.kernels_completed += 1

    @property
    def kernel_done(self) -> bool:
        return all(w.done and w.outstanding_loads == 0 for w in self.warps)

    def step(self, cycle: int) -> float:
        """Advance one nominal clock; return this cycle's power (watts)."""
        self.stats.cycles += 1

        # DFS clock masking: skip execution on masked cycles.
        self._clock_accumulator += self.frequency_scale
        if self._clock_accumulator < 1.0:
            self.last_cycle_power_w = cycle_power_w(
                self.power_model, (), frequency_scale=0.0,
                gated_units=self.gated_units,
            )
            return self.last_cycle_power_w
        self._clock_accumulator -= 1.0
        self.stats.active_cycles += 1

        self._complete_loads(cycle)
        if self.kernel_done:
            if self.rearm:
                self._rearm_kernel()
            else:
                self.last_cycle_power_w = cycle_power_w(
                    self.power_model, (), frequency_scale=self.frequency_scale,
                    gated_units=self.gated_units,
                )
                return self.last_cycle_power_w

        # DIWS window bookkeeping.
        if cycle - self._window_start >= DIWS_WINDOW:
            self._window_start = cycle
            self._issue_budget = self._window_budget()

        issued: List[Instruction] = []
        ports = dict(UNIT_PORTS)
        used_units: Set[ExecUnit] = set()
        hardware_width = 2
        while len(issued) < hardware_width and self._issue_budget > 0:
            warp = self.scheduler.select(self.warps, cycle)
            if warp is None:
                break
            instruction = warp.peek()
            assert instruction is not None
            unit = instruction.unit
            if ports.get(unit, 0) <= 0 or not self._unit_available(unit, cycle):
                # Structural hazard: try the oldest different-unit warp.
                alternative = self._select_alternative(cycle, ports, warp)
                if alternative is None:
                    break
                warp, instruction, unit = alternative
            ports[unit] -= 1
            used_units.add(unit)
            warp.advance(cycle)
            self.scheduler.issued(warp)
            self._issue_budget -= 1
            issued.append(instruction)
            self.stats.instructions_issued += 1
            self._register_result(warp, instruction, cycle)

        if not issued:
            self.stats.issue_stall_cycles += 1

        # FII: fill leftover hardware slots with fake instructions.
        self._fake_accumulator += self.fake_rate
        while (
            self._fake_accumulator >= 1.0
            and len(issued) < hardware_width
            and self._unit_available(ExecUnit.ALU, cycle)
        ):
            self._fake_accumulator -= 1.0
            issued.append(FAKE_INSTRUCTION)
            self.stats.fake_instructions += 1
        self._fake_accumulator = min(self._fake_accumulator, 2.0)

        # PG idle accounting.
        for unit in ExecUnit:
            if unit in used_units:
                self.unit_idle_cycles[unit] = 0
            else:
                self.unit_idle_cycles[unit] += 1

        # Smear each issued instruction's energy over its occupancy.
        wheel = self._energy_wheel
        size = self.ENERGY_WHEEL_SIZE
        pos = self._wheel_pos
        for instruction in issued:
            span = max(1, min(ENERGY_SMEAR_LIMIT, instruction.latency))
            share = instruction.energy / span
            for offset in range(span):
                wheel[(pos + offset) % size] += share
        dynamic_energy = wheel[pos]
        wheel[pos] = 0.0
        self._wheel_pos = (pos + 1) % size

        self.last_cycle_power_w = cycle_power_from_energy(
            self.power_model,
            dynamic_energy,
            frequency_scale=self.frequency_scale,
            gated_units=self.gated_units,
        )
        return self.last_cycle_power_w

    def _select_alternative(self, cycle: int, ports, blocked_warp):
        """Oldest ready warp whose next instruction has a free, live unit."""
        best = None
        for warp in self.warps:
            if warp is blocked_warp or not warp.is_ready(cycle):
                continue
            instruction = warp.peek()
            if instruction is None:
                continue
            unit = instruction.unit
            if ports.get(unit, 0) <= 0 or not self._unit_available(unit, cycle):
                continue
            if best is None or (warp.pc, warp.warp_id) < (best[0].pc, best[0].warp_id):
                best = (warp, instruction, unit)
        return best

    def _register_result(
        self, warp: Warp, instruction: Instruction, cycle: int
    ) -> None:
        if instruction.dest < 0:
            return
        if instruction.op is InstructionClass.LOAD:
            # Access site key: same (warp, pc) on every SM -> same
            # hit/miss outcome, preserving SPMD balance.
            ready = self.memory.request(
                cycle, key=(warp.warp_id, warp.pc, self._kernel_generation)
            )
            warp.scoreboard.mark_pending(instruction.dest, PENDING_MEMORY)
            warp.outstanding_loads += 1
            heapq.heappush(
                self._pending_loads,
                (ready, self.warps.index(warp), instruction.dest),
            )
        else:
            warp.scoreboard.mark_pending(
                instruction.dest, cycle + instruction.latency
            )


# --------------------------------------------------------------------------
# The 16-SM GPU
# --------------------------------------------------------------------------
class PerObjectGPU:
    """The GPU as :class:`StreamingMultiprocessor` objects stepped in a
    Python loop: the surface of ``repro.gpu.GPU`` over the per-object
    model.  ``gating_aware_scheduler`` gives every SM a
    :class:`GatingAwareScheduler` instead of a :class:`GTOScheduler`."""

    def __init__(
        self,
        kernel: KernelSpec,
        config: SystemConfig = SystemConfig(),
        seed: int = 0,
        miss_ratio: float = 0.3,
        jitter: float = 0.0,
        gating_aware_scheduler: bool = False,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.memory = PerRequestMemory(miss_ratio=miss_ratio, seed=seed)
        power_model = SMPowerModel(config.gpu, config.power)
        self.sms: List[StreamingMultiprocessor] = []
        for sm_id in range(config.gpu.num_sms):
            scheduler = (
                GatingAwareScheduler()
                if gating_aware_scheduler
                else GTOScheduler()
            )
            # SPMD: every SM runs the same instruction streams (same
            # stream seed); only the jitter seed differs per SM.  SMs do
            # not self-rearm — the GPU launches kernels at global
            # barriers (below) so phase drift stays bounded.
            self.sms.append(
                StreamingMultiprocessor(
                    sm_id,
                    kernel,
                    self.memory,
                    power_model=power_model,
                    seed=seed,
                    jitter=jitter,
                    scheduler=scheduler,
                    jitter_seed=seed * 65_537 + sm_id + 1,
                    rearm=False,
                )
            )
        self.cycle = 0
        self.kernels_launched = 1
        self.kernel_launch_cycles = [0]
        self._generation = 0
        #: SMs that do not block the kernel-launch barrier.
        self.barrier_exempt: frozenset = frozenset()

    @property
    def num_sms(self) -> int:
        return len(self.sms)

    def step(self) -> np.ndarray:
        """Advance one clock; return per-SM power (watts, flat SM order)."""
        if all(
            sm.kernel_done or sm.sm_id in self.barrier_exempt
            for sm in self.sms
        ):
            self._generation += 1
            for sm in self.sms:
                sm.start_new_kernel(self._generation)
            self.kernels_launched += 1
            self.kernel_launch_cycles.append(self.cycle)
        powers = np.empty(self.num_sms)
        for k, sm in enumerate(self.sms):
            powers[k] = sm.step(self.cycle)
        self.cycle += 1
        return powers

    def step_into(self, out: np.ndarray) -> np.ndarray:
        out[:] = self.step()
        return out

    def run(self, cycles: int) -> np.ndarray:
        """Advance ``cycles`` clocks; return the (cycles, num_sms) trace."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        trace = np.empty((cycles, self.num_sms))
        for step in range(cycles):
            trace[step] = self.step()
        return trace

    def set_issue_widths(self, widths: Sequence[float]) -> None:
        for sm, width in zip(self.sms, widths):
            sm.set_issue_width(width)

    def set_fake_rates(self, rates: Sequence[float]) -> None:
        for sm, rate in zip(self.sms, rates):
            sm.set_fake_rate(rate)

    def set_frequency_scales(self, scales: Sequence[float]) -> None:
        for sm, scale in zip(self.sms, scales):
            sm.set_frequency_scale(scale)

    def issue_rates(self) -> np.ndarray:
        return np.array([sm.stats.issue_rate for sm in self.sms])

    def total_instructions(self) -> int:
        return sum(sm.stats.instructions_issued for sm in self.sms)

    def total_fake_instructions(self) -> int:
        return sum(sm.stats.fake_instructions for sm in self.sms)

    def layer_powers(self, per_sm_power: np.ndarray) -> np.ndarray:
        """Aggregate a per-SM power vector into per-layer totals."""
        stack = self.config.stack
        return per_sm_power.reshape(stack.num_layers, stack.num_columns).sum(axis=1)
