"""Streaming multiprocessor: dual-issue front end with actuation hooks.

Implements the SM microarchitecture of Fig. 6 at the fidelity the
voltage-smoothing study needs:

* up to ``issue_width`` (2) warps dispatched per cycle, subject to the
  scoreboard, execution-block ports (2 ALU blocks, 1 SFU, 1 LSU) and the
  shared memory system;
* **DIWS** — the instruction issue adjuster: a down-counter grants
  ``round(width * window)`` issue slots per ``window`` cycles, giving
  fractional effective widths (the paper's "1.7 instructions per cycle
  by setting the down-counter to 17 with a reset every 10 cycles");
* **FII** — fake instruction injection into leftover issue slots, with a
  fractional-rate accumulator;
* per-SM frequency scaling by clock masking (for DFS) and per-unit
  power gating with a wake-up penalty (for Warped-Gates PG);
* a completed kernel re-arms with a derived seed, so the SM produces an
  indefinite workload stream for long co-simulations.

``step(cycle)`` advances one nominal clock cycle and returns the SM's
power draw in watts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.gpu.isa import (
    ExecUnit,
    FAKE_INSTRUCTION,
    Instruction,
    InstructionClass,
)
from repro.gpu.kernels import KernelSpec, build_warps
from repro.gpu.memory import MemorySystem
from repro.gpu.power import SMPowerModel
from repro.gpu.scheduler import GTOScheduler
from repro.gpu.warp import PENDING_MEMORY, Warp

# Ports each execution block accepts per cycle (two 16-core blocks).
UNIT_PORTS = {ExecUnit.ALU: 2, ExecUnit.SFU: 1, ExecUnit.LSU: 1}

# Cycles a gated unit needs to wake before accepting work (Blackout).
WAKEUP_CYCLES = 3

DIWS_WINDOW = 10  # cycles per issue-budget window

# An instruction's dynamic energy is drawn over this many cycles of
# pipeline occupancy (bounded by its latency), which sets the spectral
# content of the SM's power trace as seen by the PDN.
ENERGY_SMEAR_LIMIT = 6


@dataclass
class SMStatistics:
    """Counters accumulated across a run."""

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
    """One SM executing a kernel with voltage-smoothing actuation hooks."""

    ENERGY_WHEEL_SIZE = 8

    def __init__(
        self,
        sm_id: int,
        kernel: KernelSpec,
        memory: MemorySystem,
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
            self.last_cycle_power_w = self.power_model.cycle_power_w(
                (), frequency_scale=0.0, gated_units=self.gated_units
            )
            return self.last_cycle_power_w
        self._clock_accumulator -= 1.0
        self.stats.active_cycles += 1

        self._complete_loads(cycle)
        if self.kernel_done:
            if self.rearm:
                self._rearm_kernel()
            else:
                self.last_cycle_power_w = self.power_model.cycle_power_w(
                    (), frequency_scale=self.frequency_scale,
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

        self.last_cycle_power_w = self.power_model.cycle_power_from_energy(
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
