"""The 16-SM GPU stepping in lockstep.

All SMs run the same kernel (the SPMD execution model that motivates
voltage stacking in a GPU), with per-SM seeds and optional jitter
providing the realistic small activity mismatches that become layer
current imbalance in the stack.  ``step()`` advances every SM one cycle
and returns the per-SM power vector — the signal the PDN co-simulator
converts to layer currents.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import GPUConfig, PowerConfig, StackConfig, SystemConfig
from repro.gpu.engine import SMView, VectorizedGPUEngine
from repro.gpu.kernels import KernelSpec
from repro.gpu.memory import MemorySystem
from repro.gpu.power import SMPowerModel
from repro.gpu.scheduler import GatingAwareScheduler, GTOScheduler
from repro.gpu.sm import StreamingMultiprocessor


class GPU:
    """A Fermi-class GPU: 16 SMs, shared memory system, per-cycle power.

    Two interchangeable, bit-identical execution engines back the model:

    * ``vectorized=True`` (default): the struct-of-arrays engine in
      :mod:`repro.gpu.engine`, stepping all SMs per cycle as NumPy
      array operations.  ``self.sms`` holds per-SM views that expose
      the same statistics/actuation surface as the object model.
    * ``vectorized=False``: the retained per-object reference —
      :class:`StreamingMultiprocessor` instances stepped in a Python
      loop.  The equivalence suite (``tests/gpu/test_engine_equivalence``)
      holds the two bit-identical per cycle.

    The Warped-Gates study's gating-aware scheduler needs the
    per-object scheduler coupling, so ``gating_aware_scheduler=True``
    always uses the reference engine.
    """

    def __init__(
        self,
        kernel: KernelSpec,
        config: SystemConfig = SystemConfig(),
        seed: int = 0,
        miss_ratio: float = 0.3,
        jitter: float = 0.0,
        gating_aware_scheduler: bool = False,
        vectorized: bool = True,
    ) -> None:
        self.config = config
        self.kernel = kernel
        self.memory = MemorySystem(miss_ratio=miss_ratio, seed=seed)
        power_model = SMPowerModel(config.gpu, config.power)
        self.vectorized = bool(vectorized) and not gating_aware_scheduler
        if self.vectorized:
            self.engine: Optional[VectorizedGPUEngine] = VectorizedGPUEngine(
                kernel,
                config.gpu.num_sms,
                self.memory,
                power_model,
                seed=seed,
                jitter=jitter,
            )
            self.sms = [
                SMView(self.engine, sm_id)
                for sm_id in range(config.gpu.num_sms)
            ]
        else:
            self.engine = None
            self.sms: List[StreamingMultiprocessor] = []
            for sm_id in range(config.gpu.num_sms):
                scheduler = (
                    GatingAwareScheduler()
                    if gating_aware_scheduler
                    else GTOScheduler()
                )
                # SPMD: every SM runs the same instruction streams (same
                # stream seed); only the jitter seed differs per SM.  SMs
                # do not self-rearm — the GPU launches kernels at global
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
        self._exempt_mask = np.zeros(config.gpu.num_sms, dtype=bool)
        self._barrier_exempt: frozenset = frozenset()

    @property
    def num_sms(self) -> int:
        return len(self.sms)

    @property
    def barrier_exempt(self) -> frozenset:
        """SMs that do not block the kernel-launch barrier.

        Used to model halted/powered-off SMs in worst-case experiments.
        Assign a new set to change it: the setter keeps the per-SM mask
        the engines (and a :class:`repro.gpu.batch.GPUBatch`) read in
        step with it.
        """
        return self._barrier_exempt

    @barrier_exempt.setter
    def barrier_exempt(self, sms) -> None:
        sms = frozenset(sms)
        if sms == self._barrier_exempt:
            return
        self._barrier_exempt = sms
        mask = self._exempt_mask
        mask[:] = False
        if sms:
            mask[list(sms)] = True

    def step(self) -> np.ndarray:
        """Advance one clock; return per-SM power (watts, flat SM order).

        When every SM has drained its kernel instance, the next kernel
        launches on all SMs simultaneously — the global barrier a real
        kernel launch provides under the SPMD model.  SMs that finish
        early idle at base power until the barrier (the tail imbalance
        the per-SM jitter models).
        """
        if self.vectorized:
            powers, launched = self.engine.step(
                self.cycle, self._exempt_mask, bool(self._barrier_exempt)
            )
            if launched:
                self._generation = self.engine.generation
                self.kernels_launched += 1
                self.kernel_launch_cycles.append(self.cycle)
            self.cycle += 1
            return powers
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
        """Advance one clock, writing per-SM powers into ``out``.

        Identical semantics to :meth:`step`, but the powers land in the
        caller's buffer (one copy instead of copy-then-assign) — the hot
        path for the batched co-simulator's ``(B, num_sms)`` stepping.
        """
        if not self.vectorized:
            out[:] = self.step()
            return out
        _, launched = self.engine.step(
            self.cycle, self._exempt_mask, bool(self._barrier_exempt), out=out
        )
        if launched:
            self._generation = self.engine.generation
            self.kernels_launched += 1
            self.kernel_launch_cycles.append(self.cycle)
        self.cycle += 1
        return out

    def run(self, cycles: int) -> np.ndarray:
        """Advance ``cycles`` clocks; return the (cycles, num_sms) trace."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        trace = np.empty((cycles, self.num_sms))
        for step in range(cycles):
            trace[step] = self.step()
        return trace

    # ------------------------------------------------------------------
    # Actuation fan-out (used by the controller and the hypervisor)
    # ------------------------------------------------------------------
    def set_issue_widths(self, widths: Sequence[float]) -> None:
        if self.vectorized:
            self.engine.set_issue_widths(widths)
            return
        for sm, width in zip(self.sms, widths):
            sm.set_issue_width(width)

    def set_fake_rates(self, rates: Sequence[float]) -> None:
        if self.vectorized:
            self.engine.set_fake_rates(rates)
            return
        for sm, rate in zip(self.sms, rates):
            sm.set_fake_rate(rate)

    def set_frequency_scales(self, scales: Sequence[float]) -> None:
        if self.vectorized:
            self.engine.set_frequency_scales(scales)
            return
        for sm, scale in zip(self.sms, scales):
            sm.set_frequency_scale(scale)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def issue_rates(self) -> np.ndarray:
        if self.vectorized:
            return self.engine.issue_rates()
        return np.array([sm.stats.issue_rate for sm in self.sms])

    def total_instructions(self) -> int:
        if self.vectorized:
            return self.engine.total_instructions
        return sum(sm.stats.instructions_issued for sm in self.sms)

    def total_fake_instructions(self) -> int:
        if self.vectorized:
            return self.engine.total_fakes
        return sum(sm.stats.fake_instructions for sm in self.sms)

    def layer_powers(self, per_sm_power: np.ndarray) -> np.ndarray:
        """Aggregate a per-SM power vector into per-layer totals."""
        stack = self.config.stack
        return per_sm_power.reshape(stack.num_layers, stack.num_columns).sum(axis=1)
