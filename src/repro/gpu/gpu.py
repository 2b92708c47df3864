"""The 16-SM GPU stepping in lockstep.

All SMs run the same kernel (the SPMD execution model that motivates
voltage stacking in a GPU), with per-SM seeds and optional jitter
providing the realistic small activity mismatches that become layer
current imbalance in the stack.  ``step()`` advances every SM one cycle
and returns the per-SM power vector — the signal the PDN co-simulator
converts to layer currents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.gpu.engine import SMView, VectorizedGPUEngine
from repro.gpu.kernels import KernelSpec
from repro.gpu.memory import MemorySystem
from repro.gpu.power import SMPowerModel


class GPU:
    """A Fermi-class GPU: 16 SMs, shared memory system, per-cycle power.

    The struct-of-arrays engine in :mod:`repro.gpu.engine` steps all SMs
    per cycle in one call into the native library; ``self.sms`` holds
    per-SM views exposing statistics, actuation and power gating.
    ``gating_aware_scheduler`` selects GATES warp selection (the
    Warped-Gates study) instead of GTO.  The per-object model the engine
    is held bit-identical to is the test oracle
    ``tests/oracles/per_object_gpu.py``.
    """

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
        self.memory = MemorySystem(miss_ratio=miss_ratio, seed=seed)
        # SPMD: every SM runs the same instruction streams (same stream
        # seed); only the jitter seed differs per SM.  The GPU launches
        # kernels at global barriers (below) so phase drift stays bounded.
        self.engine = VectorizedGPUEngine(
            kernel,
            config.gpu.num_sms,
            self.memory,
            SMPowerModel(config.gpu, config.power),
            seed=seed,
            jitter=jitter,
            gating_aware=gating_aware_scheduler,
        )
        self.sms = [
            SMView(self.engine, sm_id) for sm_id in range(config.gpu.num_sms)
        ]
        self.cycle = 0
        self.kernels_launched = 1
        self.kernel_launch_cycles = [0]
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
        the engine (and a :class:`repro.gpu.batch.GPUBatch`) reads in
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
        powers, launched = self.engine.step(
            self.cycle, self._exempt_mask, bool(self._barrier_exempt)
        )
        if launched:
            self.kernels_launched += 1
            self.kernel_launch_cycles.append(self.cycle)
        self.cycle += 1
        return powers

    def step_into(self, out: np.ndarray) -> np.ndarray:
        """Advance one clock, writing per-SM powers into ``out``.

        Identical semantics to :meth:`step`, but the powers land in the
        caller's buffer (one copy instead of copy-then-assign) — the hot
        path for the batched co-simulator's ``(B, num_sms)`` stepping.
        """
        _, launched = self.engine.step(
            self.cycle, self._exempt_mask, bool(self._barrier_exempt), out=out
        )
        if launched:
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
        self.engine.set_issue_widths(widths)

    def set_fake_rates(self, rates: Sequence[float]) -> None:
        self.engine.set_fake_rates(rates)

    def set_frequency_scales(self, scales: Sequence[float]) -> None:
        self.engine.set_frequency_scales(scales)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def issue_rates(self) -> np.ndarray:
        return self.engine.issue_rates()

    def total_instructions(self) -> int:
        return self.engine.total_instructions

    def total_fake_instructions(self) -> int:
        return self.engine.total_fakes

    def layer_powers(self, per_sm_power: np.ndarray) -> np.ndarray:
        """Aggregate a per-SM power vector into per-layer totals."""
        stack = self.config.stack
        return per_sm_power.reshape(stack.num_layers, stack.num_columns).sum(axis=1)
