"""Collaborative power-management experiments (Figs. 15-17).

These drivers couple the GPU timing model with the higher-level power
optimizations and, for the voltage-stacked variants, the VS-aware
hypervisor (Algorithm 2):

* :func:`run_dfs_experiment` — GRAPE-style DFS chasing a performance
  target, with the hypervisor re-mapping per-SM frequencies on the
  stacked GPU;
* :func:`run_pg_experiment` — Warped-Gates power gating with GATES
  scheduling, with the hypervisor vetoing column-unbalancing gatings on
  the stacked GPU;
* :func:`run_baseline` — no power management: a circuit-only lane of
  the co-sim loop, the reference both figures normalize by.

Energy accounting: chip energy integrates the power trace; board input
energy divides by the configuration's PDE (analytic model fed with the
trace's measured layer imbalance).  Normalizing by work (instructions)
makes runs of different speed comparable — the basis of the Fig. 15/16
"normalized energy" bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.config import StackConfig, SystemConfig
from repro.core.hypervisor import VSAwareHypervisor
from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit
from repro.pdn.efficiency import (
    layer_shuffle_power,
    pde_conventional,
    pde_voltage_stacked,
)
from repro.power_mgmt.dfs import DFSConfig, GrapeDFSController
from repro.power_mgmt.power_gating import (
    PowerGatingConfig,
    WarpedGatesController,
)
from repro.sim.cosim import CosimConfig, run_cosim
from repro.workloads.benchmarks import get_benchmark


@dataclass
class PowerManagementResult:
    """Outcome of one DFS or PG experiment."""

    benchmark: str
    stacked: bool
    trace: np.ndarray  # (cycles, num_sms) watts
    instructions: int
    cycles: int
    frequency_overrides: int = 0
    gating_vetoes: int = 0

    @property
    def mean_power_w(self) -> float:
        return float(self.trace.sum(axis=1).mean())

    @property
    def chip_energy_j(self) -> float:
        return float(self.trace.sum()) / 700e6

    def pde(self) -> float:
        load = self.mean_power_w
        if not self.stacked:
            return pde_conventional(load).pde
        shuffle = layer_shuffle_power(self.trace, StackConfig())
        return pde_voltage_stacked(
            load, shuffle, controller_power_w=1.634e-3
        ).pde

    def input_energy_j(self) -> float:
        return self.chip_energy_j / self.pde()

    def energy_per_instruction_j(self) -> float:
        """Board-input energy per unit of work — the Fig. 15/16 metric."""
        if self.instructions <= 0:
            raise ValueError("no work executed")
        return self.input_energy_j() / self.instructions


def _build_gpu(benchmark: str, seed: int, gating_aware: bool = False) -> GPU:
    spec = get_benchmark(benchmark)
    return GPU(
        spec.kernel,
        config=SystemConfig(),
        seed=seed,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
        gating_aware_scheduler=gating_aware,
    )


def run_dfs_experiment(
    benchmark: str = "hotspot",
    performance_target: float = 0.7,
    stacked: bool = True,
    cycles: int = 6 * 4096,
    seed: int = 3,
    dfs_config: DFSConfig = DFSConfig(),
) -> PowerManagementResult:
    """GRAPE DFS on a conventional or voltage-stacked GPU.

    On the stacked GPU every per-SM frequency request passes through the
    VS-aware hypervisor, which clamps intra-column frequency spread.
    """
    gpu = _build_gpu(benchmark, seed)
    controller = GrapeDFSController(
        num_sms=gpu.num_sms,
        performance_target=performance_target,
        config=dfs_config,
    )
    hypervisor = VSAwareHypervisor() if stacked else None
    period = dfs_config.decision_period_cycles

    # Calibration pass: one period at full speed per SM.
    baseline_start = np.array(
        [sm.stats.instructions_issued for sm in gpu.sms]
    )
    calibration = gpu.run(period)
    baseline = (
        np.array([sm.stats.instructions_issued for sm in gpu.sms])
        - baseline_start
    )
    controller.calibrate_baseline(np.maximum(baseline, 1.0))

    trace_chunks: List[np.ndarray] = [calibration]
    instructions_before = gpu.total_instructions()
    overrides = 0
    remaining = cycles
    while remaining > 0:
        chunk = min(period, remaining)
        before = np.array([sm.stats.instructions_issued for sm in gpu.sms])
        trace_chunks.append(gpu.run(chunk))
        measured = (
            np.array([sm.stats.instructions_issued for sm in gpu.sms]) - before
        )
        requested = controller.decide(measured * (period / chunk))
        if hypervisor is not None:
            before_overrides = hypervisor.frequency_overrides
            requested = hypervisor.map_frequencies(requested)
            overrides += hypervisor.frequency_overrides - before_overrides
        gpu.set_frequency_scales(requested / dfs_config.nominal_frequency_hz)
        remaining -= chunk

    trace = np.vstack(trace_chunks[1:])  # exclude the calibration period
    return PowerManagementResult(
        benchmark=benchmark,
        stacked=stacked,
        trace=trace,
        instructions=gpu.total_instructions() - instructions_before,
        cycles=cycles,
        frequency_overrides=overrides,
    )


def run_pg_experiment(
    benchmark: str = "hotspot",
    stacked: bool = True,
    cycles: int = 6000,
    seed: int = 3,
    pg_config: PowerGatingConfig = PowerGatingConfig(),
    hypervisor_period: int = 256,
) -> PowerManagementResult:
    """Warped-Gates power gating on a conventional or stacked GPU.

    On the stacked GPU, every ``hypervisor_period`` cycles the current
    gating state is re-validated through Algorithm 2: gatings that push
    a column's leakage imbalance past budget are woken back up.
    """
    gpu = _build_gpu(benchmark, seed, gating_aware=True)
    controllers = [WarpedGatesController(sm, pg_config) for sm in gpu.sms]
    hypervisor = VSAwareHypervisor() if stacked else None

    trace = np.empty((cycles, gpu.num_sms))
    instructions_before = gpu.total_instructions()
    vetoes = 0
    for cycle in range(cycles):
        for controller in controllers:
            controller.step(cycle)
        if hypervisor is not None and cycle % hypervisor_period == 0:
            requested: List[Set[ExecUnit]] = [
                set(sm.gated_units) for sm in gpu.sms
            ]
            before_vetoes = hypervisor.gating_vetoes
            granted = hypervisor.map_gating(requested)
            vetoes += hypervisor.gating_vetoes - before_vetoes
            for sm, allowed in zip(gpu.sms, granted):
                for unit in list(sm.gated_units):
                    if unit not in allowed:
                        sm.ungate_unit(unit, cycle)
        trace[cycle] = gpu.step()

    return PowerManagementResult(
        benchmark=benchmark,
        stacked=stacked,
        trace=trace,
        instructions=gpu.total_instructions() - instructions_before,
        cycles=cycles,
        gating_vetoes=vetoes,
    )


def run_baseline(
    benchmark: str, stacked: bool, cycles: int = 6000, seed: int = 3
) -> PowerManagementResult:
    """No power management: the Fig. 15/16 normalization reference.

    One circuit-only co-sim lane recorded from cycle 0: with no
    controller, faults or shutoff nothing from the PDN reaches the GPU,
    so its power trace is the unmanaged GPU's own.
    """
    run = run_cosim(benchmark, CosimConfig(
        cycles=cycles, warmup_cycles=0, use_controller=False, seed=seed,
    ))
    return PowerManagementResult(
        benchmark=benchmark,
        stacked=stacked,
        trace=run.power_trace.data,
        instructions=run.instructions,
        cycles=cycles,
    )
