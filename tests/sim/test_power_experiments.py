"""Tests for the DFS / PG collaborative power-management drivers."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.hypervisor import HypervisorConfig, VSAwareHypervisor
from repro.gpu.engine import SMView
from repro.power_mgmt.power_gating import WarpedGatesController
from repro.sim import power_experiments
from repro.sim.power_experiments import (
    PowerManagementResult,
    run_baseline,
    run_dfs_experiment,
    run_pg_experiment,
)
from repro.workloads.benchmarks import get_benchmark
from tests.oracles.per_object_gpu import PerObjectGPU

CYCLES_DFS = 2 * 4096
CYCLES_PG = 3000


@pytest.fixture(scope="module")
def baseline():
    return run_baseline("hotspot", stacked=False, cycles=3000)


class TestResultContainer:
    def test_energy_accounting(self, baseline):
        assert baseline.chip_energy_j > 0
        assert baseline.input_energy_j() > baseline.chip_energy_j
        assert baseline.energy_per_instruction_j() > 0

    def test_stacked_pde_above_conventional(self):
        conventional = run_baseline("hotspot", stacked=False, cycles=2000)
        stacked = run_baseline("hotspot", stacked=True, cycles=2000)
        assert stacked.pde() > conventional.pde()

    def test_no_work_rejected(self):
        r = PowerManagementResult(
            "x", False, np.ones((10, 16)), instructions=0, cycles=10
        )
        with pytest.raises(ValueError):
            r.energy_per_instruction_j()


class TestDFS:
    def test_lower_target_lower_power(self):
        high = run_dfs_experiment(
            "hotspot", performance_target=0.9, stacked=False,
            cycles=CYCLES_DFS,
        )
        low = run_dfs_experiment(
            "hotspot", performance_target=0.2, stacked=False,
            cycles=CYCLES_DFS,
        )
        assert low.mean_power_w < high.mean_power_w

    def test_lower_target_fewer_instructions(self):
        high = run_dfs_experiment(
            "hotspot", performance_target=0.9, stacked=False,
            cycles=CYCLES_DFS,
        )
        low = run_dfs_experiment(
            "hotspot", performance_target=0.2, stacked=False,
            cycles=CYCLES_DFS,
        )
        assert low.instructions < high.instructions

    def test_stacked_variant_runs_hypervisor(self):
        run = run_dfs_experiment(
            "hotspot", performance_target=0.5, stacked=True,
            cycles=CYCLES_DFS,
        )
        assert run.stacked
        assert run.frequency_overrides >= 0

    def test_stacked_beats_conventional_energy(self):
        conventional = run_dfs_experiment(
            "hotspot", performance_target=0.5, stacked=False,
            cycles=CYCLES_DFS,
        )
        stacked = run_dfs_experiment(
            "hotspot", performance_target=0.5, stacked=True,
            cycles=CYCLES_DFS,
        )
        assert (
            stacked.energy_per_instruction_j()
            < conventional.energy_per_instruction_j()
        )


class TestPG:
    def test_gating_reduces_power(self):
        baseline = run_baseline("blackscholes", stacked=False, cycles=CYCLES_PG)
        gated = run_pg_experiment("blackscholes", stacked=False, cycles=CYCLES_PG)
        # Gating the idle LSU/SFU shaves leakage power.
        assert gated.mean_power_w < baseline.mean_power_w

    def test_hypervisor_only_on_stacked(self):
        conventional = run_pg_experiment("hotspot", stacked=False, cycles=CYCLES_PG)
        assert conventional.gating_vetoes == 0

    def test_stacked_beats_conventional_energy(self):
        conventional = run_pg_experiment(
            "heartwall", stacked=False, cycles=CYCLES_PG
        )
        stacked = run_pg_experiment(
            "heartwall", stacked=True, cycles=CYCLES_PG
        )
        assert (
            stacked.energy_per_instruction_j()
            < conventional.energy_per_instruction_j()
        )


def _per_object_gpu(benchmark, seed, gating_aware=False):
    """``power_experiments._build_gpu`` on the per-object oracle."""
    spec = get_benchmark(benchmark)
    return PerObjectGPU(
        spec.kernel,
        config=SystemConfig(),
        seed=seed,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
        gating_aware_scheduler=gating_aware,
    )


def _tight_hypervisor():
    """A leakage budget small enough that stacked runs veto gatings."""
    return VSAwareHypervisor(
        config=HypervisorConfig(base_leakage_threshold_w=0.01)
    )


def _pg_run(monkeypatch, on_oracle, tight=False, **kwargs):
    """``run_pg_experiment`` and its controllers, on the engine or the
    oracle GPU."""
    controllers = []

    class Recorded(WarpedGatesController):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            controllers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(power_experiments, "WarpedGatesController", Recorded)
        if on_oracle:
            patch.setattr(power_experiments, "_build_gpu", _per_object_gpu)
        if tight:
            patch.setattr(power_experiments, "VSAwareHypervisor",
                          _tight_hypervisor)
        result = run_pg_experiment(**kwargs)
    return result, controllers


class TestPGOnTheEngine:
    """Warped-Gates PG with GATES runs on the C engine, byte-equal to the
    same run on the per-object oracle GPU."""

    @pytest.mark.parametrize("bench,stacked,tight", [
        ("blackscholes", False, False),
        ("heartwall", True, False),
        ("srad", True, True),
    ], ids=["conventional", "stacked", "forced-vetoes"])
    def test_matches_the_per_object_oracle(self, monkeypatch, bench,
                                           stacked, tight):
        kwargs = dict(benchmark=bench, stacked=stacked, cycles=1000,
                      hypervisor_period=16 if tight else 256)
        run, controllers = _pg_run(monkeypatch, False, tight, **kwargs)
        ref, ref_controllers = _pg_run(monkeypatch, True, tight, **kwargs)
        assert all(isinstance(c.sm, SMView) for c in controllers)
        assert run.trace.tobytes() == ref.trace.tobytes()
        assert run.instructions == ref.instructions
        assert run.gating_vetoes == ref.gating_vetoes
        assert [c.stats for c in controllers] == [
            c.stats for c in ref_controllers
        ]
        assert sum(c.stats.gating_events for c in controllers) > 0
        if tight:
            assert run.gating_vetoes > 0

