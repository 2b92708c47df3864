"""A circuit-only co-sim lane's power trace is the GPU's own.

Every power trace the package analyses (``repro pde``, ``run_baseline``,
the figure harness's ``benchmark_trace``, the noise-spectroscopy
example) is a lane of the co-sim loop with no controller, faults or
shutoff.  Nothing from the PDN reaches the GPU in such a lane, so its
trace equals, byte for byte, a GPU-only ``GPU.run`` of the same
benchmark and seed.  Both settings the callers use are checked on every
paper benchmark: the figures' (seed 11, 4,000 cycles after 300 of
warmup) and ``run_baseline``'s (seed 3, recorded from cycle 0).
"""

import pytest

from repro.config import SystemConfig
from repro.gpu.gpu import GPU
from repro.sim.cosim import CosimConfig, CosimLane, run_cosim_batch
from repro.sim.power_experiments import run_baseline
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark

# name: (seed, recorded cycles, warmup cycles)
SETTINGS = {
    "figures": (11, 4000, 300),
    "run_baseline": (3, 2000, 0),
}


def gpu_only(name, seed, cycles, warmup):
    """The reference: the benchmark's GPU stepped on its own."""
    spec = get_benchmark(name)
    gpu = GPU(
        spec.kernel, config=SystemConfig(), seed=seed,
        miss_ratio=spec.miss_ratio, jitter=spec.jitter,
    )
    if warmup:
        gpu.run(warmup)
    before = gpu.total_instructions()
    data = gpu.run(cycles)
    return data, gpu.total_instructions() - before


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_every_benchmark_lane_is_its_gpu_only_trace(setting):
    seed, cycles, warmup = SETTINGS[setting]
    config = CosimConfig(
        cycles=cycles, warmup_cycles=warmup, use_controller=False, seed=seed,
    )
    results = run_cosim_batch(
        [CosimLane(name, config) for name in BENCHMARK_NAMES]
    )
    clock_hz = SystemConfig().gpu.sm_clock_hz
    for name, result in zip(BENCHMARK_NAMES, results):
        data, instructions = gpu_only(name, seed, cycles, warmup)
        trace = result.power_trace
        assert trace.name == name
        assert trace.frequency_hz == clock_hz
        assert trace.data.shape == data.shape, name
        assert trace.data.tobytes() == data.tobytes(), name
        assert result.instructions == instructions, name


def test_run_baseline_is_the_gpu_only_reference():
    seed, cycles, warmup = SETTINGS["run_baseline"]
    data, instructions = gpu_only("hotspot", seed, cycles, warmup)
    baseline = run_baseline("hotspot", stacked=True, cycles=cycles, seed=seed)
    assert baseline.trace.tobytes() == data.tobytes()
    assert baseline.instructions == instructions
    assert baseline.cycles == cycles
