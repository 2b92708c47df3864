"""Workloads: the paper's twelve benchmarks plus synthetic stimuli.

The paper evaluates on six Rodinia 2.0 and six NVIDIA CUDA SDK
benchmarks.  Compiled CUDA binaries cannot run here, so each benchmark
is realized as a :class:`~repro.gpu.kernels.KernelSpec` whose statistics
(instruction mix, memory intensity, dependence, phase structure, tail
jitter) are tuned to the paper's qualitative characterizations — e.g.
``backprop`` shows the most layer imbalance, ``heartwall`` the most
uniformity (Fig. 17), and ``pathfinder`` / ``fastwalsh`` /
``simpleatomic`` are the noise-distribution outliers of Fig. 11.
"""

from repro.workloads.benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkSpec,
    get_benchmark,
    list_benchmarks,
)
from repro.workloads.traces import PowerTrace
from repro.workloads.synthetic import (
    layer_shutoff_currents,
    resonance_currents,
    step_currents,
    worst_case_residual_currents,
)

__all__ = [
    "BENCHMARK_NAMES",
    "BenchmarkSpec",
    "PowerTrace",
    "get_benchmark",
    "layer_shutoff_currents",
    "list_benchmarks",
    "resonance_currents",
    "step_currents",
    "worst_case_residual_currents",
]
