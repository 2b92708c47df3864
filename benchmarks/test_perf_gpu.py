"""GPU-model hot-path performance: vectorized engine vs reference SMs.

Times the struct-of-arrays engine (``repro.gpu.engine``) against the
retained per-object reference on a paper benchmark, asserting both the
speedup floor and exact bit-identity of the per-cycle power traces (the
engine's equivalence contract — see ``docs/performance.md``).

The engine steps through the native library's C kernel.

Writes ``benchmarks/results/perf_gpu.json`` so CI can upload the
cycles/s numbers as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, SEED, emit
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.gpu.gpu import GPU
from repro.workloads.benchmarks import get_benchmark

BENCHMARK = "hotspot"
COMPARE_CYCLES = 1500
TIMING_ROUNDS = 3
# About half the C engine's measured speedup (52.9x on hotspot).
SPEEDUP_FLOOR = 25.0


def _make(vectorized: bool) -> GPU:
    spec = get_benchmark(BENCHMARK)
    return GPU(
        spec.kernel,
        config=SystemConfig(),
        seed=SEED,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
        vectorized=vectorized,
    )


def _cycles_per_second(vectorized: bool, cycles: int) -> float:
    """Best of TIMING_ROUNDS rounds (robust on a noisy shared core)."""
    gpu = _make(vectorized)
    gpu.run(50)  # warm caches / stream tables / allocator
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        gpu.run(cycles)
        best = min(best, time.perf_counter() - start)
    return cycles / best


def test_bit_identity():
    ref = _make(vectorized=False)
    vec = _make(vectorized=True)
    assert np.array_equal(ref.run(COMPARE_CYCLES), vec.run(COMPARE_CYCLES))
    assert ref.total_instructions() == vec.total_instructions()
    assert ref.total_fake_instructions() == vec.total_fake_instructions()
    assert ref.kernels_launched == vec.kernels_launched


def test_gpu_cycles_per_second(benchmark):
    reference = benchmark.pedantic(
        _cycles_per_second, args=(False, 2000), rounds=1, iterations=1
    )
    fast = _cycles_per_second(True, 50_000)
    speedup = fast / reference
    emit(
        "GPU model hot path (16 SMs, hotspot kernel)",
        format_table(
            ["path", "cycles/s"],
            [
                ["per-object reference", f"{reference:,.0f}"],
                ["vectorized (C)", f"{fast:,.0f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title=f"GPU stepping throughput ({BENCHMARK})",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_gpu.json", "w") as handle:
        json.dump(
            {
                "benchmark": BENCHMARK,
                "reference_cycles_per_s": reference,
                "vectorized_cycles_per_s": fast,
                "speedup": speedup,
                "floor": SPEEDUP_FLOOR,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    assert speedup >= SPEEDUP_FLOOR
