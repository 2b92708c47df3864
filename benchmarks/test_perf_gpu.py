"""GPU-model hot-path performance: the engine vs the per-object oracle.

Times the struct-of-arrays engine (``repro.gpu.engine``) against the
per-object oracle GPU (``tests/oracles/per_object_gpu.py``) on a paper
benchmark, asserting both the speedup floor and exact bit-identity of
the per-cycle power traces (the engine's equivalence contract — see
``docs/performance.md``).

The engine steps through the native library's C kernel.  A kernel
launch seeds its own PCG64s in C: the launch floor holds a jittered
hotspot launch (one stream seed and one per SM) under
``LAUNCH_FLOOR`` times what building its 17 ``np.random.PCG64``s costs,
both timed as the min of repeats in one process, so host speed cancels.

Writes ``benchmarks/results/perf_gpu.json`` so CI can upload the
cycles/s numbers as an artifact.
"""

import json
import time
import timeit

import numpy as np

from conftest import RESULTS_DIR, SEED, emit
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.gpu.gpu import GPU
from repro.workloads.benchmarks import get_benchmark
from tests.oracles.per_object_gpu import PerObjectGPU

BENCHMARK = "hotspot"
COMPARE_CYCLES = 1500
TIMING_ROUNDS = 3
# About half the C engine's measured speedup (52.9x on hotspot).
SPEEDUP_FLOOR = 25.0
# A launch over the NumPy seeding it replaced (0.21-0.40x with C
# seeding on a 2-vCPU VM; 1.28-1.40x when Python built the PCG64s).
LAUNCH_FLOOR = 0.6
LAUNCH_CALLS = 200
LAUNCH_REPEATS = 7


def _make(per_object: bool):
    spec = get_benchmark(BENCHMARK)
    return (PerObjectGPU if per_object else GPU)(
        spec.kernel,
        config=SystemConfig(),
        seed=SEED,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
    )


def _cycles_per_second(per_object: bool, cycles: int) -> float:
    """Best of TIMING_ROUNDS rounds (robust on a noisy shared core)."""
    gpu = _make(per_object)
    gpu.run(50)  # warm caches / stream tables / allocator
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        gpu.run(cycles)
        best = min(best, time.perf_counter() - start)
    return cycles / best


def test_bit_identity():
    ref = _make(per_object=True)
    vec = _make(per_object=False)
    assert np.array_equal(ref.run(COMPARE_CYCLES), vec.run(COMPARE_CYCLES))
    assert ref.total_instructions() == vec.total_instructions()
    assert ref.total_fake_instructions() == vec.total_fake_instructions()
    assert ref.kernels_launched == vec.kernels_launched


def test_gpu_cycles_per_second(benchmark):
    reference = benchmark.pedantic(
        _cycles_per_second, args=(True, 2000), rounds=1, iterations=1
    )
    fast = _cycles_per_second(False, 50_000)
    speedup = fast / reference
    emit(
        "GPU model hot path (16 SMs, hotspot kernel)",
        format_table(
            ["path", "cycles/s"],
            [
                ["per-object oracle", f"{reference:,.0f}"],
                ["engine (C)", f"{fast:,.0f}"],
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


def test_launch_costs_less_than_numpys_seeding():
    engine = _make(per_object=False).engine
    assert engine.jitter > 0  # one stream seed and one per SM
    step = 7919 * (engine.generation + 1)
    seeds = [SEED + step] + [s + step for s in engine._jitter_seeds]
    assert len(seeds) == 17

    def launch():
        engine._load_generation(engine.generation + 1)

    def numpy_seeding():
        return [np.random.PCG64(seed) for seed in seeds]

    best = {}
    for name, call in (("launch", launch), ("seeding", numpy_seeding)):
        best[name] = min(timeit.repeat(
            call, number=LAUNCH_CALLS, repeat=LAUNCH_REPEATS
        )) / LAUNCH_CALLS
    ratio = best["launch"] / best["seeding"]
    emit(
        "GPU kernel launch (hotspot, jitter on, 17 seeds)",
        format_table(
            ["path", "ms per call"],
            [
                ["engine launch (C seeding)", f"{best['launch'] * 1e3:.3f}"],
                ["17 np.random.PCG64", f"{best['seeding'] * 1e3:.3f}"],
                ["ratio", f"{ratio:.2f}x (floor {LAUNCH_FLOOR}x)"],
            ],
            title="Kernel launch vs NumPy's seeding",
        ),
    )
    assert ratio <= LAUNCH_FLOOR
