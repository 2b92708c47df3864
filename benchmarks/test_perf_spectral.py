"""Imbalance-series decomposition performance.

Times the vectorized ``imbalance_series`` against the retained
per-cycle reference loop (``tests/oracles/spectral_reference.py``) on a
2500-cycle x 16-SM power matrix, asserting both the speedup floor and
exact bit-compatibility (the vectorized path mirrors the reference's
reduction order, so every sample must match with ``np.array_equal``).

Writes ``benchmarks/results/perf_spectral.json`` so CI can upload the
cycles/s numbers as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_table
from repro.analysis.spectral import imbalance_series
from tests.oracles.spectral_reference import imbalance_series_reference

CYCLES = 2500
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 10.0


def _power_matrix(cycles: int = CYCLES, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 8.0, (cycles, 16))


def _cycles_per_second(func, power: np.ndarray) -> float:
    """Best of TIMING_ROUNDS rounds (robust on a noisy shared core)."""
    func(power)  # warm caches / allocator
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        func(power)
        best = min(best, time.perf_counter() - start)
    return power.shape[0] / best


def test_bit_compatibility():
    power = _power_matrix()
    fast = imbalance_series(power)
    slow = imbalance_series_reference(power)
    for name in ("global", "stack", "residual"):
        assert np.array_equal(fast[name], slow[name]), name


def test_imbalance_series_cycles_per_second(benchmark):
    power = _power_matrix()
    naive = benchmark.pedantic(
        _cycles_per_second, args=(imbalance_series_reference, power),
        rounds=1, iterations=1,
    )
    fast = _cycles_per_second(imbalance_series, power)
    speedup = fast / naive
    emit(
        "Imbalance decomposition (2500x16 power matrix)",
        format_table(
            ["path", "cycles/s"],
            [
                ["per-cycle loop", f"{naive:,.0f}"],
                ["vectorized", f"{fast:,.0f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title="imbalance_series throughput",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_spectral.json", "w") as handle:
        json.dump(
            {
                "matrix": f"{CYCLES}x16",
                "naive_cycles_per_s": naive,
                "vectorized_cycles_per_s": fast,
                "speedup": speedup,
                "floor": SPEEDUP_FLOOR,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    assert speedup >= SPEEDUP_FLOOR
