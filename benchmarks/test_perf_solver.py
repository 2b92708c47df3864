"""Transient-solver hot-path performance on the production netlist.

Times the vectorized scatter/gather stepping path against the naive
per-element loop the test suite keeps as its oracle
(``tests/oracles/naive_solver.py``) on the full 4x4 stacked PDN,
asserting both the speedup floor and bit-compatibility (the vectorized
path emits its RHS accumulation in the naive path's execution order, so
the waveforms must agree to well below 1e-12 — in practice exactly).

Writes ``benchmarks/results/perf_solver.json`` so CI can upload the
steps/s numbers as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_table
from repro.circuits import TransientSolver
from repro.pdn.builder import build_stacked_pdn
from tests.oracles.naive_solver import NaiveTransientSolver

DT = 1e-10
COMPARE_STEPS = 400
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 3.0


def _make(vectorized: bool):
    pdn = build_stacked_pdn()
    solver_cls = TransientSolver if vectorized else NaiveTransientSolver
    solver = solver_cls(pdn.circuit, dt=DT)
    solver.initialize_dc()
    return pdn, solver


def _drive(pdn, solver, steps: int, seed: int = 11) -> np.ndarray:
    """Step with a reproducible random load; return the solution trace."""
    rng = np.random.default_rng(seed)
    trace = np.empty((steps, solver.structure.num_nodes))
    for k in range(steps):
        pdn.set_sm_currents(1.0 + 0.5 * rng.random(len(pdn.sm_sources)))
        trace[k] = solver.step()
    return trace


def _steps_per_second(vectorized: bool, steps: int) -> float:
    """Best of TIMING_ROUNDS rounds (robust on a noisy shared core)."""
    pdn, solver = _make(vectorized)
    _drive(pdn, solver, 50)  # warm caches / allocator
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        _drive(pdn, solver, steps)
        best = min(best, time.perf_counter() - start)
    return steps / best


def test_bit_compatibility():
    pdn_a, fast = _make(vectorized=True)
    pdn_b, slow = _make(vectorized=False)
    diff = np.abs(
        _drive(pdn_a, fast, COMPARE_STEPS) - _drive(pdn_b, slow, COMPARE_STEPS)
    )
    assert diff.max() <= 1e-12


def test_solver_steps_per_second(benchmark):
    naive = benchmark.pedantic(
        _steps_per_second, args=(False, 2000), rounds=1, iterations=1
    )
    fast = _steps_per_second(True, 4000)
    speedup = fast / naive
    emit(
        "Transient solver hot path (4x4 stacked PDN)",
        format_table(
            ["path", "steps/s"],
            [
                ["naive loop", f"{naive:,.0f}"],
                ["vectorized", f"{fast:,.0f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title=f"Solver stepping throughput (dt={DT:g} s)",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_solver.json", "w") as handle:
        json.dump(
            {
                "netlist": "stacked_4x4",
                "unknowns": _make(True)[1].structure.size,
                "naive_steps_per_s": naive,
                "vectorized_steps_per_s": fast,
                "speedup": speedup,
                "floor": SPEEDUP_FLOOR,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    assert speedup >= SPEEDUP_FLOOR
