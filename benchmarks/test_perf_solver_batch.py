"""Batched transient-solver throughput: fused C kernel vs NumPy path.

``BatchTransientSolver.step_n`` runs the fused substep kernel
(``_solverc.c``, one C call per co-sim cycle) on every eligible batch;
the pure-NumPy batch step (``BatchTransientSolver.step``, called here
``SUBSTEPS`` times per cycle) is its bit-identity reference.  This
benchmark gates both halves of that contract at the solver layer, below
the co-sim loop:

* the C kernel must reproduce the NumPy step byte for byte over a
  mixed random load schedule (including the LAPACK back-substitution,
  companion updates and reactive-state carry), and
* the C kernel must run at least ``SPEEDUP_FLOOR`` times faster.

Timing is min-of-``TIMING_ROUNDS`` on a prebuilt batch (construction
and LU factorization excluded — they are once-per-scenario costs).
Writes ``benchmarks/results/perf_solver_batch.json`` so CI can upload
solver-steps/s as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_table
from repro.circuits import BatchTransientSolver
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN

BATCH = 8
CYCLES = 1500
SUBSTEPS = 2
WARMUP_CYCLES = 50
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 2.0

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS


def _stepper(backend, batch):
    """One co-sim cycle of ``SUBSTEPS`` substeps: the fused C call, or
    the NumPy batch step called per substep."""
    if backend == "c":
        return lambda: batch.step_n(SUBSTEPS)

    def numpy_cycle():
        for _ in range(SUBSTEPS):
            node_v = batch.step()
        return node_v

    return numpy_cycle


def _build_batch():
    currents_bt = np.zeros((BATCH, NUM_SMS))
    pdns = []
    solvers = []
    for i in range(BATCH):
        pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
        pdn.bind_current_buffer(currents_bt[i])
        pdns.append(pdn)
        solvers.append(TransientSolver(pdn.circuit, dt=DT))
    batch = BatchTransientSolver(solvers, shared_current_base=currents_bt)
    return batch, pdns, currents_bt


def _schedule(cycles):
    rng = np.random.default_rng(31)
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((cycles, BATCH, NUM_SMS)) * 1.6)


def _run(backend, cycles, record=False):
    schedule = _schedule(cycles)
    batch, pdns, currents_bt = _build_batch()
    step = _stepper(backend, batch)
    volts = np.empty((cycles, BATCH, batch.num_nodes)) if record else None
    for k in range(cycles):
        currents_bt[:] = schedule[k]
        node_v = step()
        if record:
            volts[k] = node_v
    batch.fold_lanes()  # lane step counts are deferred to the batch clock
    return volts, batch


def test_solver_batch_bit_identity():
    v_c, batch_c = _run("c", 400, record=True)
    v_np, batch_np = _run("numpy", 400, record=True)
    assert v_c.tobytes() == v_np.tobytes(), "C backend diverged from NumPy"
    for s_c, s_np in zip(batch_c.solvers, batch_np.solvers):
        assert s_c.stats.steps == s_np.stats.steps


def test_solver_batch_speedup_floor(benchmark):
    schedule = _schedule(CYCLES)

    def timed(backend):
        batch, pdns, currents_bt = _build_batch()
        step = _stepper(backend, batch)
        for k in range(WARMUP_CYCLES):
            currents_bt[:] = schedule[k]
            step()
        best = float("inf")
        for _ in range(TIMING_ROUNDS):
            start = time.perf_counter()
            for k in range(CYCLES):
                currents_bt[:] = schedule[k]
                step()
            best = min(best, time.perf_counter() - start)
        return best

    c_s = benchmark.pedantic(lambda: timed("c"), rounds=1, iterations=1)
    numpy_s = timed("numpy")
    speedup = numpy_s / c_s
    solver_steps = BATCH * CYCLES * SUBSTEPS
    emit(
        f"Batched solver substep throughput (B={BATCH})",
        format_table(
            ["backend", "wall s", "lane-steps/s"],
            [
                ["numpy", f"{numpy_s:.3f}", f"{solver_steps / numpy_s:,.0f}"],
                ["c", f"{c_s:.3f}", f"{solver_steps / c_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="BatchTransientSolver: C step_n vs the NumPy step",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_solver_batch.json", "w") as handle:
        json.dump(
            {
                "batch_size": BATCH,
                "cycles": CYCLES,
                "substeps": SUBSTEPS,
                "numpy_s": numpy_s,
                "c_s": c_s,
                "speedup": speedup,
                "lane_steps_per_s_c": solver_steps / c_s,
                "speedup_floor": SPEEDUP_FLOOR,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    assert speedup >= SPEEDUP_FLOOR, (
        f"C solver backend is only {speedup:.2f}x faster than NumPy "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
