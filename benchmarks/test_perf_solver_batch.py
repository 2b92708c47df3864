"""Batched transient-solver throughput: the C kernel vs serial lanes.

``BatchTransientSolver.step_n`` runs the fused substep kernel
(``_solverc.c``, one C call per co-sim cycle); its reference is B serial
:class:`TransientSolver` lanes on the same load schedule, each stepped
``step_n(SUBSTEPS)`` per cycle.  This benchmark gates both halves of
that contract at the solver layer, below the co-sim loop:

* the batch must reproduce the serial lanes byte for byte over a mixed
  random load schedule (voltages, including the LAPACK
  back-substitution, companion updates and reactive-state carry, and
  each lane's step count), and
* the batch must run at least ``SPEEDUP_FLOOR`` times faster.

Timing is min-of-``TIMING_ROUNDS`` on prebuilt lanes (construction and
LU factorization excluded — they are once-per-scenario costs).  Writes
``benchmarks/results/perf_solver_batch.json`` so CI can upload
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
SPEEDUP_FLOOR = 3.5

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS


def _build(kind):
    """``BATCH`` lanes whose SM sources read the rows of one current
    block; returns ``(block, lanes, cycle)``, where ``cycle()`` steps one
    co-sim cycle of ``SUBSTEPS`` substeps — one C call for the batch
    (``kind == "c"``), each lane's ``step_n`` for the serial lanes —
    and returns the ``(B, num_nodes)`` node voltages."""
    currents_bt = np.zeros((BATCH, NUM_SMS))
    solvers = []
    for i in range(BATCH):
        pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
        pdn.bind_current_buffer(currents_bt[i])
        solvers.append(TransientSolver(pdn.circuit, dt=DT))
    if kind == "c":
        batch = BatchTransientSolver(solvers, shared_current_base=currents_bt)
        return currents_bt, batch.solvers, lambda: batch.step_n(SUBSTEPS), batch

    def serial_cycle():
        return [s.step_n(SUBSTEPS) for s in solvers]

    return currents_bt, solvers, serial_cycle, None


def _schedule(cycles):
    rng = np.random.default_rng(31)
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((cycles, BATCH, NUM_SMS)) * 1.6)


def _run(kind, cycles):
    schedule = _schedule(cycles)
    currents_bt, solvers, cycle, batch = _build(kind)
    volts = np.empty((cycles, BATCH, solvers[0].structure.num_nodes))
    for k in range(cycles):
        currents_bt[:] = schedule[k]
        volts[k] = cycle()
    if batch is not None:
        batch.fold_lanes()  # lane step counts are deferred to the batch clock
    return volts, solvers


def test_solver_batch_bit_identity():
    v_c, lanes_c = _run("c", 400)
    v_ref, lanes_ref = _run("serial", 400)
    assert v_c.tobytes() == v_ref.tobytes(), "C batch diverged from serial"
    for s_c, s_ref in zip(lanes_c, lanes_ref):
        assert s_c.stats.steps == s_ref.stats.steps == 400 * SUBSTEPS


def test_solver_batch_speedup_floor(benchmark):
    schedule = _schedule(CYCLES)

    def timed(kind):
        currents_bt, _, cycle, _ = _build(kind)
        for k in range(WARMUP_CYCLES):
            currents_bt[:] = schedule[k]
            cycle()
        best = float("inf")
        for _ in range(TIMING_ROUNDS):
            start = time.perf_counter()
            for k in range(CYCLES):
                currents_bt[:] = schedule[k]
                cycle()
            best = min(best, time.perf_counter() - start)
        return best

    c_s = benchmark.pedantic(lambda: timed("c"), rounds=1, iterations=1)
    serial_s = timed("serial")
    speedup = serial_s / c_s
    solver_steps = BATCH * CYCLES * SUBSTEPS
    emit(
        f"Batched solver substep throughput (B={BATCH})",
        format_table(
            ["lanes", "wall s", "lane-steps/s"],
            [
                [f"{BATCH} serial", f"{serial_s:.3f}",
                 f"{solver_steps / serial_s:,.0f}"],
                ["C batch", f"{c_s:.3f}", f"{solver_steps / c_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="BatchTransientSolver.step_n vs serial TransientSolver.step_n",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_solver_batch.json", "w") as handle:
        json.dump(
            {
                "batch_size": BATCH,
                "cycles": CYCLES,
                "substeps": SUBSTEPS,
                "serial_s": serial_s,
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
        f"the C batch is only {speedup:.2f}x faster than {BATCH} serial "
        f"lanes (floor {SPEEDUP_FLOOR}x)"
    )
