"""Co-sim throughput of the shared batched loop against the serial oracle.

The batched struct-of-scenarios loop behind ``run_cosim_batch`` (and,
at B=1, ``run_cosim``) exists for throughput while staying
bit-identical to the one-scenario serial loop kept as the oracle in
``tests/oracles/serial_cosim.py``.  This driver gates both halves of
that contract, against the oracle:

* a B=8 mixed-benchmark batch must run at least ``SPEEDUP_FLOOR`` times
  faster than the same 8 scenarios run through the serial oracle, with
  every one of its cycles in the compiled cycle kernel (a silent drop
  to the loop's NumPy body fails the gate);
* ``run_cosim`` (the loop at B=1) must run at least ``B1_SPEEDUP_FLOOR``
  times faster than the oracle on one hotspot run;
* a B=8 batch of acting controllers with fault injectors on half the
  lanes (the repo benchmark's ``b8_active_faulted`` recipe, shorter)
  must run at least ``FAULTED_SPEEDUP_FLOOR`` times faster than its 8
  oracle runs;
* all must be byte-equal to the oracle's results.

Timing is min-of-``TIMING_ROUNDS`` (robust on a noisy shared CI core).
Writes ``benchmarks/results/perf_cosim_batch.json`` so CI can upload
lane-cycles/s as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_table
from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    last_batch_solver_info,
    run_cosim,
    run_cosim_batch,
)
from repro.sim.sweep import point_seed
from repro.workloads.benchmarks import BENCHMARK_NAMES
from tests.oracles.serial_cosim import run_cosim_reference

BATCH = 8
CYCLES = 2000
WARMUP = 200
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 6.0
# run_cosim steps the batched loop with one lane: every cycle one call
# into the cycle kernel (decision waves and pops included) and actuation
# applied only when a decision changes, where the oracle pays a scalar
# controller, the NumPy solver and two GPU setter calls every cycle.
B1_SPEEDUP_FLOOR = 4.0
LANE_BENCHMARKS = (
    "hotspot", "backprop", "bfs", "srad",
    "pathfinder", "heartwall", "hotspot", "bfs",
)
# Faulted lanes stay on the cycle kernel: process variation, the masked
# sensor filter, the decision waves and the fast lanes' pops run in it,
# the circuit, DFS and halt hooks only on their edge cycles; the oracle
# pays a scalar controller, every hook and setter per cycle.
FAULTED_SPEEDUP_FLOOR = 5.0
FAULTED_SEED = 1


def _lanes():
    return [
        CosimLane(
            benchmark=name,
            config=CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=i),
        )
        for i, name in enumerate(LANE_BENCHMARKS)
    ]


def _faulted_lanes():
    """The ``b8_active_faulted`` recipe: an acting controller with DCC
    on, and the four canned fault schedules on lanes 0/2/4/6."""
    controller = ControllerConfig(v_threshold=0.97, k1=15.0)
    actuation = WeightedActuation(w1=1.0, w2=1.0, w3=1.0)
    scenarios = list(CANNED_SCENARIOS.values())
    return [
        CosimLane(
            benchmark=BENCHMARK_NAMES[i],
            config=CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP,
                seed=point_seed(FAULTED_SEED, i), controller=controller,
                actuation=actuation,
                faults=scenarios[i // 2]() if i % 2 == 0 else None,
            ),
        )
        for i in range(BATCH)
    ]


def _time_best(fn) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_bit_identity():
    batch = run_cosim_batch(_lanes())
    for lane, result in zip(_lanes(), batch):
        serial = run_cosim_reference(lane.benchmark, config=lane.config)
        assert np.array_equal(result.power_trace.data, serial.power_trace.data)
        assert np.array_equal(result.sm_voltages, serial.sm_voltages)
        assert np.array_equal(result.supply_current, serial.supply_current)
        assert result.instructions == serial.instructions
        assert result.throttled_cycles == serial.throttled_cycles
        assert result.mean_dcc_power_w == serial.mean_dcc_power_w
        assert np.array_equal(result.kernel_durations, serial.kernel_durations)


def test_batch_speedup_floor(benchmark):
    # Warm caches (C engine build, benchmark stream tables, BLAS init)
    # outside the timed region for both paths.
    run_cosim_batch(_lanes()[:1])
    run_cosim_reference(LANE_BENCHMARKS[0], config=_lanes()[0].config)

    batch_s = benchmark.pedantic(
        lambda: _time_best(lambda: run_cosim_batch(_lanes())),
        rounds=1, iterations=1,
    )
    fused_cycles = last_batch_solver_info()["fused_cycles"]
    serial_s = _time_best(
        lambda: [
            run_cosim_reference(l.benchmark, config=l.config)
            for l in _lanes()
        ]
    )
    speedup = serial_s / batch_s
    lane_cycles = BATCH * (CYCLES + WARMUP)
    emit(
        f"Batched co-sim throughput (B={BATCH} mixed lanes)",
        format_table(
            ["path", "wall s", "lane-cycles/s"],
            [
                ["serial oracle x8", f"{serial_s:.2f}",
                 f"{lane_cycles / serial_s:,.0f}"],
                [f"batched B={BATCH}", f"{batch_s:.2f}",
                 f"{lane_cycles / batch_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="run_cosim_batch vs the serial oracle loop",
        ),
    )
    _write_results({
        "batch_size": BATCH,
        "lane_benchmarks": list(LANE_BENCHMARKS),
        "cycles": CYCLES,
        "warmup_cycles": WARMUP,
        "serial_s": serial_s,
        "batch_s": batch_s,
        "speedup": speedup,
        "lane_cycles_per_s_batched": lane_cycles / batch_s,
        "speedup_floor": SPEEDUP_FLOOR,
        "fused_cycles": fused_cycles,
    })
    assert fused_cycles == CYCLES + WARMUP, (
        f"only {fused_cycles} of {CYCLES + WARMUP} cycles of the clean "
        "B=8 batch ran through the cycle kernel"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"B={BATCH} batch is only {speedup:.2f}x faster than the serial "
        f"oracle (floor {SPEEDUP_FLOOR}x)"
    )


def test_b1_speedup_floor():
    """run_cosim (the shared loop at B=1) against the serial oracle."""
    config = CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=1)
    shipped = run_cosim("hotspot", config)
    oracle = run_cosim_reference("hotspot", config)
    assert _digest(shipped) == _digest(oracle)

    b1_s = _time_best(lambda: run_cosim("hotspot", config))
    oracle_s = _time_best(lambda: run_cosim_reference("hotspot", config))
    speedup = oracle_s / b1_s
    cycles = CYCLES + WARMUP
    emit(
        "Single-scenario co-sim throughput (B=1)",
        format_table(
            ["path", "wall s", "cycles/s"],
            [
                ["serial oracle", f"{oracle_s:.3f}",
                 f"{cycles / oracle_s:,.0f}"],
                ["run_cosim (B=1)", f"{b1_s:.3f}", f"{cycles / b1_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="run_cosim vs the serial oracle loop, hotspot",
        ),
    )
    _write_results({
        "b1_benchmark": "hotspot",
        "b1_oracle_s": oracle_s,
        "b1_s": b1_s,
        "b1_speedup": speedup,
        "b1_cycles_per_s": cycles / b1_s,
        "b1_speedup_floor": B1_SPEEDUP_FLOOR,
    })
    assert speedup >= B1_SPEEDUP_FLOOR, (
        f"run_cosim is only {speedup:.2f}x faster than the serial oracle "
        f"(floor {B1_SPEEDUP_FLOOR}x)"
    )


def test_faulted_batch_speedup_floor():
    """Fault-injected, acting lanes on the batched paths vs the oracle."""
    batch = run_cosim_batch(_faulted_lanes())
    for lane, result in zip(_faulted_lanes(), batch):
        oracle = run_cosim_reference(lane.benchmark, config=lane.config)
        assert _digest(result) == _digest(oracle), lane.benchmark
        assert result.fault_report == oracle.fault_report, lane.benchmark

    batch_s = _time_best(lambda: run_cosim_batch(_faulted_lanes()))
    oracle_s = _time_best(
        lambda: [
            run_cosim_reference(l.benchmark, config=l.config)
            for l in _faulted_lanes()
        ]
    )
    speedup = oracle_s / batch_s
    lane_cycles = BATCH * (CYCLES + WARMUP)
    emit(
        f"Faulted co-sim throughput (B={BATCH}, acting controller)",
        format_table(
            ["path", "wall s", "lane-cycles/s"],
            [
                ["serial oracle x8", f"{oracle_s:.2f}",
                 f"{lane_cycles / oracle_s:,.0f}"],
                [f"batched B={BATCH}", f"{batch_s:.2f}",
                 f"{lane_cycles / batch_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="b8_active_faulted recipe vs the serial oracle loop",
        ),
    )
    _write_results({
        "faulted_lane_benchmarks": list(BENCHMARK_NAMES[:BATCH]),
        "faulted_oracle_s": oracle_s,
        "faulted_batch_s": batch_s,
        "faulted_speedup": speedup,
        "faulted_lane_cycles_per_s": lane_cycles / batch_s,
        "faulted_speedup_floor": FAULTED_SPEEDUP_FLOOR,
    })
    assert speedup >= FAULTED_SPEEDUP_FLOOR, (
        f"faulted B={BATCH} batch is only {speedup:.2f}x faster than the "
        f"serial oracle (floor {FAULTED_SPEEDUP_FLOOR}x)"
    )


def _digest(result) -> bytes:
    """Every waveform and counter of a result, as one byte string."""
    parts = [
        np.ascontiguousarray(a).tobytes()
        for a in (result.sm_voltages, result.power_trace.data,
                  result.supply_current, result.kernel_durations)
    ]
    parts.append(repr((
        result.instructions, result.fake_instructions,
        result.throttled_cycles, result.kernels_completed,
        result.mean_dcc_power_w,
    )).encode())
    return b"".join(parts)


def _write_results(fields) -> None:
    """Merge ``fields`` into perf_cosim_batch.json (both tests write it)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "perf_cosim_batch.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(fields)
    path.write_text(json.dumps(data, indent=2) + "\n")
