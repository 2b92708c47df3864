"""Co-sim throughput of the shared batched loop against the serial oracle.

The batched struct-of-scenarios loop behind ``run_cosim_batch`` (and,
at B=1, ``run_cosim``) exists for throughput while staying
bit-identical to the one-scenario serial loop kept as the oracle in
``tests/oracles/serial_cosim.py``.  This driver gates both halves of
that contract, against the oracle:

* a B=8 mixed-benchmark batch must run at least ``SPEEDUP_FLOOR`` times
  faster than the same 8 scenarios run through the serial oracle, with
  every one of its cycles in the compiled cycle kernel (the
  ``fused_cycles`` assertion);
* ``run_cosim`` (the loop at B=1) must run at least ``B1_SPEEDUP_FLOOR``
  times faster than the oracle on one hotspot run;
* a B=8 batch of acting controllers with fault injectors on half the
  lanes (the repo benchmark's ``b8_active_faulted`` recipe, shorter)
  must run at least ``FAULTED_SPEEDUP_FLOOR`` times faster than its 8
  oracle runs;
* all must be byte-equal to the oracle's results;
* one 128-lane call must spend at most ``WIDE_GPU_RATIO_CEILING`` times
  the GPU-stage time of the same lanes run as sixteen 8-lane calls:
  the call steps its lanes in groups of ``LANE_GROUP``, so each group's
  engines stay in cache;
* that call's set-up (its Telemetry ``setup`` stage: GPUs, their first
  kernel launches, the lanes' PDN solvers, injectors and batch front
  ends) must stay under ``WIDE_SETUP_RATIO_CEILING`` times its own GPU
  stage: a launch is one compiled call, and the call builds one netlist,
  LU and DC operating point that its lanes fork.

Timing is min-of-``TIMING_ROUNDS`` per leg, the two legs of a speedup
interleaved round by round (each round alternates which leg runs
first), so a host slowdown lands on both legs rather than on one
(robust on a noisy shared CI core).  Writes
``benchmarks/results/perf_cosim_batch.json`` so CI can upload
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
    LANE_GROUP,
    CosimConfig,
    CosimLane,
    last_batch_solver_info,
    run_cosim,
    run_cosim_batch,
)
from repro.sim.sweep import point_seed
from repro.telemetry import Telemetry
from repro.workloads.benchmarks import BENCHMARK_NAMES
from tests.oracles.serial_cosim import run_cosim_reference

BATCH = 8
CYCLES = 2000
WARMUP = 200
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 6.0
# run_cosim steps the batched loop with one lane: spans of cycles per
# call into the cycle kernel (decision waves, pops and the applies of
# new decisions included), back in Python only for events (the warmup
# boundary, kernel relaunches), where the oracle pays a scalar
# controller, the NumPy solver and two GPU setter calls every cycle.
B1_SPEEDUP_FLOOR = 6.0
LANE_BENCHMARKS = (
    "hotspot", "backprop", "bfs", "srad",
    "pathfinder", "heartwall", "hotspot", "bfs",
)
# Faulted lanes stay on the cycle kernel, in spans between their edge
# cycles: process variation, the injectors' sensor and jitter draws
# (through their own bit generators), the masked sensor filter, the
# decision waves and every lane's pops and applies run in it, the
# circuit, DFS and halt hooks only on their edge cycles; the oracle pays
# a scalar controller, every hook, draw and setter per cycle.
FAULTED_SPEEDUP_FLOOR = 10.0
FAULTED_SEED = 1
# The wide-call gate: 128 clean lanes over the twelve benchmarks.  Its
# clock is the Telemetry GPU stage (the cycle kernel's own GPU-stage
# timer), not wall time: per-lane set-up and the solve dilute the
# end-to-end ratio.  With all 128 lanes stepping as one group, three
# runs on a 2-vCPU VM read 2.40-2.88x on the GPU stage but only
# 1.12-1.33x end to end; in groups of 8 the GPU stage read 0.85-1.05x.
WIDE_LANES = 128
WIDE_CYCLES = 400
WIDE_WARMUP = 100
WIDE_GPU_RATIO_CEILING = 1.3
# The wide call's set-up against its own GPU stage (min of the same
# rounds, one process, so host speed largely cancels).  On a 2-vCPU
# VM it read 1.62-1.64x with compiled launches and one shared PDN per
# call, and 4.75-4.80x when every launch drew its streams in NumPy and
# every lane built its own netlist, LU and DC operating point.
WIDE_SETUP_RATIO_CEILING = 2.5


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


def _wide_lanes():
    return [
        CosimLane(
            benchmark=BENCHMARK_NAMES[i % len(BENCHMARK_NAMES)],
            config=CosimConfig(
                cycles=WIDE_CYCLES, warmup_cycles=WIDE_WARMUP,
                seed=point_seed(FAULTED_SEED, i),
            ),
        )
        for i in range(WIDE_LANES)
    ]


def _gpu_stage_best(calls):
    """Min over rounds of the GPU-stage, set-up and wall seconds of
    running each lane list in ``calls`` through run_cosim_batch."""
    gpu_s = setup_s = wall_s = float("inf")
    for _ in range(TIMING_ROUNDS):
        tele = Telemetry(run_id="perf-wide")
        start = time.perf_counter()
        for lanes in calls:
            run_cosim_batch(lanes, telemetry=tele, flights=False)
        wall_s = min(wall_s, time.perf_counter() - start)
        gpu_s = min(gpu_s, tele.timings["gpu_model"])
        setup_s = min(setup_s, tele.timings["setup"])
    return gpu_s, setup_s, wall_s


def _time_pair(fast, slow):
    """Min over ``TIMING_ROUNDS`` rounds of each leg's wall seconds;
    every round times both legs, alternating which runs first."""
    best = [float("inf"), float("inf")]
    legs = (fast, slow)
    for r in range(TIMING_ROUNDS):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            legs[k]()
            best[k] = min(best[k], time.perf_counter() - start)
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

    fused = []

    def batch():
        run_cosim_batch(_lanes())
        fused.append(last_batch_solver_info()["fused_cycles"])

    batch_s, serial_s = benchmark.pedantic(
        lambda: _time_pair(batch, lambda: [
            run_cosim_reference(l.benchmark, config=l.config)
            for l in _lanes()
        ]),
        rounds=1, iterations=1,
    )
    fused_cycles = min(fused)
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

    b1_s, oracle_s = _time_pair(
        lambda: run_cosim("hotspot", config),
        lambda: run_cosim_reference("hotspot", config),
    )
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

    batch_s, oracle_s = _time_pair(
        lambda: run_cosim_batch(_faulted_lanes()),
        lambda: [
            run_cosim_reference(l.benchmark, config=l.config)
            for l in _faulted_lanes()
        ],
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


def test_wide_batch_gpu_stage():
    """One 128-lane call against the same lanes in sixteen 8-lane calls."""
    lanes = _wide_lanes()
    narrow = [
        lanes[i:i + LANE_GROUP] for i in range(0, WIDE_LANES, LANE_GROUP)
    ]
    run_cosim_batch(narrow[0])  # warm caches outside the timed region
    wide_gpu_s, wide_setup_s, wide_wall_s = _gpu_stage_best([lanes])
    narrow_gpu_s, narrow_setup_s, narrow_wall_s = _gpu_stage_best(narrow)
    gpu_ratio = wide_gpu_s / narrow_gpu_s
    wall_ratio = wide_wall_s / narrow_wall_s
    setup_ratio = wide_setup_s / wide_gpu_s
    narrow_setup_ratio = narrow_setup_s / narrow_gpu_s
    lane_cycles = WIDE_LANES * (WIDE_CYCLES + WIDE_WARMUP)
    emit(
        f"Wide co-sim call (B={WIDE_LANES}) against {len(narrow)} calls "
        f"of {LANE_GROUP}",
        format_table(
            ["path", "GPU stage s", "us/lane-cycle", "set-up s",
             "set-up / GPU", "wall s"],
            [
                [f"one call of {WIDE_LANES}", f"{wide_gpu_s:.3f}",
                 f"{1e6 * wide_gpu_s / lane_cycles:.2f}",
                 f"{wide_setup_s:.3f}", f"{setup_ratio:.2f}x",
                 f"{wide_wall_s:.2f}"],
                [f"{len(narrow)} calls of {LANE_GROUP}",
                 f"{narrow_gpu_s:.3f}",
                 f"{1e6 * narrow_gpu_s / lane_cycles:.2f}",
                 f"{narrow_setup_s:.3f}", f"{narrow_setup_ratio:.2f}x",
                 f"{narrow_wall_s:.2f}"],
                ["ratio", f"{gpu_ratio:.2f}x", "", "", "",
                 f"{wall_ratio:.2f}x"],
            ],
            title="GPU-stage time of a wide call vs narrow calls",
        ),
    )
    _write_results({
        "wide_lanes": WIDE_LANES,
        "wide_cycles": WIDE_CYCLES,
        "wide_warmup_cycles": WIDE_WARMUP,
        "wide_gpu_s": wide_gpu_s,
        "narrow_gpu_s": narrow_gpu_s,
        "wide_gpu_ratio": gpu_ratio,
        "wide_wall_s": wide_wall_s,
        "narrow_wall_s": narrow_wall_s,
        "wide_wall_ratio": wall_ratio,
        "wide_gpu_ratio_ceiling": WIDE_GPU_RATIO_CEILING,
        "wide_setup_s": wide_setup_s,
        "narrow_setup_s": narrow_setup_s,
        "wide_setup_ratio": setup_ratio,
        "narrow_setup_ratio": narrow_setup_ratio,
        "wide_setup_ratio_ceiling": WIDE_SETUP_RATIO_CEILING,
    })
    assert gpu_ratio <= WIDE_GPU_RATIO_CEILING, (
        f"a {WIDE_LANES}-lane call spends {gpu_ratio:.2f}x the GPU-stage "
        f"time of {len(narrow)} calls of {LANE_GROUP} (ceiling "
        f"{WIDE_GPU_RATIO_CEILING}x)"
    )
    assert setup_ratio <= WIDE_SETUP_RATIO_CEILING, (
        f"a {WIDE_LANES}-lane call's set-up takes {setup_ratio:.2f}x its "
        f"GPU stage (ceiling {WIDE_SETUP_RATIO_CEILING}x)"
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
