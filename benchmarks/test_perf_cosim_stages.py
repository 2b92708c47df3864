"""Co-simulation per-stage timing split via the telemetry recorder.

Runs one instrumented co-simulation and emits the wall-clock share of
each stage (GPU model / transient solve / controller / record), so a
slow run localizes to a layer instead of one opaque cycles/s number.
Also times an *uninstrumented* run of the same config to bound the
overhead of the telemetry hot-path branches.

Writes ``benchmarks/results/perf_cosim_stages.json`` so CI can upload
the timing split as an artifact.
"""

import json
import time

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_seconds, format_table
from repro.sim.cosim import CosimConfig, run_cosim
from repro.telemetry import Telemetry

BENCHMARK = "hotspot"
CYCLES = 2000
WARMUP = 200
# What a telemetered run adds, per run of this size on a 2-vCPU VM
# (docs/performance.md, "Where a telemetered run's time goes"): the
# telemetry finalize — the noise report (~3 ms) and the decimated
# channels (~1.5 ms) — about 5 ms; the flight recorder that telemetry
# brings along, about 2 ms; the cycle kernel's stage clocks, 0.5-0.8 ms.
# Against a 15-20 ms plain run the fixed finalize alone exceeds this
# bound (generous for shared CI cores), so the ratio gate fails until it
# is restated as absolute per-run costs.
MAX_OVERHEAD = 0.25
# The split must account for the run: residual stages (setup /
# loop_other / finalize) close the books to within this tolerance.
STAGE_SUM_TOLERANCE = 0.10
# With the vectorized GPU engine the architecture layer must no longer
# dominate the co-simulation: the transient solve is the rightful
# hotspot.
MAX_GPU_MODEL_SHARE = 0.40
# Best-of-N repeats for each timed leg: scheduler noise on shared CI
# cores would otherwise let a single slow plain run report a negative
# telemetry overhead.
TIMING_ROUNDS = 3


def _run(telemetry=None):
    config = CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=11)
    start = time.perf_counter()
    run_cosim(BENCHMARK, config, telemetry=telemetry)
    return time.perf_counter() - start


def test_cosim_stage_split():
    _run()  # warm caches / allocator
    plain_s = min(_run() for _ in range(TIMING_ROUNDS))
    traced_s = float("inf")
    tele = None
    wall = 0.0
    for _ in range(TIMING_ROUNDS):
        candidate = Telemetry(run_id="perf-stages")
        elapsed = _run(telemetry=candidate)
        if elapsed < traced_s:
            traced_s = elapsed
            tele = candidate
            # The recorder's own wall clock, read before later rounds
            # run (elapsed_s keeps counting after the run ends).
            wall = candidate.elapsed_s
    stage_sum = sum(tele.timings.values())
    # Both legs are best-of-N minima of the same work, so the ratio is a
    # noise-resistant overhead estimate; clamp at zero because the true
    # overhead cannot be negative (any residual below zero is jitter).
    overhead = max(0.0, traced_s / plain_s - 1.0)

    rows = [
        [stage, format_seconds(seconds), f"{seconds / wall:.1%}"]
        for stage, seconds in sorted(
            tele.timings.items(), key=lambda kv: -kv[1]
        )
    ]
    rows.append(["(stage sum)", format_seconds(stage_sum),
                 f"{stage_sum / wall:.1%}"])
    emit(
        "Co-simulation stage timing split",
        format_table(
            ["stage", "time", "of wall"], rows,
            title=(
                f"{BENCHMARK}, {CYCLES}+{WARMUP} cycles "
                f"(wall {format_seconds(wall)}, "
                f"telemetry overhead {overhead:+.1%})"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_cosim_stages.json", "w") as handle:
        json.dump(
            {
                "benchmark": BENCHMARK,
                "cycles": CYCLES,
                "warmup_cycles": WARMUP,
                "wall_s": wall,
                "plain_s": plain_s,
                "traced_s": traced_s,
                "telemetry_overhead": overhead,
                "timings_s": dict(tele.timings),
                "stage_sum_s": stage_sum,
                "counters": dict(tele.counters),
            },
            handle,
            indent=2,
        )
        handle.write("\n")

    assert abs(stage_sum - wall) / wall <= STAGE_SUM_TOLERANCE
    for stage in ("gpu_model", "transient_solve", "controller"):
        assert tele.timings[stage] > 0.0
    assert overhead <= MAX_OVERHEAD
    assert tele.timings["gpu_model"] / wall <= MAX_GPU_MODEL_SHARE
