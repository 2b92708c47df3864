"""Regenerate the batched co-sim regression manifest.

Runs a fixed B=4 mixed-benchmark ``run_cosim_batch`` (the scenario the
checked-in ``benchmarks/baselines/BENCH_cosim_batch.json`` snapshot
captures) and writes a telemetry manifest whose headline ``metrics``
aggregate the worst/mean lane physics — exactly the keys the default
``repro compare`` thresholds gate.  CI re-runs this script and diffs
the fresh manifest against the snapshot, so any PR that drifts the
batched engine's physics (or quietly diverges/burns guard recoveries)
fails the gate.

Usage::

    PYTHONPATH=src python benchmarks/make_cosim_batch_baseline.py [out_dir]

To refresh the committed snapshot after an intentional physics change::

    PYTHONPATH=src python benchmarks/make_cosim_batch_baseline.py ci-batch-run
    cp ci-batch-run/manifest.json benchmarks/baselines/BENCH_cosim_batch.json
"""

import sys
from statistics import mean

CYCLES = 800
WARMUP = 200
LANES = (("hotspot", 1), ("bfs", 2), ("srad", 3), ("backprop", 4))


def main(out_dir: str) -> int:
    from repro.sim.cosim import CosimConfig, CosimLane, run_cosim_batch
    from repro.telemetry import Telemetry, write_run

    lanes = [
        CosimLane(
            benchmark=name,
            config=CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed),
        )
        for name, seed in LANES
    ]
    tele = Telemetry(run_id="cosim-batch-baseline")
    results = run_cosim_batch(lanes, telemetry=tele)

    counters = tele.counters
    tele.set_metrics({
        "benchmark": "+".join(name for name, _ in LANES),
        # Zero-tolerance gates: any lane diverging, leaving the physical
        # voltage range or burning guard recoveries on the baseline
        # scenario is a regression.
        "diverged": float(sum(1 for r in results if r.diverged)),
        "out_of_range_cycles": float(
            sum(r.out_of_range_cycles for r in results)
        ),
        "guard_recoveries": float(
            counters.get("guard_refactor_recoveries", 0)
            + counters.get("guard_dt_halving_recoveries", 0)
        ),
        # Worst-lane extremes, lane-mean throughput/efficiency.
        "min_voltage_v": min(r.min_voltage for r in results),
        "max_voltage_v": max(r.max_voltage for r in results),
        "mean_power_w": mean(r.power_trace.mean_power_w for r in results),
        "pde": mean(r.efficiency().pde for r in results),
        "throughput_ipc": mean(r.throughput() for r in results),
        "mean_dcc_power_w": mean(r.mean_dcc_power_w for r in results),
    })
    from repro.sim.cosim import last_batch_solver_info

    info = last_batch_solver_info()
    manifest = write_run(
        tele, out_dir, config=lanes[0].config,
        extra={
            "command": "cosim-batch-baseline",
            "benchmark": "+".join(name for name, _ in LANES),
            "lane_seeds": [seed for _, seed in LANES],
            "solver_backend": info.get("backend"),
            "solver_shards": info.get("shards"),
        },
    )
    print(f"batched co-sim manifest written to {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "ci-batch-run"))
