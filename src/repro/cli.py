"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main workflows:

* ``cosim``     — run the cross-layer co-simulation of one benchmark
  (alias: ``run``; ``--telemetry DIR`` writes a run manifest);
* ``faults``    — run a fault-injection scenario (canned name or JSON
  file) and print the guardband verdict (exit 1 unless ``--expect``
  matches);
* ``chaos``     — run a deterministic runtime-chaos scenario (NaN
  poisoning, lane quarantine, worker/checkpoint SIGKILL + resume, torn
  store append, a broken native build) and assert the self-healing
  invariants hold (exit 1 on any violated check; ``--output DIR``
  writes forensics JSON for CI artifact upload);
* ``sweep``     — parallel co-simulation grid (area x benchmark x ...)
  with per-point timeouts, bounded retries and checkpoint/resume;
* ``explore``   — design-space exploration service: successive-halving
  search over the grid with a persistent config-hash result cache,
  emitting the PDE-vs-area-vs-guardband Pareto frontier
  (``pareto.json``);
* ``trace``     — summarize a telemetry manifest written by the above;
* ``observe``   — render a run's noise-observatory report (band
  decomposition, droop events, PDE loss ledger, layer imbalance);
* ``compare``   — diff two run manifests under regression thresholds
  (exit 1 on regression — the CI physics gate);
* ``impedance`` — print the Fig. 3 effective-impedance curves;
* ``size``      — CR-IVR die-area sizing for both VS configurations;
* ``pde``       — PDE breakdown of a benchmark under each PDS;
* ``benchmarks``— list the available workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.workloads.benchmarks import list_benchmarks

    rows = [
        [spec.name, spec.suite, f"{spec.miss_ratio:.2f}",
         f"{spec.jitter:.2f}", spec.description]
        for spec in list_benchmarks(args.suite)
    ]
    print(
        format_table(
            ["name", "suite", "miss", "jitter", "description"], rows,
            title="Available benchmarks",
        )
    )
    return 0


def _write_flight(result, telemetry_dir) -> None:
    """Persist a run's flight-recorder dumps under ``<dir>/flight/``."""
    from pathlib import Path

    from repro.telemetry.flight import FLIGHT_DIR

    flight = getattr(result, "flight", None)
    if flight is None:
        return
    paths = flight.write(Path(telemetry_dir) / FLIGHT_DIR)
    summary = flight.summary()
    print(
        f"flight recorder: {summary['onsets']} guardband onset(s), "
        f"{summary['safe_state_edges']} safe-state edge(s), "
        f"{len(paths)} dump(s) in {Path(telemetry_dir) / FLIGHT_DIR}"
    )


def _cmd_cosim(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import noise_box_stats
    from repro.sim.cosim import CosimConfig, run_cosim

    config = CosimConfig(
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        cr_ivr_area_mm2=args.area,
        use_controller=not args.no_controller,
        seed=args.seed,
    )
    telemetry = None
    if args.telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id=f"cosim-{args.benchmark}")
    result = run_cosim(args.benchmark, config, telemetry=telemetry)
    if telemetry is not None:
        from repro.telemetry import write_run

        manifest = write_run(
            telemetry, args.telemetry, config=config,
            extra={"command": "cosim", "benchmark": args.benchmark},
        )
        print(f"telemetry written to {manifest}")
        _write_flight(result, args.telemetry)
    print(result.summary())
    box = noise_box_stats(result.sm_voltages)
    print(
        f"noise: min {box.minimum:.3f} | q1 {box.q1:.3f} | "
        f"median {box.median:.3f} | q3 {box.q3:.3f} | max {box.maximum:.3f} V"
    )
    breakdown = result.efficiency()
    for component, fraction in breakdown.fractions().items():
        print(f"  {component:<11s} {fraction:7.2%}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.controller import ControllerConfig
    from repro.faults import (
        FaultSchedule,
        get_scenario,
        list_scenarios,
    )
    from repro.sim.cosim import CosimConfig, run_cosim

    if args.list:
        for name in list_scenarios():
            schedule = get_scenario(name)
            kinds = ", ".join(e.kind for e in schedule.events)
            print(f"{name:<20s} {len(schedule)} events: {kinds}")
        return 0
    if not args.scenario:
        print("need a scenario name or JSON file (or --list)",
              file=sys.stderr)
        return 2
    path = Path(args.scenario)
    if path.suffix == ".json" or path.exists():
        try:
            schedule = FaultSchedule.from_json(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"bad scenario file {path}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            schedule = get_scenario(args.scenario)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    controller = ControllerConfig(
        watchdog_enabled=not args.no_degradation,
        sensor_fallback_enabled=not args.no_degradation,
    )
    config = CosimConfig(
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed,
        faults=schedule,
        controller=controller,
    )
    telemetry = None
    if args.telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(run_id=f"faults-{schedule.name}")
    result = run_cosim(args.benchmark, config, telemetry=telemetry)
    if telemetry is not None:
        from repro.telemetry import write_run

        manifest = write_run(
            telemetry, args.telemetry, config=config,
            extra={
                "command": "faults",
                "benchmark": args.benchmark,
                "scenario": schedule.name,
            },
        )
        print(f"telemetry written to {manifest}")
        _write_flight(result, args.telemetry)
    report = result.fault_report
    assert report is not None  # faults were scheduled
    summary = report["summary"]
    print(f"scenario: {schedule.name} ({len(schedule)} events, "
          f"seed {schedule.seed})")
    for event in report["events"]:
        print(f"  [{event['layer']:<12s}] {event['description']}")
    print(f"degradation: {'off' if args.no_degradation else 'on'} "
          "(watchdog + sensor fallback)")
    print(
        f"min voltage {summary['min_voltage_v']:.3f} V "
        f"(tail {summary['tail_min_voltage_v']:.3f} V, guardband "
        f"{summary['guardband_v']:.2f} V); "
        f"{summary['guardband_violation_cycles']} violation cycles "
        f"({summary['guardband_violation_fraction']:.1%})"
    )
    print(
        f"watchdog engagements {summary['watchdog_engagements']}, "
        f"safe-state decisions {summary['safe_state_decisions']}, "
        f"sensor fallback samples {summary['sensor_fallback_samples']}, "
        f"NaN samples {summary['nan_samples_seen']}, "
        f"limit-cycle events {summary['limit_cycle_events']}"
    )
    print(f"verdict: {report['verdict']}")
    if args.expect:
        if report["verdict"] != args.expect:
            print(f"FAIL: expected verdict {args.expect!r}, got "
                  f"{report['verdict']!r}", file=sys.stderr)
            return 1
        print(f"verdict matches --expect {args.expect}")
    return 0


# ---------------------------------------------------------------------------
# Deterministic chaos scenarios (``repro chaos``)
# ---------------------------------------------------------------------------
# Each runner returns ``(checks, forensics)``: named boolean invariants
# (all must hold) plus a JSON-able forensics payload written under
# ``--output`` for CI artifact upload.  The runners live here — not in
# repro.faults.chaos — because they drive the full simulation stack and
# the chaos module must stay stdlib-only (hook sites import it).

def _chaos_nan_poison(seed: int):
    """Mid-run NaN poisoning yields a structured ``diverged`` verdict —
    never an unhandled exception or a silent NaN waveform."""
    import numpy as np

    from repro.faults import chaos
    from repro.sim.cosim import CosimConfig, run_cosim

    plan = chaos.ChaosPlan("nan-poison", [
        chaos.ChaosEvent("cosim_cycle", "nan_poison", at=40, once=False),
    ])
    chaos.activate(plan)
    try:
        result = run_cosim(
            "hotspot", CosimConfig(cycles=120, warmup_cycles=40, seed=seed)
        )
    finally:
        chaos.deactivate()
    info = result.divergence or {}
    checks = {
        "structured_verdict": result.diverged and bool(info.get("stage")),
        "truncated_at_poison_cycle": result.num_cycles == 40,
        "no_nan_in_waveform": bool(np.isfinite(result.sm_voltages).all()),
    }
    return checks, {"divergence": info,
                    "recorded_cycles": result.num_cycles}


def _chaos_lane_quarantine(seed: int):
    """A poisoned batch lane is evicted; survivors stay bit-identical
    to their serial runs and the dead lane keeps its clean prefix."""
    import numpy as np

    from repro.faults import chaos
    from repro.sim.cosim import (
        CosimConfig, CosimLane, run_cosim, run_cosim_batch,
    )

    def cfg(s: int) -> CosimConfig:
        return CosimConfig(cycles=100, warmup_cycles=30, seed=s)

    lanes = [
        CosimLane("hotspot", cfg(seed)),
        CosimLane("bfs", cfg(seed + 2)),
        CosimLane("srad", cfg(seed + 4)),
    ]
    serial = [run_cosim(lane.benchmark, lane.config) for lane in lanes]
    plan = chaos.ChaosPlan("lane-quarantine", [
        chaos.ChaosEvent(
            "cosim_cycle", "nan_poison", at=25, lane=1, once=False
        ),
    ])
    chaos.activate(plan)
    try:
        batch = run_cosim_batch(lanes)
    finally:
        chaos.deactivate()
    checks = {
        "poisoned_lane_quarantined": batch[1].diverged,
        "survivor_0_bit_identical": bool(
            np.array_equal(batch[0].sm_voltages, serial[0].sm_voltages)
        ),
        "survivor_2_bit_identical": bool(
            np.array_equal(batch[2].sm_voltages, serial[2].sm_voltages)
        ),
        "dead_lane_prefix_identical": bool(
            np.array_equal(batch[1].sm_voltages, serial[1].sm_voltages[:25])
        ),
    }
    return checks, {"divergence": batch[1].divergence}


# Child body for the kill-resume scenario: runs a checkpointed sweep
# under a REPRO_CHAOS plan (argv: checkpoint path); the plan SIGKILLs a
# worker at a point boundary (retried in-run) and then the parent
# mid-checkpoint (the process dies — that is the point).
_KILL_RESUME_CHILD = """\
import sys
from repro.sim.cosim import CosimConfig
from repro.sim.sweep import SweepRunner, expand_grid

points = expand_grid(
    ["hotspot", "bfs"], {"cr_ivr_area_mm2": [52.9, 105.8, 211.6]}
)
base = CosimConfig(cycles=40, warmup_cycles=10)
runner = SweepRunner(
    points, base, max_workers=2, max_attempts=3,
    checkpoint_path=sys.argv[1], checkpoint_every=1,
)
runner.run()
"""


def _chaos_kill_resume(seed: int):
    """SIGKILL a sweep worker and then the sweep itself mid-checkpoint;
    resume must recover every completed point and finish with metrics
    identical to an uninterrupted run."""
    import json as json_mod
    import os
    import subprocess
    import tempfile

    from repro.faults import chaos
    from repro.sim.cosim import CosimConfig
    from repro.sim.sweep import SweepRunner, expand_grid

    points = expand_grid(
        ["hotspot", "bfs"], {"cr_ivr_area_mm2": [52.9, 105.8, 211.6]}
    )
    base = CosimConfig(cycles=40, warmup_cycles=10)
    reference = SweepRunner(points, base, max_workers=1).run()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp_dir:
        tmp = Path(tmp_dir)
        checkpoint = tmp / "checkpoint.json"
        plan = chaos.ChaosPlan("kill-resume", [
            chaos.ChaosEvent("worker_point", "kill", at=1),
            chaos.ChaosEvent("checkpoint_write", "kill", at=3),
        ])
        plan_path = plan.save(tmp / "plan.json")
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env[chaos.CHAOS_ENV] = str(plan_path)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_RESUME_CHILD, str(checkpoint)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        with open(checkpoint) as handle:
            recovered = len(json_mod.load(handle).get("completed", []))
        # Same attempt budget as the killed run: the checkpointed
        # WorkerCrash failure carries its spent attempts and must still
        # have headroom to retry.
        resumed = SweepRunner.resume(
            checkpoint, points, base, max_workers=1, max_attempts=3
        ).run()

    ref_metrics = [r.metrics for r in reference.points]
    res_metrics = [r.metrics for r in resumed.points]
    checks = {
        "child_was_killed": proc.returncode != 0,
        "checkpoint_recovered_points": 0 < recovered < len(points),
        "all_points_completed": resumed.num_failed == 0,
        "metrics_identical_to_uninterrupted": ref_metrics == res_metrics,
        "attempt_budgets_intact": all(
            r.attempts <= 3 for r in resumed.points
        ),
    }
    return checks, {
        "child_returncode": proc.returncode,
        "recovered_points": recovered,
        "total_points": len(points),
        "child_stderr_tail": proc.stderr[-2000:],
    }


def _chaos_torn_store(seed: int):
    """A torn store append degrades to a cache miss on reload — never a
    crash — and later appends land cleanly after the torn tail."""
    import tempfile

    from repro.faults import chaos
    from repro.sim.cosim import CosimConfig
    from repro.sim.store import ResultStore, point_key
    from repro.sim.sweep import SweepPointResult, expand_grid

    base = CosimConfig(cycles=40, warmup_cycles=10)
    points = expand_grid(["hotspot", "bfs"], base_seed=seed)
    results = [
        SweepPointResult(point=p, ok=True, metrics={"pde": 0.9 + i})
        for i, p in enumerate(points)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp_dir:
        path = Path(tmp_dir) / "store.jsonl"
        store = ResultStore(path)
        chaos.activate(chaos.ChaosPlan("torn-store", [
            chaos.ChaosEvent("store_append", "torn_write", at=0),
        ]))
        try:
            torn_ok = store.put(point_key(points[0], base), results[0])
        finally:
            chaos.deactivate()
        clean_ok = store.put(point_key(points[1], base), results[1])

        reloaded = ResultStore(path)
        checks = {
            "torn_put_reported_failure": torn_ok is False,
            "clean_put_after_torn": clean_ok is True,
            "torn_line_is_cache_miss": reloaded.get(
                point_key(points[0], base)
            ) is None,
            "clean_entry_survives": reloaded.serve(
                point_key(points[1], base), points[1]
            ) is not None,
            "corruption_counted_not_raised": reloaded.corrupt_lines >= 1,
        }
    return checks, {"store_stats": dict(reloaded.stats())}


def _chaos_cbuild_fail(seed: int):
    """A broken native build fails loudly — NativeBuildError with the
    compiler's diagnostic — and the real library still loads and runs."""
    import tempfile

    from repro import native
    from repro.native import KernelBuild, NativeBuildError
    from repro.sim.cosim import CosimConfig, run_cosim

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        source = Path(tmp) / "broken.c"
        source.write_text(
            "long long broken(void) { return undeclared_symbol; }\n"
        )
        build = KernelBuild([source], Path(tmp) / "cache", lambda lib: None)
        error = ""
        try:
            build.load()
        except NativeBuildError as exc:
            error = str(exc)
    try:
        native.load()
        library_error = ""
    except NativeBuildError as exc:
        library_error = str(exc)
    result = run_cosim(
        "hotspot", CosimConfig(cycles=60, warmup_cycles=20, seed=seed)
    )
    checks = {
        "broken_build_raises": bool(error),
        "error_carries_compiler_diagnostic": "undeclared_symbol" in error,
        "native_library_still_loads": not library_error,
        "short_cosim_runs": not result.diverged and result.num_cycles == 60,
    }
    return checks, {"build_error": error, "library_error": library_error}


CHAOS_SCENARIOS = {
    "nan-poison": _chaos_nan_poison,
    "lane-quarantine": _chaos_lane_quarantine,
    "kill-resume": _chaos_kill_resume,
    "torn-store": _chaos_torn_store,
    "cbuild-fail": _chaos_cbuild_fail,
}


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as json_mod

    if args.list:
        for name, runner in CHAOS_SCENARIOS.items():
            doc = (runner.__doc__ or "").split("\n")[0].strip()
            print(f"{name:<18s} {doc}")
        return 0
    if not args.scenario:
        print("need a scenario name (or --list)", file=sys.stderr)
        return 2
    if args.scenario == "all":
        names = list(CHAOS_SCENARIOS)
    elif args.scenario in CHAOS_SCENARIOS:
        names = [args.scenario]
    else:
        print(
            f"unknown chaos scenario {args.scenario!r}; "
            f"know {', '.join(CHAOS_SCENARIOS)} (or 'all')",
            file=sys.stderr,
        )
        return 2

    out_dir = Path(args.output) if args.output else None
    failed = False
    for name in names:
        checks, forensics = CHAOS_SCENARIOS[name](args.seed)
        ok = all(checks.values())
        failed = failed or not ok
        print(f"chaos scenario {name}: {'PASS' if ok else 'FAIL'}")
        for check, held in checks.items():
            print(f"  [{'ok' if held else 'FAIL'}] {check}")
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            artifact = out_dir / f"{name}.json"
            with open(artifact, "w") as handle:
                json_mod.dump(
                    {"scenario": name, "ok": ok, "checks": checks,
                     "forensics": forensics},
                    handle, indent=2, default=str,
                )
                handle.write("\n")
            print(f"  forensics -> {artifact}")
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.sim.cosim import CosimConfig
    from repro.sim.sweep import SweepRunner, expand_grid
    from repro.workloads.benchmarks import BENCHMARK_NAMES

    if args.benchmarks.strip().lower() == "all":
        benchmarks = list(BENCHMARK_NAMES)
    else:
        benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    areas = _area_values(args.areas)
    base = CosimConfig(
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        use_controller=not args.no_controller,
    )

    def progress(result) -> None:
        status = "ok" if result.ok else "FAILED"
        if result.timed_out:
            status = "TIMEOUT"
        retry = f" attempt {result.attempts}" if result.attempts > 1 else ""
        print(f"  {result.point.describe():<48s} {status} "
              f"({result.elapsed_s:.1f}s{retry})", flush=True)

    telemetry = None
    live = None
    if args.telemetry:
        from repro.telemetry import LiveRun, Telemetry

        telemetry = Telemetry(run_id="sweep")
        # The live plane shares the telemetry directory: status.json +
        # heartbeats/ appear as the sweep runs (watch with `repro top`),
        # and events stream into events.jsonl before write_run rewrites
        # the final, identical log.
        live = LiveRun(args.telemetry)
        live.attach(telemetry)
    points = expand_grid(
        benchmarks, axes={"cr_ivr_area_mm2": areas}, base_seed=args.seed
    )
    runner_kwargs = dict(
        max_workers=args.workers,
        chunksize=args.chunksize,
        batch_size=args.batch_size,
        point_timeout_s=args.timeout or None,
        max_attempts=args.retries + 1,
        retry_backoff_s=args.backoff,
        checkpoint_path=args.checkpoint or None,
    )
    if args.resume:
        if not args.checkpoint:
            print("--resume needs --checkpoint FILE", file=sys.stderr)
            return 2
        try:
            runner = SweepRunner.resume(
                args.checkpoint, points, base,
                **{k: v for k, v in runner_kwargs.items()
                   if k != "checkpoint_path"},
            )
        except (OSError, ValueError) as exc:
            print(f"cannot resume from {args.checkpoint}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"resuming: {len(runner._preloaded)}/{len(points)} points "
              "already complete")
    else:
        runner = SweepRunner(points, base, **runner_kwargs)
    sweep = runner.run(progress=progress, telemetry=telemetry, live=live)
    if telemetry is not None:
        from repro.telemetry import write_run

        if live is not None:
            live.close()
        manifest = write_run(
            telemetry, args.telemetry, config=base,
            extra={
                "command": "sweep",
                "benchmarks": benchmarks,
                "areas_mm2": areas,
            },
        )
        print(f"telemetry written to {manifest}")

    rows = []
    for r in sweep.successes():
        m = r.metrics
        cpk = m["cycles_per_kernel"]
        rows.append([
            r.point.benchmark,
            f"{dict(r.point.overrides)['cr_ivr_area_mm2']:.1f}",
            f"{m['min_voltage_v']:.3f}",
            f"{m['pde']:.1%}",
            f"{m['throughput_ipc']:.1f}",
            f"{cpk:.0f}" if cpk is not None else "n/a",
            str(m["fake_instructions"]),
        ])
    print(
        format_table(
            ["benchmark", "area_mm2", "V(min)", "PDE", "IPC",
             "cyc/kernel", "fakes"],
            rows,
            title=(
                f"Sweep: {len(sweep.points)} points, "
                f"{sweep.num_failed} failed, {sweep.elapsed_s:.1f}s"
            ),
        )
    )
    for r in sweep.failures():
        first_line = (r.error or "").splitlines()[0]
        print(f"FAILED {r.point.describe()}: {first_line}")
    for r in sweep.successes():
        if r.note:
            print(f"note {r.point.describe()}: {r.note}")
    if args.output:
        path = sweep.write_json(args.output)
        print(f"results written to {path}")
    # Failed points are reported, not fatal; only a fully-failed sweep
    # (or a crash before this line) is an error exit.
    return 0 if sweep.successes() else 1


def _parse_axis_value(text: str):
    """One axis value: JSON scalar when it parses, bare string otherwise."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_explore(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sim.cosim import CosimConfig
    from repro.sim.explore import run_exploration
    from repro.workloads.benchmarks import BENCHMARK_NAMES

    if args.benchmarks.strip().lower() == "all":
        benchmarks = list(BENCHMARK_NAMES)
    else:
        benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    axes = {}
    if args.areas.strip():
        axes["cr_ivr_area_mm2"] = _area_values(args.areas)
    for spec in args.axis:
        name, sep, values = spec.partition("=")
        if not sep or not name.strip() or not values.strip():
            print(f"bad --axis {spec!r}: expected FIELD=V1,V2,...",
                  file=sys.stderr)
            return 2
        axes[name.strip()] = [
            _parse_axis_value(v.strip()) for v in values.split(",") if v.strip()
        ]
    base = CosimConfig(
        cycles=args.cycles,
        warmup_cycles=args.warmup,
        use_controller=not args.no_controller,
    )

    def progress(result) -> None:
        status = "cached" if result.cached else ("ok" if result.ok else "FAILED")
        print(f"  {result.point.describe():<48s} {status} "
              f"({result.elapsed_s:.1f}s)", flush=True)

    telemetry = None
    live = None
    if args.telemetry:
        from repro.telemetry import LiveRun, Telemetry

        telemetry = Telemetry(run_id="explore")
        live = LiveRun(args.telemetry)
        live.attach(telemetry)
    try:
        result = run_exploration(
            benchmarks,
            axes,
            base,
            store_path=args.store,
            rounds=args.rounds,
            eta=args.eta,
            screen_cycles=args.screen_cycles or None,
            guardband_v=args.guardband,
            base_seed=args.seed,
            max_workers=args.workers,
            batch_size=args.batch_size,
            point_timeout_s=args.timeout or None,
            max_attempts=args.retries + 1,
            progress=progress if args.verbose else None,
            telemetry=telemetry,
            live=live,
        )
    except (ValueError, RuntimeError) as exc:
        print(f"exploration failed: {exc}", file=sys.stderr)
        return 2
    if telemetry is not None:
        from repro.telemetry import write_run

        if live is not None:
            live.close()
        manifest = write_run(
            telemetry, args.telemetry, config=base,
            extra={
                "command": "explore",
                "benchmarks": benchmarks,
                "axes": {k: list(v) for k, v in axes.items()},
            },
        )
        print(f"telemetry written to {manifest}")
    print(result.render())
    if args.output:
        path = result.write_json(Path(args.output))
        print(f"pareto artifact written to {path}")
    return 0 if result.front else 1


def _cmd_impedance(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_series
    from repro.circuits.ac import log_frequency_grid
    from repro.pdn.builder import build_stacked_pdn
    from repro.pdn.impedance import ImpedanceAnalyzer

    pdn = build_stacked_pdn(cr_ivr_area_mm2=args.area)
    analyzer = ImpedanceAnalyzer(pdn)
    freqs = log_frequency_grid(1e6, 5e8, points_per_decade=args.points)
    curves = analyzer.figure3_curves(freqs)
    print(
        format_series(
            {
                "frequency_mhz": list(np.round(curves["frequency"] / 1e6, 2)),
                "Z_G": list(np.round(curves["z_global"], 5)),
                "Z_ST": list(np.round(curves["z_stack"], 5)),
                "Z_R_same": list(
                    np.round(curves["z_residual_same_layer"], 5)
                ),
                "Z_R_diff": list(
                    np.round(curves["z_residual_diff_layer"], 5)
                ),
            },
            x_label="frequency_mhz",
            title=(
                f"Effective impedance (ohm), CR-IVR area {args.area} mm^2"
            ),
        )
    )
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    from repro.pdn.area import AreaModel

    model = AreaModel()
    gpu_die = model.gpu_die_area_mm2
    circuit = model.required_area_mm2(None, droop_target_v=args.guardband)
    cross = model.required_area_mm2(
        args.latency, droop_target_v=args.guardband
    )
    print(f"guardband: {args.guardband} V, control latency: {args.latency} "
          "cycles")
    print(f"circuit-only CR-IVR: {circuit:7.1f} mm^2 "
          f"({circuit / gpu_die:.2f}x GPU die)")
    print(f"cross-layer CR-IVR:  {cross:7.1f} mm^2 "
          f"({cross / gpu_die:.2f}x GPU die)")
    print(f"area reduction:      {1 - cross / circuit:.1%}")
    return 0


# ``repro pde`` settles the pipeline for this many cycles before it
# records the trace it reports on.
PDE_WARMUP_CYCLES = 300


def _pde_cycles(text: str) -> int:
    """``repro pde --cycles``: the recorded window must outlast the
    warmup, as every co-sim run's must."""
    cycles = _parse(int, text)
    if cycles <= PDE_WARMUP_CYCLES:
        raise argparse.ArgumentTypeError(
            f"must exceed the {PDE_WARMUP_CYCLES}-cycle warmup, got {cycles}"
        )
    return cycles


def _cmd_pde(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.config import StackConfig
    from repro.pdn.efficiency import (
        layer_shuffle_power,
        pde_conventional,
        pde_single_ivr,
        pde_voltage_stacked,
    )
    from repro.sim.cosim import CosimConfig, run_cosim

    # A circuit-only lane: its power trace is the GPU's own.
    trace = run_cosim(args.benchmark, CosimConfig(
        cycles=args.cycles, warmup_cycles=PDE_WARMUP_CYCLES,
        use_controller=False, seed=args.seed,
    )).power_trace
    load = trace.mean_power_w
    shuffle = layer_shuffle_power(trace.data, StackConfig())
    rows = []
    for label, breakdown in [
        ("single layer VRM", pde_conventional(load)),
        ("single layer IVR", pde_single_ivr(load)),
        ("VS circuit only", pde_voltage_stacked(load, shuffle)),
        (
            "VS cross-layer",
            pde_voltage_stacked(load, shuffle, controller_power_w=1.634e-3),
        ),
    ]:
        rows.append([label, f"{breakdown.pde:.1%}",
                     f"{breakdown.total_loss:.2f} W"])
    print(
        format_table(
            ["PDS", "PDE", "loss"], rows,
            title=(
                f"{trace.name}: load {load:.1f} W, layer imbalance "
                f"{shuffle / load:.1%}"
            ),
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_manifest, read_events, render_manifest

    try:
        manifest = load_manifest(args.manifest)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(render_manifest(manifest))
    # A missing or mid-line-truncated events.jsonl (run killed while
    # writing, partial copy, ...) must not block the manifest summary:
    # surface it as a note instead.
    events, note = read_events(args.manifest)
    if note:
        print(f"note: {note}")
    # Per-point degradations a sweep recorded (timeouts, metrics that
    # could not be computed) — failures are loud, these should not be
    # silent either.
    for event in events:
        if event.get("kind") != "sweep_point":
            continue
        tags = []
        if event.get("timed_out"):
            tags.append("timed out")
        if event.get("note"):
            tags.append(str(event["note"]))
        if not event.get("ok") and event.get("error"):
            tags.append(str(event["error"]))
        if tags:
            print(f"point #{event.get('index')} "
                  f"{event.get('benchmark', '?')}: {'; '.join(tags)}")
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.observatory import render_noise_report
    from repro.telemetry import load_manifest, read_flight_dir, render_flight

    try:
        manifest = load_manifest(args.manifest)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    run_dir = Path(args.manifest)
    if not run_dir.is_dir():
        run_dir = run_dir.parent
    flight_dumps = read_flight_dir(run_dir)
    noise = manifest.get("noise")
    if not noise:
        print(
            f"manifest {manifest.get('run_id', '?')} has no noise section "
            "(run was too short, or predates the observatory — re-run "
            "with --telemetry)",
            file=sys.stderr,
        )
        if not flight_dumps:
            return 1
        # The flight recorder may still have caught something the
        # aggregate observatory could not summarize — show it.
        print(f"run {manifest.get('run_id', '?')}")
        print(render_flight(flight_dumps, _flight_guardband(manifest)))
        return 0
    print(f"run {manifest.get('run_id', '?')}")
    print(render_noise_report(noise))
    if flight_dumps:
        print()
        print(render_flight(flight_dumps, _flight_guardband(manifest)))
    return 0


def _flight_guardband(manifest) -> Optional[float]:
    flight = manifest.get("flight")
    if isinstance(flight, dict) and flight.get("guardband_v") is not None:
        return float(flight["guardband_v"])
    return None


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.top import render_top

    now_fn = (lambda: args.now) if args.now is not None else time.time
    frame = render_top(
        args.directory, now_unix=now_fn(), stale_after_s=args.stale_after
    )
    print(frame)
    if args.once:
        return 0
    try:
        while True:
            time.sleep(args.interval)
            frame = render_top(
                args.directory, now_unix=now_fn(),
                stale_after_s=args.stale_after,
            )
            # Clear + home keeps the dashboard in place without pulling
            # in curses; plain reprint when stdout is not a terminal.
            if sys.stdout.isatty():
                print("\033[2J\033[H", end="")
            print(frame, flush=True)
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry import read_status, render_prometheus

    status = read_status(args.directory)
    if status is None:
        print(f"no status.json under {args.directory} (is the live plane "
              "on? runs write it when --telemetry DIR is set)",
              file=sys.stderr)
        return 1
    print(render_prometheus(status), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import (
        compare_manifests,
        load_thresholds,
        render_compare,
    )
    from repro.telemetry import load_manifest

    try:
        base = load_manifest(args.base)
        candidate = load_manifest(args.candidate)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    thresholds = None
    if args.thresholds:
        try:
            thresholds = load_thresholds(args.thresholds)
        except (OSError, ValueError) as exc:
            print(f"bad thresholds file: {exc}", file=sys.stderr)
            return 2
    report = compare_manifests(base, candidate, thresholds)
    print(render_compare(report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Flag validation: a value the models reject is a usage error (exit 2)
# carrying the model's own message, not a traceback.
# ---------------------------------------------------------------------------
def _parse(convert, text: str):
    """``convert(text)``, or argparse's usage error for a malformed value."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {convert.__name__} value: {text!r}"
        ) from None


def _model_checked(check, value):
    """``value`` once the model's ``check(value)`` accepts it; its
    ``ValueError`` becomes a usage error with the model's message."""
    try:
        check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _cr_ivr_area(text: str) -> float:
    """``--area``: a CR-IVR area ``check_cr_ivr_area`` accepts."""
    from repro.pdn.builder import check_cr_ivr_area

    return _model_checked(check_cr_ivr_area, _parse(float, text))


def _area_values(text: str) -> List[float]:
    """The CR-IVR areas of a comma-separated ``--areas`` list."""
    return [_cr_ivr_area(a) for a in text.split(",") if a.strip()]


def _area_axis(text: str) -> str:
    """``explore --areas``: comma-separated CR-IVR areas, each one a
    valid ``--area`` ('' drops the axis).  The text is kept; the command
    reads it with :func:`_area_values`."""
    _area_values(text)
    return text


def _sweep_areas(text: str) -> str:
    """``sweep --areas``: like ``explore --areas``, but a sweep's grid
    needs at least one area."""
    from repro.sim.sweep import expand_grid

    _model_checked(
        lambda areas: expand_grid(["hotspot"], {"cr_ivr_area_mm2": areas}),
        _area_values(text),
    )
    return text


def _control_latency(text: str) -> float:
    """``size --latency``: a control latency the area model accepts."""
    from repro.pdn.area import AreaModel

    return _model_checked(
        AreaModel().effective_imbalance_a, _parse(float, text)
    )


def _droop_target(text: str) -> float:
    """``size --guardband``: a droop target the area model accepts."""
    from repro.pdn.area import AreaModel

    return _model_checked(
        lambda v: AreaModel().required_area_mm2(droop_target_v=v),
        _parse(float, text),
    )


def _check_run_window(args: argparse.Namespace) -> None:
    """A co-sim command's ``--cycles`` and ``--warmup`` must make a
    ``CosimConfig``; otherwise its message is the command's usage error
    (``run_window`` is the command parser's ``error``)."""
    usage_error = getattr(args, "run_window", None)
    if usage_error is None:
        return
    from repro.sim.cosim import CosimConfig

    try:
        CosimConfig(cycles=args.cycles, warmup_cycles=args.warmup)
    except ValueError as exc:
        usage_error(str(exc))


def _benchmark_name(name: str) -> str:
    """A ``benchmark`` positional: one of the paper's twelve, or a usage
    error that lists them.  (Not ``choices``: the names would load the
    workload models whenever any command's parser is built.)"""
    from repro.workloads.benchmarks import BENCHMARK_NAMES

    if name not in BENCHMARK_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}"
        )
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Voltage-stacked GPU cross-layer simulator (MICRO'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmarks", help="list available workloads")
    p.add_argument("--suite", default="", choices=["", "rodinia", "cuda_sdk"])
    p.set_defaults(func=_cmd_benchmarks)

    p = sub.add_parser(
        "cosim", aliases=["run"], help="run the cross-layer co-simulation"
    )
    p.add_argument("benchmark", nargs="?", default="hotspot",
                   type=_benchmark_name)
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--area", type=_cr_ivr_area, default=105.8,
                   help="CR-IVR area in mm^2")
    p.add_argument("--no-controller", action="store_true",
                   help="circuit-only voltage stacking")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--telemetry", default="", metavar="DIR",
                   help="write a run manifest + JSONL event log here")
    p.set_defaults(func=_cmd_cosim, run_window=p.error)

    p = sub.add_parser(
        "faults",
        help="run a fault-injection scenario and print the guardband "
             "verdict",
    )
    p.add_argument(
        "scenario", nargs="?", default="",
        help="canned scenario name (see --list) or a scenario JSON file",
    )
    p.add_argument("--benchmark", default="hotspot")
    p.add_argument("--cycles", type=int, default=1200)
    p.add_argument("--warmup", type=int, default=150)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--list", action="store_true",
                   help="list canned scenarios and exit")
    p.add_argument(
        "--no-degradation", action="store_true",
        help="disable the guardband watchdog and sensor-loss fallback "
             "(demonstrates the unprotected failure mode)",
    )
    p.add_argument(
        "--expect", default="", metavar="VERDICT",
        choices=["", "survived", "safe_state", "violated"],
        help="exit 1 unless the verdict matches (CI smoke gate)",
    )
    p.add_argument("--telemetry", default="", metavar="DIR",
                   help="write a run manifest + JSONL event log here")
    p.set_defaults(func=_cmd_faults, run_window=p.error)

    p = sub.add_parser(
        "chaos",
        help="run a deterministic runtime-chaos scenario and assert its "
             "self-healing invariants (exit 1 on any violated check)",
    )
    p.add_argument(
        "scenario", nargs="?", default="",
        help="scenario name (see --list), or 'all'",
    )
    p.add_argument("--list", action="store_true",
                   help="list chaos scenarios and exit")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--output", default="", metavar="DIR",
                   help="write per-scenario forensics JSON here "
                        "(CI artifact upload)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "sweep", help="parallel co-simulation sweep over a parameter grid"
    )
    p.add_argument("--benchmarks", default="hotspot,heartwall,fastwalsh,bfs",
                   help="comma-separated benchmark names, or 'all'")
    p.add_argument("--areas", type=_sweep_areas, default="52.9,105.8,211.6",
                   help="comma-separated CR-IVR areas in mm^2")
    p.add_argument("--cycles", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: one per CPU; 1 = inline)")
    p.add_argument("--chunksize", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=1, metavar="B",
                   help="co-simulate up to B compatible grid points per "
                        "task with the lock-stepped batched engine, "
                        "stepped in lane groups of at most 8 "
                        "(bit-identical to per-point runs; 1 = off)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-controller", action="store_true")
    p.add_argument("--timeout", type=float, default=0.0, metavar="S",
                   help="per-point wall-clock timeout in seconds "
                        "(0 = none; hung points are killed)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts for retryable failures "
                        "(timeouts, crashed workers)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="S",
                   help="base delay between retry waves (doubles each wave)")
    p.add_argument("--checkpoint", default="", metavar="FILE",
                   help="append completed points to this atomic "
                        "partial-results file")
    p.add_argument("--resume", action="store_true",
                   help="skip points already completed in --checkpoint")
    p.add_argument("--output", default="sweep_results.json",
                   help="JSON results path ('' to skip writing)")
    p.add_argument("--telemetry", default="", metavar="DIR",
                   help="write a run manifest + JSONL event log here")
    p.set_defaults(func=_cmd_sweep, run_window=p.error)

    p = sub.add_parser(
        "explore",
        help="cached successive-halving exploration of the design space; "
             "emits the Pareto-frontier artifact (pareto.json)",
    )
    p.add_argument("--benchmarks", default="hotspot,heartwall,fastwalsh,bfs",
                   help="comma-separated benchmark names, or 'all'")
    p.add_argument("--areas", type=_area_axis, default="52.9,105.8,211.6",
                   help="CR-IVR area axis in mm^2 ('' to drop the axis)")
    p.add_argument(
        "--axis", action="append", default=[], metavar="FIELD=V1,V2",
        help="extra grid axis over a CosimConfig field; dotted names "
             "reach nested configs (e.g. controller.k2=4,8,16); values "
             "are parsed as JSON scalars when possible",
    )
    p.add_argument("--cycles", type=int, default=1000,
                   help="full-length run cycles (the final round)")
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--rounds", type=int, default=2,
                   help="successive-halving rounds (1 = exhaustive)")
    p.add_argument("--eta", type=int, default=2,
                   help="keep ~1/eta of the candidates per round")
    p.add_argument("--screen-cycles", type=int, default=0, metavar="N",
                   help="round-1 screening run length (0 = cycles/4)")
    p.add_argument("--guardband", type=float, default=0.8, metavar="V",
                   help="guardband voltage for the violation objective")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-controller", action="store_true")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: one per CPU; 1 = inline)")
    p.add_argument("--batch-size", type=int, default=1, metavar="B",
                   help="batched co-sim lanes per task, stepped in lane "
                        "groups of at most 8 (1 = off)")
    p.add_argument("--timeout", type=float, default=0.0, metavar="S",
                   help="per-point wall-clock timeout (0 = none)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts for retryable failures")
    p.add_argument("--store", default="explore_store.jsonl", metavar="FILE",
                   help="persistent config-hash result cache (JSONL); "
                        "reused across runs, shards and refinements")
    p.add_argument("--output", default="pareto.json", metavar="FILE",
                   help="Pareto artifact path ('' to skip writing)")
    p.add_argument("--verbose", action="store_true",
                   help="print per-point progress lines")
    p.add_argument("--telemetry", default="", metavar="DIR",
                   help="write a run manifest + JSONL event log here")
    p.set_defaults(func=_cmd_explore, run_window=p.error)

    p = sub.add_parser(
        "trace", help="summarize a telemetry manifest (dir or file)"
    )
    p.add_argument("manifest", help="telemetry directory or manifest.json")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "observe",
        help="render a run's noise report (bands, droops, loss ledger)",
    )
    p.add_argument("manifest", help="telemetry directory or manifest.json")
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser(
        "top",
        help="live dashboard of a running sweep/exploration directory "
             "(status, worker heartbeats, recent events, flight dumps)",
    )
    p.add_argument("directory", help="run directory (the --telemetry DIR)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scripting/CI)")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh period in seconds")
    p.add_argument("--stale-after", type=float, default=15.0, metavar="S",
                   help="mark a worker [STALE] when its heartbeat is older")
    p.add_argument("--now", type=float, default=None, metavar="UNIX",
                   help="render against this clock instead of wall time "
                        "(deterministic output for tests)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "metrics",
        help="print a run directory's live metrics in Prometheus text "
             "exposition format",
    )
    p.add_argument("directory", help="run directory (the --telemetry DIR)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "compare",
        help="diff two run manifests; exit 1 on metric regression",
    )
    p.add_argument("base", help="baseline telemetry dir or manifest.json")
    p.add_argument("candidate", help="candidate telemetry dir or manifest.json")
    p.add_argument(
        "--thresholds", default="", metavar="FILE",
        help="JSON per-metric threshold overrides (merged over defaults)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("impedance", help="effective impedance curves (Fig 3)")
    p.add_argument("--area", type=_cr_ivr_area, default=0.0)
    p.add_argument("--points", type=int, default=8,
                   help="frequency points per decade")
    p.set_defaults(func=_cmd_impedance)

    p = sub.add_parser("size", help="CR-IVR area sizing (Table III)")
    p.add_argument("--latency", type=_control_latency, default=60.0,
                   help="control loop latency in cycles")
    p.add_argument("--guardband", type=_droop_target, default=0.2,
                   help="voltage guardband in volts")
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("pde", help="PDE breakdown of a benchmark")
    p.add_argument("benchmark", nargs="?", default="hotspot",
                   type=_benchmark_name)
    p.add_argument("--cycles", type=_pde_cycles, default=3000,
                   help="recorded cycles, after a "
                        f"{PDE_WARMUP_CYCLES}-cycle warmup")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_pde)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _check_run_window(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
