"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import CHAOS_SCENARIOS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("benchmarks", "cosim", "sweep", "impedance", "size",
                        "pde"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--benchmarks", "bfs,srad", "--areas", "52.9",
             "--workers", "1", "--output", ""]
        )
        assert args.benchmarks == "bfs,srad"
        assert args.areas == "52.9"
        assert args.workers == 1
        assert args.output == ""

    def test_cosim_options(self):
        args = build_parser().parse_args(
            ["cosim", "bfs", "--cycles", "100", "--no-controller"]
        )
        assert args.benchmark == "bfs"
        assert args.cycles == 100
        assert args.no_controller

    def test_run_is_cosim_alias(self):
        args = build_parser().parse_args(
            ["run", "bfs", "--telemetry", "/tmp/t"]
        )
        assert args.benchmark == "bfs"
        assert args.telemetry == "/tmp/t"

    def test_trace_takes_manifest_path(self):
        args = build_parser().parse_args(["trace", "some/dir"])
        assert args.manifest == "some/dir"
        assert callable(args.func)

    def test_observe_takes_manifest_path(self):
        args = build_parser().parse_args(["observe", "runs/h"])
        assert args.manifest == "runs/h"
        assert callable(args.func)

    def test_compare_takes_two_manifests_and_thresholds(self):
        args = build_parser().parse_args(
            ["compare", "base", "cand", "--thresholds", "t.json"]
        )
        assert args.base == "base"
        assert args.candidate == "cand"
        assert args.thresholds == "t.json"
        assert callable(args.func)

    def test_faults_options(self):
        args = build_parser().parse_args(
            ["faults", "guardband-breaker", "--no-degradation",
             "--expect", "violated", "--cycles", "300"]
        )
        assert args.scenario == "guardband-breaker"
        assert args.no_degradation
        assert args.expect == "violated"
        assert args.cycles == 300
        assert callable(args.func)

    def test_faults_list_flag(self):
        args = build_parser().parse_args(["faults", "--list"])
        assert args.list
        assert args.scenario == ""

    def test_explore_options(self):
        args = build_parser().parse_args(
            ["explore", "--benchmarks", "hotspot", "--areas", "52.9,211.6",
             "--axis", "warmup_cycles=60,0", "--axis", "controller.k2=0.1",
             "--rounds", "3", "--eta", "4", "--screen-cycles", "120",
             "--guardband", "0.75", "--store", "s.jsonl",
             "--output", "p.json"]
        )
        assert args.benchmarks == "hotspot"
        assert args.axis == ["warmup_cycles=60,0", "controller.k2=0.1"]
        assert args.rounds == 3
        assert args.eta == 4
        assert args.screen_cycles == 120
        assert args.guardband == 0.75
        assert args.store == "s.jsonl"
        assert args.output == "p.json"
        assert callable(args.func)

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.rounds == 2
        assert args.eta == 2
        assert args.screen_cycles == 0  # 0 -> cycles/4 at runtime
        assert args.store == "explore_store.jsonl"
        assert args.output == "pareto.json"

    @pytest.mark.parametrize("cycles", ["300", "0", "-5"])
    def test_pde_cycles_must_outlast_the_warmup(self, capsys, cycles):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["pde", "hotspot", "--cycles", cycles])
        assert exc.value.code == 2
        assert "300-cycle warmup" in capsys.readouterr().err

    def test_pde_cycles_past_the_warmup(self):
        args = build_parser().parse_args(["pde", "--cycles", "301"])
        assert args.cycles == 301

    def test_sweep_hardening_options(self):
        args = build_parser().parse_args(
            ["sweep", "--timeout", "30", "--retries", "2",
             "--backoff", "0.1", "--checkpoint", "ck.json", "--resume"]
        )
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.backoff == 0.1
        assert args.checkpoint == "ck.json"
        assert args.resume


class TestCommands:
    def test_benchmarks_lists_names(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out
        assert "fastwalsh" in out

    def test_benchmarks_suite_filter(self, capsys):
        main(["benchmarks", "--suite", "cuda_sdk"])
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "hotspot" not in out

    def test_size_reports_reduction(self, capsys):
        assert main(["size"]) == 0
        out = capsys.readouterr().out
        assert "area reduction" in out
        assert "x GPU die" in out

    def test_impedance_prints_curves(self, capsys):
        assert main(["impedance", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "Z_G" in out
        assert "Z_R_same" in out

    def test_cosim_short_run(self, capsys):
        assert main(["cosim", "heartwall", "--cycles", "400",
                     "--warmup", "100"]) == 0
        out = capsys.readouterr().out
        assert "heartwall" in out
        assert "PDE" in out

    def test_cosim_short_run_reports_na_kernel_time(self, capsys):
        """Runs too short to finish a kernel degrade to n/a, not a crash."""
        assert main(["cosim", "hotspot", "--cycles", "60",
                     "--warmup", "10"]) == 0
        out = capsys.readouterr().out
        assert "cycles/kernel n/a" in out

    def test_sweep_inline(self, capsys, tmp_path):
        output = tmp_path / "sweep.json"
        assert main(["sweep", "--benchmarks", "hotspot,bfs",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "Sweep: 2 points, 0 failed" in out
        assert output.exists()

    def test_sweep_reports_failed_points(self, capsys):
        assert main(["sweep", "--benchmarks", "hotspot,__nope__",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", ""]) == 0
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "FAILED" in out and "__nope__" in out

    def test_explore_end_to_end_then_fully_cached(self, capsys, tmp_path):
        """``repro explore`` twice against one store: the repeat serves
        everything from cache and emits an identical frontier."""
        store = tmp_path / "store.jsonl"
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        argv = ["explore", "--benchmarks", "hotspot", "--areas", "105.8",
                "--axis", "seed=1,2", "--cycles", "60", "--warmup", "10",
                "--screen-cycles", "20", "--workers", "1",
                "--store", str(store)]
        assert main(argv + ["--output", str(out1)]) == 0
        first = capsys.readouterr().out
        assert "Pareto frontier" in first
        assert "pareto artifact written to" in first

        assert main(argv + ["--output", str(out2)]) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second

        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        assert doc1["artifact"] == "pareto"
        assert doc2["points_simulated"] == 0
        assert all(r["cache_hit_rate"] == 1.0 for r in doc2["rounds"])
        assert doc2["front"] == doc1["front"]

    def test_explore_bad_axis_spec_errors(self, capsys):
        assert main(["explore", "--axis", "nonsense"]) == 2
        assert "bad --axis" in capsys.readouterr().err

    def test_explore_unknown_axis_field_errors(self, capsys):
        assert main(["explore", "--axis", "no_such_knob=1,2",
                     "--cycles", "40", "--warmup", "10"]) == 2
        assert "exploration failed" in capsys.readouterr().err

    def test_size_uses_shared_die_area(self, capsys):
        from repro.pdn.parameters import GPU_DIE_AREA_MM2

        assert GPU_DIE_AREA_MM2 == 529.0
        assert main(["size"]) == 0

    def test_pde_breakdown(self, capsys):
        assert main(["pde", "hotspot", "--cycles", "600"]) == 0
        out = capsys.readouterr().out
        assert "VS cross-layer" in out
        assert "single layer VRM" in out


class TestTelemetryCommands:
    def test_run_writes_manifest_and_trace_renders_it(self, capsys, tmp_path):
        """The headline workflow: ``repro run --telemetry DIR`` then
        ``repro trace DIR``."""
        tele_dir = tmp_path / "tele"
        assert main(["run", "hotspot", "--cycles", "120", "--warmup", "20",
                     "--telemetry", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out
        assert (tele_dir / "manifest.json").exists()
        assert (tele_dir / "events.jsonl").exists()

        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "run cosim-hotspot" in out
        assert "gpu_model" in out
        assert "transient_solve" in out
        assert "stage sum" in out

    def test_trace_missing_manifest_errors(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope")]) == 1
        assert "no telemetry manifest" in capsys.readouterr().err

    def test_sweep_telemetry(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["sweep", "--benchmarks", "hotspot",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", "",
                     "--telemetry", str(tele_dir)]) == 0
        assert (tele_dir / "manifest.json").exists()
        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "points_ok" in out
        assert "worker_utilization" in out

    def test_trace_notes_missing_events_log(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["run", "hotspot", "--cycles", "120", "--warmup", "20",
                     "--telemetry", str(tele_dir)]) == 0
        (tele_dir / "events.jsonl").unlink()
        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "note: events log missing" in out

    def test_trace_notes_truncated_events_log(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["run", "hotspot", "--cycles", "120", "--warmup", "20",
                     "--telemetry", str(tele_dir)]) == 0
        events = tele_dir / "events.jsonl"
        raw = events.read_text()
        events.write_text(raw[: len(raw) - 12])  # cut mid-JSON-object
        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "note: events log truncated" in out


class TestObservatoryCommands:
    @pytest.fixture()
    def run_pair(self, tmp_path, capsys):
        """Two telemetry runs of the same benchmark with the same seed."""
        dirs = []
        for name in ("base", "cand"):
            tele_dir = tmp_path / name
            assert main(["run", "hotspot", "--cycles", "200",
                         "--warmup", "40", "--seed", "7",
                         "--telemetry", str(tele_dir)]) == 0
            dirs.append(tele_dir)
        capsys.readouterr()  # drop run output
        return dirs

    def test_observe_renders_noise_report(self, capsys, run_pair):
        base, _ = run_pair
        assert main(["observe", str(base)]) == 0
        out = capsys.readouterr().out
        assert "run cosim-hotspot" in out
        assert "Band decomposition" in out
        assert "PDE loss ledger" in out
        assert "Per-layer current imbalance" in out

    def test_observe_without_noise_section_errors(self, capsys, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"run_id": "bare", "metrics": {}})
        )
        assert main(["observe", str(tmp_path)]) == 1
        assert "no noise section" in capsys.readouterr().err

    def test_compare_identical_seed_runs_passes(self, capsys, run_pair):
        base, cand = run_pair
        assert main(["compare", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out
        assert "REGRESSED" not in out

    def test_compare_flags_perturbed_headline_metric(self, capsys,
                                                     run_pair):
        base, cand = run_pair
        manifest_path = cand / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metrics"]["min_voltage_v"] -= 0.05
        manifest_path.write_text(json.dumps(manifest))
        assert main(["compare", str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "min_voltage_v" in out

    def test_compare_custom_thresholds_file(self, capsys, tmp_path,
                                            run_pair):
        base, cand = run_pair
        manifest_path = cand / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metrics"]["min_voltage_v"] -= 0.05
        manifest_path.write_text(json.dumps(manifest))
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(json.dumps(
            {"min_voltage_v": {"better": "higher", "abs_tol": 0.2}}
        ))
        assert main(["compare", str(base), str(cand),
                     "--thresholds", str(thresholds)]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_compare_bad_thresholds_file_errors(self, capsys, tmp_path,
                                                run_pair):
        base, cand = run_pair
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"min_voltage_v": {"better": "sideways"}}))
        assert main(["compare", str(base), str(cand),
                     "--thresholds", str(bad)]) == 2
        assert capsys.readouterr().err != ""


class TestFaultCommands:
    def test_list_prints_canned_scenarios(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        assert "guardband-breaker" in out
        assert "sensor-storm" in out

    def test_missing_scenario_errors(self, capsys):
        assert main(["faults"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, capsys):
        assert main(["faults", "__nope__"]) == 2
        assert "__nope__" in capsys.readouterr().err

    def test_short_scenario_run_prints_verdict(self, capsys):
        assert main(["faults", "sensor-storm", "--cycles", "150",
                     "--warmup", "30"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "min voltage" in out

    def test_expect_mismatch_fails(self, capsys):
        # With degradation on, the breaker scenario does NOT end violated.
        assert main(["faults", "guardband-breaker", "--cycles", "600",
                     "--warmup", "100", "--seed", "3",
                     "--expect", "violated"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_no_degradation_violates_breaker(self, capsys):
        assert main(["faults", "guardband-breaker", "--cycles", "600",
                     "--warmup", "100", "--seed", "3", "--no-degradation",
                     "--expect", "violated"]) == 0
        out = capsys.readouterr().out
        assert "verdict: violated" in out

    def test_json_scenario_file(self, capsys, tmp_path):
        from repro.faults import get_scenario

        path = tmp_path / "scenario.json"
        get_scenario("sensor-storm").to_json(path)
        assert main(["faults", str(path), "--cycles", "150",
                     "--warmup", "30"]) == 0
        assert "verdict:" in capsys.readouterr().out

    def test_bad_json_scenario_file_errors(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"events": [{"kind": "__nope__"}]}))
        assert main(["faults", str(path)]) == 2
        assert capsys.readouterr().err != ""

    def test_faults_telemetry_writes_faults_manifest(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["faults", "sensor-storm", "--cycles", "150",
                     "--warmup", "30", "--telemetry", str(tele_dir)]) == 0
        manifest = json.loads((tele_dir / "manifest.json").read_text())
        assert manifest["faults"]["schedule"] == "sensor-storm"
        assert "verdict" in manifest["faults"]
        capsys.readouterr()
        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "faults: schedule 'sensor-storm'" in out


class TestChaosScenarios:
    @pytest.mark.parametrize("name", list(CHAOS_SCENARIOS))
    def test_every_check_holds(self, name):
        """Each ``repro chaos`` scenario at seed 3, as the CI smoke job
        runs it: every invariant it checks holds."""
        checks, _ = CHAOS_SCENARIOS[name](3)
        failed = [check for check, held in checks.items() if not held]
        assert checks and not failed, f"{name}: {failed}"


class TestSweepHardeningCommands:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        base_args = ["sweep", "--benchmarks", "hotspot",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", "",
                     "--checkpoint", str(ckpt)]
        assert main(base_args) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(base_args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming: 1/1 points already complete" in out

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["sweep", "--resume", "--workers", "1",
                     "--output", ""]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_trace_surfaces_point_notes(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["sweep", "--benchmarks", "hotspot",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", "",
                     "--telemetry", str(tele_dir)]) == 0
        capsys.readouterr()
        assert main(["trace", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "point #0 hotspot" in out
        assert "cycles_per_kernel unavailable" in out


class TestObservabilityCommands:
    def sweep_dir(self, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["sweep", "--benchmarks", "hotspot",
                     "--areas", "105.8", "--cycles", "60", "--warmup", "10",
                     "--workers", "1", "--output", "",
                     "--telemetry", str(tele_dir)]) == 0
        return tele_dir

    def test_top_once_renders_sweep_dir(self, capsys, tmp_path):
        tele_dir = self.sweep_dir(tmp_path)
        capsys.readouterr()
        assert main(["top", str(tele_dir), "--once", "--now", "5e9"]) == 0
        out = capsys.readouterr().out
        assert "1/1 (100%)" in out
        assert "Workers (1)" in out
        assert "sweep_done" in out

    def test_top_once_deterministic_under_injected_clock(self, capsys,
                                                         tmp_path):
        tele_dir = self.sweep_dir(tmp_path)
        capsys.readouterr()
        assert main(["top", str(tele_dir), "--once", "--now", "5e9"]) == 0
        first = capsys.readouterr().out
        assert main(["top", str(tele_dir), "--once", "--now", "5e9"]) == 0
        assert capsys.readouterr().out == first

    def test_top_marks_stale_workers(self, capsys, tmp_path):
        tele_dir = self.sweep_dir(tmp_path)
        capsys.readouterr()
        # Everything is stale from the far future...
        assert main(["top", str(tele_dir), "--once", "--now", "5e9"]) == 0
        assert "[STALE]" in capsys.readouterr().out
        # ...nothing is stale with an infinite threshold.
        assert main(["top", str(tele_dir), "--once", "--now", "5e9",
                     "--stale-after", "1e12"]) == 0
        assert "[STALE]" not in capsys.readouterr().out

    def test_top_empty_dir_graceful(self, capsys, tmp_path):
        assert main(["top", str(tmp_path), "--once", "--now", "0"]) == 0
        assert "no status.json yet" in capsys.readouterr().out

    def test_metrics_prometheus_text(self, capsys, tmp_path):
        tele_dir = self.sweep_dir(tmp_path)
        capsys.readouterr()
        assert main(["metrics", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sweep_points_done counter" in out
        assert "sweep_points_done 1" in out
        assert "sweep_point_elapsed_s_bucket" in out

    def test_metrics_without_status_errors(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path)]) == 1
        assert "no status.json" in capsys.readouterr().err

    def test_faults_run_dumps_flight_and_observe_renders_it(self, capsys,
                                                            tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["faults", "guardband-breaker", "--cycles", "600",
                     "--warmup", "100", "--seed", "3",
                     "--telemetry", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        dumps = sorted((tele_dir / "flight").glob("*.json"))
        assert dumps, "guardband-breaker must produce flight dumps"
        assert main(["observe", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        assert "guardband_onset" in out

    def test_cosim_telemetry_writes_flight_summary(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["cosim", "hotspot", "--cycles", "100",
                     "--warmup", "20", "--telemetry", str(tele_dir)]) == 0
        manifest = json.loads((tele_dir / "manifest.json").read_text())
        assert "flight" in manifest
        assert manifest["flight"]["cycles_observed"] == 120

    def test_explore_telemetry_publishes_live_plane(self, capsys, tmp_path):
        tele_dir = tmp_path / "tele"
        assert main(["explore", "--benchmarks", "hotspot",
                     "--areas", "52.9,105.8", "--cycles", "80",
                     "--warmup", "16", "--rounds", "1", "--workers", "1",
                     "--store", str(tmp_path / "store.jsonl"),
                     "--output", "", "--telemetry", str(tele_dir)]) == 0
        capsys.readouterr()
        assert main(["top", str(tele_dir), "--once", "--now", "5e9"]) == 0
        out = capsys.readouterr().out
        assert "explore round 1/1" in out
