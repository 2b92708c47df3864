"""Tests for manifest regression comparison (``repro compare``)."""

import json

import pytest

from repro.analysis.compare import (
    DEFAULT_THRESHOLDS,
    Threshold,
    compare_manifests,
    load_thresholds,
    metric_values,
    render_compare,
)


def manifest(metrics=None, noise_summary=None, faults_summary=None,
             run_id="run-a"):
    doc = {"run_id": run_id, "metrics": dict(metrics or {})}
    if noise_summary is not None:
        doc["noise"] = {"summary": dict(noise_summary)}
    if faults_summary is not None:
        doc["faults"] = {"summary": dict(faults_summary)}
    return doc


BASE = manifest(
    metrics={
        "benchmark": "hotspot",  # non-numeric: skipped
        "min_voltage_v": 0.86,
        "pde": 0.92,
        "throughput_ipc": 12.0,
    },
    noise_summary={"droop_event_count": 0.0, "band_control_vrms": 0.009},
)


class TestMetricValues:
    def test_flattens_headline_and_noise(self):
        values = metric_values(BASE)
        assert values["min_voltage_v"] == 0.86
        assert values["noise.droop_event_count"] == 0.0
        assert "benchmark" not in values

    def test_missing_sections_tolerated(self):
        assert metric_values({"run_id": "x"}) == {}

    def test_flattens_faults_summary(self):
        doc = manifest(
            metrics={"pde": 0.9},
            faults_summary={"verdict_code": 1, "min_voltage_v": 0.82},
        )
        values = metric_values(doc)
        assert values["faults.verdict_code"] == 1
        assert values["faults.min_voltage_v"] == 0.82

    def test_flattens_stage_timings(self):
        doc = manifest(metrics={"pde": 0.9})
        doc["timings_s"] = {"gpu_model": 0.02, "transient_solve": 0.05}
        values = metric_values(doc)
        assert values["timing.gpu_model"] == 0.02
        assert values["timing.transient_solve"] == 0.05
        assert "timing.gpu_model" in DEFAULT_THRESHOLDS


class TestCompare:
    def test_identical_manifests_zero_regressions(self):
        report = compare_manifests(BASE, BASE)
        assert report.ok
        assert report.regressions == []
        assert all(r.status in ("ok", "untracked") for r in report.rows)

    def test_regression_when_voltage_drops_beyond_tolerance(self):
        worse = manifest(
            metrics={**BASE["metrics"], "min_voltage_v": 0.80},
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, worse)
        assert not report.ok
        names = [r.name for r in report.regressions]
        assert names == ["min_voltage_v"]

    def test_drift_within_tolerance_is_ok(self):
        close = manifest(
            metrics={**BASE["metrics"], "min_voltage_v": 0.857},
            noise_summary=BASE["noise"]["summary"],
        )
        assert compare_manifests(BASE, close).ok

    def test_improvement_is_not_a_regression(self):
        better = manifest(
            metrics={**BASE["metrics"], "min_voltage_v": 0.91},
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, better)
        assert report.ok
        row = next(r for r in report.rows if r.name == "min_voltage_v")
        assert row.status == "improved"

    def test_new_droop_event_regresses(self):
        droopy = manifest(
            metrics=BASE["metrics"],
            noise_summary={
                **BASE["noise"]["summary"], "droop_event_count": 1.0,
            },
        )
        report = compare_manifests(BASE, droopy)
        assert [r.name for r in report.regressions] == [
            "noise.droop_event_count"
        ]

    def test_gated_metric_missing_from_candidate_regresses(self):
        gone = manifest(
            metrics={
                k: v for k, v in BASE["metrics"].items()
                if k != "min_voltage_v"
            },
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, gone)
        row = next(r for r in report.rows if r.name == "min_voltage_v")
        assert row.status == "MISSING"
        assert not report.ok

    def test_untracked_metric_never_gates(self):
        base = manifest(metrics={"weird_metric": 1.0})
        cand = manifest(metrics={"weird_metric": 999.0})
        report = compare_manifests(base, cand)
        assert report.ok
        assert report.rows[0].status == "untracked"

    def test_new_metric_in_candidate_is_informational(self):
        cand = manifest(
            metrics={**BASE["metrics"], "pde": 0.92, "extra": 5.0},
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, cand)
        assert report.ok
        row = next(r for r in report.rows if r.name == "extra")
        assert row.status == "new"

    def test_fault_verdict_code_regression_gates(self):
        """survived (0) -> violated (2) under the same fault scenario is
        a zero-tolerance regression; the reverse is an improvement."""
        good = manifest(
            metrics={"pde": 0.9},
            faults_summary={"verdict_code": 0, "min_voltage_v": 0.85},
        )
        bad = manifest(
            metrics={"pde": 0.9},
            faults_summary={"verdict_code": 2, "min_voltage_v": 0.70},
        )
        report = compare_manifests(good, bad)
        assert not report.ok
        names = [r.name for r in report.regressions]
        assert "faults.verdict_code" in names
        assert "faults.min_voltage_v" in names
        assert compare_manifests(bad, good).ok

    def test_nan_candidate_regresses_every_gated_metric(self):
        """A NaN compares False against everything, which used to fall
        through every gate to 'ok' — a broken run must fail the gate."""
        nan = float("nan")
        broken = manifest(
            metrics={
                **BASE["metrics"],
                "min_voltage_v": nan, "pde": nan, "throughput_ipc": nan,
            },
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, broken)
        assert not report.ok
        regressed = {r.name for r in report.regressions}
        assert {"min_voltage_v", "pde", "throughput_ipc"} <= regressed

    def test_nan_base_regresses_too(self):
        broken_base = manifest(
            metrics={**BASE["metrics"], "min_voltage_v": float("nan")},
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(broken_base, BASE)
        row = next(r for r in report.rows if r.name == "min_voltage_v")
        assert row.status == "REGRESSED"
        assert not report.ok

    def test_infinite_gated_value_regresses(self):
        inf = manifest(
            metrics={**BASE["metrics"], "throughput_ipc": float("inf")},
            noise_summary=BASE["noise"]["summary"],
        )
        report = compare_manifests(BASE, inf)
        assert [r.name for r in report.regressions] == ["throughput_ipc"]

    def test_nan_on_untracked_metric_does_not_gate(self):
        base = manifest(metrics={"weird_metric": 1.0})
        cand = manifest(metrics={"weird_metric": float("nan")})
        report = compare_manifests(base, cand)
        assert report.ok
        assert report.rows[0].status == "untracked"

    def test_stable_direction_flags_both_ways(self):
        gates = {"mean_power_w": Threshold("stable", rel_tol=0.05)}
        base = manifest(metrics={"mean_power_w": 60.0})
        up = manifest(metrics={"mean_power_w": 70.0})
        down = manifest(metrics={"mean_power_w": 50.0})
        assert not compare_manifests(base, up, gates).ok
        assert not compare_manifests(base, down, gates).ok
        assert compare_manifests(base, base, gates).ok


def test_out_of_range_cycles_fail_against_a_zero_baseline():
    """A run that leaves the physical voltage range regresses against a
    baseline that never did, under the default gates and the committed
    CI thresholds."""
    from pathlib import Path

    base = manifest(metrics={"out_of_range_cycles": 0.0})
    bad = manifest(metrics={"out_of_range_cycles": 3.0}, run_id="run-b")
    committed = load_thresholds(
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "baselines" / "thresholds.json"
    )
    for gates in (None, committed):
        report = compare_manifests(base, bad, gates)
        assert [r.name for r in report.regressions] == ["out_of_range_cycles"]
        assert compare_manifests(base, base, gates).ok


class TestThreshold:
    def test_tolerance_is_max_of_abs_and_rel(self):
        t = Threshold("higher", abs_tol=0.1, rel_tol=0.01)
        assert t.tolerance(5.0) == pytest.approx(0.1)
        assert t.tolerance(100.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Threshold("sideways")
        with pytest.raises(ValueError):
            Threshold("higher", abs_tol=-1.0)


class TestLoadThresholds:
    def test_overrides_merge_over_defaults(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps({
            "min_voltage_v": {"abs_tol": 0.5},
            "brand_new": {"better": "lower", "rel_tol": 0.1},
            "pde": None,
        }))
        merged = load_thresholds(path)
        # Overridden tolerance, direction kept from the default gate.
        assert merged["min_voltage_v"].abs_tol == 0.5
        assert merged["min_voltage_v"].better == "higher"
        assert merged["brand_new"].better == "lower"
        assert "pde" not in merged
        # Untouched defaults survive.
        assert merged["noise.droop_event_count"] == DEFAULT_THRESHOLDS[
            "noise.droop_event_count"
        ]

    def test_underscore_keys_are_comments(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps({
            "_comment": "explains the file",
            "min_voltage_v": {"abs_tol": 0.25},
        }))
        merged = load_thresholds(path)
        assert "_comment" not in merged
        assert merged["min_voltage_v"].abs_tol == 0.25

    def test_bad_shapes_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["not", "a", "mapping"]))
        with pytest.raises(ValueError):
            load_thresholds(path)
        path.write_text(json.dumps({"x": {"unknown_key": 1}}))
        with pytest.raises(ValueError):
            load_thresholds(path)


class TestRender:
    def test_mentions_verdict_and_metrics(self):
        text = render_compare(compare_manifests(BASE, BASE))
        assert "0 regressions" in text
        assert "min_voltage_v" in text

    def test_lists_regressed_metric_names(self):
        worse = manifest(
            metrics={**BASE["metrics"], "min_voltage_v": 0.5},
            noise_summary=BASE["noise"]["summary"],
        )
        text = render_compare(compare_manifests(BASE, worse))
        assert "1 regression(s): min_voltage_v" in text
        assert "REGRESSED" in text
