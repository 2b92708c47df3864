"""Tests for the parallel sweep runner."""

import json

import numpy as np
import pytest

from repro.sim.cosim import CosimConfig
from repro.sim.sweep import (
    SweepPoint,
    SweepPointResult,
    SweepResult,
    SweepRunner,
    expand_grid,
    point_seed,
    run_sweep,
)

# Tiny runs: the sweep machinery is under test, not the physics.
FAST = CosimConfig(cycles=40, warmup_cycles=10)


class TestGridExpansion:
    def test_cartesian_product_size(self):
        points = expand_grid(
            ["hotspot", "bfs"],
            {"cr_ivr_area_mm2": [52.9, 105.8, 211.6], "circuit_substeps": [1, 2]},
        )
        assert len(points) == 2 * 3 * 2

    def test_indices_are_grid_order(self):
        points = expand_grid(["hotspot"], {"cr_ivr_area_mm2": [1.0, 2.0]})
        assert [p.index for p in points] == [0, 1]
        assert [dict(p.overrides)["cr_ivr_area_mm2"] for p in points] == [1.0, 2.0]

    def test_no_axes_is_one_point_per_benchmark(self):
        points = expand_grid(["hotspot", "bfs", "srad"])
        assert len(points) == 3
        assert all(p.overrides == () for p in points)

    def test_unknown_field_fails_fast(self):
        with pytest.raises(ValueError, match="unknown CosimConfig field"):
            expand_grid(["hotspot"], {"not_a_field": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid(["hotspot"], {"cr_ivr_area_mm2": []})

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="benchmark"):
            expand_grid([])

    def test_overrides_applied_to_config(self):
        point = expand_grid(["hotspot"], {"cr_ivr_area_mm2": [211.6]})[0]
        config = point.config(FAST)
        assert config.cr_ivr_area_mm2 == 211.6
        assert config.cycles == FAST.cycles

    def test_dotted_axis_reaches_nested_config(self):
        """Dotted names sweep nested dataclass knobs (controller gains)
        while keeping the override values JSON-scalar — checkpoints and
        the result store never have to serialize a ControllerConfig."""
        points = expand_grid(["hotspot"], {"controller.k2": [0.05, 0.2]})
        assert [dict(p.overrides)["controller.k2"] for p in points] == [
            0.05, 0.2
        ]
        config = points[1].config(FAST)
        assert config.controller.k2 == 0.2
        # Untouched sibling fields come from the base controller config.
        assert config.controller.k1 == FAST.controller.k1
        assert config.cycles == FAST.cycles

    def test_dotted_axis_combines_with_flat_axes(self):
        points = expand_grid(
            ["hotspot"],
            {"cr_ivr_area_mm2": [52.9], "controller.k3": [0.0, 0.4]},
        )
        assert len(points) == 2
        config = points[0].config(FAST)
        assert config.cr_ivr_area_mm2 == 52.9
        assert config.controller.k3 == 0.0

    def test_dotted_axis_unknown_head_or_leaf_fails_fast(self):
        with pytest.raises(ValueError, match="unknown CosimConfig field"):
            expand_grid(["hotspot"], {"nope.k2": [1]})
        with pytest.raises(ValueError, match="unknown"):
            expand_grid(["hotspot"], {"controller.not_a_gain": [1]})
        with pytest.raises(ValueError, match="not a nested config|unknown"):
            expand_grid(["hotspot"], {"cycles.k2": [1]})

    def test_dotted_point_round_trips_through_records(self):
        point = expand_grid(["hotspot"], {"controller.k2": [0.2]})[0]
        result = SweepPointResult(point=point, ok=True, metrics={})
        rebuilt = SweepPointResult.from_record(
            json.loads(json.dumps(result.to_record()))
        )
        assert rebuilt.point == point
        assert rebuilt.point.config(FAST).controller.k2 == 0.2


class TestSeeding:
    def test_deterministic_across_expansions(self):
        a = expand_grid(["hotspot", "bfs"], {"circuit_substeps": [1, 2]}, base_seed=9)
        b = expand_grid(["hotspot", "bfs"], {"circuit_substeps": [1, 2]}, base_seed=9)
        assert [p.seed for p in a] == [p.seed for p in b]

    def test_distinct_per_point(self):
        points = expand_grid(["hotspot"] * 3, {"circuit_substeps": [1, 2]})
        seeds = [p.seed for p in points]
        assert len(set(seeds)) == len(seeds)

    def test_base_seed_changes_seeds(self):
        assert point_seed(1, 0) != point_seed(2, 0)

    def test_seed_reaches_config(self):
        point = expand_grid(["hotspot"], base_seed=5)[0]
        assert point.config(FAST).seed == point.seed
        assert point.seed == point_seed(5, 0)

    def test_explicit_seed_axis_wins(self):
        point = SweepPoint(index=0, benchmark="hotspot",
                           overrides=(("seed", 42),), seed=7)
        assert point.config(FAST).seed == 42


class TestRunnerInline:
    """max_workers=1 runs in-process — the fast path for unit tests."""

    def test_failure_captured_not_fatal(self):
        result = run_sweep(
            ["hotspot", "__does_not_exist__"],
            base_config=FAST,
            max_workers=1,
        )
        assert len(result.points) == 2
        ok, bad = result.points
        assert ok.ok and ok.metrics["min_voltage_v"] > 0.5
        assert not bad.ok
        assert "unknown benchmark" in bad.error
        assert result.num_failed == 1

    def test_metrics_cover_warmup_fixed_counters(self):
        result = run_sweep(["hotspot"], base_config=FAST, max_workers=1)
        metrics = result.points[0].metrics
        for key in ("fake_instructions", "throttled_cycles",
                    "cycles_per_kernel", "pde", "throughput_ipc"):
            assert key in metrics

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(
            ["hotspot", "bfs"], base_config=FAST, max_workers=1,
            progress=seen.append,
        )
        assert [r.point.index for r in seen] == [0, 1]

    def test_rejects_live_controller_object(self):
        config = CosimConfig(
            cycles=10, warmup_cycles=0, controller_object=object()
        )
        with pytest.raises(ValueError, match="controller_object"):
            SweepRunner(expand_grid(["hotspot"]), config)

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            SweepRunner([], FAST)

    def test_rejects_bad_chunksize(self):
        with pytest.raises(ValueError, match="chunksize"):
            SweepRunner(expand_grid(["hotspot"]), FAST, chunksize=0)


class TestBatchedFailureCapture:
    """A point whose config cannot be built fails alone, as on the
    serial path, whatever the batch size."""

    @staticmethod
    def _outcomes(points, batch_size):
        result = SweepRunner(
            points, CosimConfig(cycles=60, warmup_cycles=10),
            max_workers=0, batch_size=batch_size,
        ).run()
        return [(r.ok, r.error) for r in result.points]

    def test_batch_sizes_agree_on_an_unbuildable_point(self):
        points = expand_grid(["hotspot"], {"warmup_cycles": [10, 5000]})
        serial = self._outcomes(points, 1)
        assert [ok for ok, _ in serial] == [True, False]
        assert "warmup_cycles (5000)" in serial[1][1]
        assert self._outcomes(points, 4) == serial

    def test_bad_cr_ivr_area_fails_its_point(self):
        points = expand_grid(
            ["hotspot"], {"cr_ivr_area_mm2": [52.9, -5.0, float("nan")]}
        )
        outcomes = self._outcomes(points, 4)
        assert [ok for ok, _ in outcomes] == [True, False, False]
        assert all("cr_ivr_area_mm2" in error for _, error in outcomes[1:])
        assert outcomes == self._outcomes(points, 1)


class TestRunnerProcesses:
    def test_multiprocess_sweep_with_injected_failure(self):
        """One diverging point is reported, not fatal, across processes."""
        result = run_sweep(
            ["hotspot", "__boom__", "bfs"],
            axes={"circuit_substeps": [1]},
            base_config=FAST,
            max_workers=2,
        )
        assert [r.ok for r in result.points] == [True, False, True]
        assert "KeyError" in result.points[1].error

    def test_results_in_grid_order(self):
        result = run_sweep(
            ["hotspot", "bfs"], base_config=FAST, max_workers=2, chunksize=1
        )
        assert [r.point.benchmark for r in result.points] == ["hotspot", "bfs"]


class TestJsonWriter:
    def test_round_trip(self, tmp_path):
        result = run_sweep(
            ["hotspot", "__bad__"], base_config=FAST, max_workers=1
        )
        path = result.write_json(tmp_path / "out" / "sweep.json")
        data = json.loads(path.read_text())
        assert data["num_points"] == 2
        assert data["num_failed"] == 1
        assert data["base_config"]["cycles"] == FAST.cycles
        good = data["points"][0]
        assert good["ok"] is True
        assert isinstance(good["metrics"]["min_voltage_v"], float)
        bad = data["points"][1]
        assert bad["ok"] is False and "unknown benchmark" in bad["error"]

    def test_numpy_metrics_round_trip(self, tmp_path):
        """Regression: point metrics carrying NumPy scalars *and arrays*
        must survive the JSON writer (the old coercion handled only
        scalar ``.item()``, so an ``np.ndarray`` metric crashed
        ``json.dump``)."""
        point = SweepPoint(index=0, benchmark="hotspot")
        result = SweepResult(
            points=[
                SweepPointResult(
                    point=point,
                    ok=True,
                    metrics={
                        "f64": np.float64(1.5),
                        "i64": np.int64(7),
                        "arr": np.array([0.25, 0.5], dtype=np.float32),
                    },
                )
            ],
            base_config=FAST,
        )
        path = result.write_json(tmp_path / "np.json")
        metrics = json.loads(path.read_text())["points"][0]["metrics"]
        assert metrics == {"f64": 1.5, "i64": 7, "arr": [0.25, 0.5]}
        assert isinstance(metrics["i64"], int)


class TestSweepTelemetry:
    def test_per_point_events_and_utilization(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(run_id="sweep-test")
        result = run_sweep(
            ["hotspot", "__bad__"], base_config=FAST, max_workers=1,
            telemetry=tele,
        )
        assert result.num_failed == 1
        assert tele.counters["points_ok"] == 1
        assert tele.counters["points_failed"] == 1
        kinds = [e["kind"] for e in tele.events]
        assert kinds[0] == "sweep_start"
        assert kinds.count("sweep_point") == 2
        assert kinds[-1] == "sweep_done"
        failed = [e for e in tele.events
                  if e["kind"] == "sweep_point" and not e["ok"]]
        assert "unknown benchmark" in failed[0]["error"]
        assert 0.0 < tele.metrics["worker_utilization"] <= 1.5
        assert tele.metrics["num_points"] == 2
        assert "sweep" in tele.timings

    def test_disabled_recorder_is_inert(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(enabled=False)
        run_sweep(["hotspot"], base_config=FAST, max_workers=1,
                  telemetry=tele)
        assert tele.events == []
        assert tele.counters == {}
