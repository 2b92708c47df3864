"""Smoke test of the benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/bench``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    proc = _run(BENCH / "run.py", "--seed", 1, "--smoke", "--out", out)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_names_match_benchmark_json(smoke, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert list(smoke["workloads"]) == workloads
    for data in smoke["workloads"].values():
        assert set(data["metrics"]) == end_to_end | {"error_rate"}
        assert set(data["per_layer"]) == per_layer
        assert data["metrics"]["error_rate"]["value"] == 0
        assert not data["problems"]
    names = workloads + sorted(end_to_end) + sorted(per_layer)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in end_to_end


def test_layer_self_times_sum_to_traced_wall(smoke):
    for workload, data in smoke["workloads"].items():
        layer = data["per_layer"]
        total = sum(layer[f"{name}.self_s"] for name in tracer.LAYERS)
        assert total == pytest.approx(layer["trace.wall_s"], rel=0.01), workload


def _installed():
    targets = [(module, path) for _, module, path in tracer.SPANS]
    targets += [(module, f"{cls}.__init__")
                for _, module, cls in tracer.REGISTRIES]
    resolved = [tracer._resolve(module, path) for module, path in targets]
    return [owner.__dict__[attr] for owner, attr in resolved]


def test_tracer_restores_every_wrapped_function():
    before = _installed()
    with tracer.Tracer():
        during = _installed()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _installed()))
    with pytest.raises(KeyError):
        with tracer.Tracer():
            raise KeyError("boom")
    assert all(a is b for a, b in zip(before, _installed()))


def _tight(smoke_result, workload):
    """A copy whose lane_cycles_per_s samples sit within 1%."""
    result = copy.deepcopy(smoke_result)
    samples = [1000.0, 1004.0, 996.0, 1002.0, 998.0]
    result["workloads"][workload]["metrics"]["lane_cycles_per_s"].update(
        run.summarize(samples), samples=samples
    )
    return result


def test_compare_flags_a_slowdown_and_a_digest_change(smoke, spec, tmp_path):
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "lane_cycles_per_s")
    base = _tight(smoke, "b8_mixed")
    slower = copy.deepcopy(base)
    metric = slower["workloads"]["b8_mixed"]["metrics"]["lane_cycles_per_s"]
    # A drop 5 points past the bound (the bound is 20%, so this is 25%).
    metric["samples"] = [(0.95 - bound) * s for s in metric["samples"]]
    metric.update(run.summarize(metric["samples"]))
    slower["workloads"]["b1_serial"]["physics_digest"] = "0" * 64
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"]
        for r in compare.compare(base, slower, spec)
    }
    assert verdicts[("b8_mixed", "lane_cycles_per_s")] == "worse"
    assert verdicts[("b1_serial", "physics_digest")] == "mismatch"
    assert verdicts[("b8_mixed", "physics_digest")] == "identical"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    other = copy.deepcopy(base)
    other["fingerprint"]["backends"]["solver"] = "numpy"
    b.write_text(json.dumps(other))
    assert compare.main([str(a), str(b)]) == 2


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_line(spec, trace, kind):
    proc = _run(BENCH / "run.py", "--workload", "b8_mixed", "--seed", 3,
                "--seconds", 0, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec[kind]}


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("benchmarks/bench/run.py", "--workload", "b1_serial",
                "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
