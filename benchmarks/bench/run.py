"""Benchmark runner: end-to-end host metrics and a per-layer trace.

Two ways to run it, both from the repository root:

``python3 benchmarks/bench/run.py --seed 1 [--out FILE] [--smoke]``
    The full protocol.  Five rounds, each running every workload once
    (in a rotated order) in a fresh child: set-up, one untimed warm-up
    rep, one timed rep.  Then one traced child per workload gives the
    per-layer numbers and re-runs sampled lanes alone at B=1.  Writes
    ``BENCH_<rev>.json`` (default: ``benchmarks/bench/results/``) with
    the git rev, a machine fingerprint, and median/q1/q3/n of every
    metric on every workload.  ``--smoke`` runs tiny sizes, two rounds.

``python3 benchmarks/bench/run.py --workload W --seed N --seconds S --trace T``
    One sample of one workload, as ``BENCHMARK.json``'s command runs it.
    Prints one JSON line (``correct``, ``attempted``, ``failed``,
    ``metrics``): the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

Only one process generates load at a time: children run one after
another, each pinned to one BLAS/OpenMP thread, with sweeps in-process.
Either way the run exits 1 when an output check fails.  This file uses
the standard library only; the simulator runs in ``worker.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
ROUNDS = {"full": 5, "smoke": 2}
#: Fresh set-up-only children per single-workload run, on top of the
#: measuring child's own set-up; setup_s is the median of them all.
SETUP_CHILDREN = 3
PREP_TIMEOUT_S = 850  # the first child in a checkout compiles the C kernels
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The compiler's scratch files stay inside the checkout.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``worker.py`` with ``spec``; its report plus ``setup_s``."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {spec} timed out after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"child {spec} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {spec} printed no report")
    report = json.loads(lines[-1])
    # Launch to ready, less the probe's own time, in reference seconds.
    report["setup_wall_s"] = report["ready_at"] - launched
    report["setup_s"] = (
        report["setup_wall_s"] - report["setup_probe_s"]
    ) * report["setup_speed"]
    return report


def _spec(workload: str, seed: int, scale: str, **kw) -> dict:
    base = {
        "workload": workload, "seed": seed, "scale": scale,
        "setup_only": False, "seconds": 0.0, "reps_min": 1,
        "trace": False, "checks": False,
    }
    base.update(kw)
    return base


def throughputs(report: dict, key: str = "reference_s") -> List[float]:
    """Lane-cycles per reference-host second (``wall_s``: per wall second)."""
    return [report["lane_cycles"] / t for t in report["reps"][key]]


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------
def _run_text(argv: List[str]) -> str:
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def git_rev() -> Dict[str, object]:
    """Short rev, and whether ``src/`` differs from it."""
    if not (ROOT / ".git").exists():
        return {"rev": "nogit", "dirty": None}
    rev = _run_text(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"])
    status = _run_text([
        "git", "-C", str(ROOT), "status", "--porcelain",
        "--untracked-files=no", "--", "src",
    ])
    return {"rev": rev or "nogit", "dirty": bool(status)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint(child_report: dict) -> Dict[str, object]:
    cc = shutil.which("cc")
    return {
        **git_rev(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **child_report["versions"],
        "cc": _run_text([cc, "--version"]).splitlines()[0] if cc else None,
        "thread_pins": dict(THREAD_PINS),
        "backends": child_report["backends"],
    }


# ---------------------------------------------------------------------------
# One sample of one workload (BENCHMARK.json's command)
# ---------------------------------------------------------------------------
def run_sample(spec: dict, workload: str, seed: int, seconds: float,
               trace: bool, scale: str) -> dict:
    run_child(_spec(workload, seed, scale, setup_only=True),
              timeout=PREP_TIMEOUT_S)  # untimed: builds kernels, warms caches
    children = []
    if not trace:
        children = [
            run_child(_spec(workload, seed, scale, setup_only=True))
            for _ in range(SETUP_CHILDREN)
        ]
    measured = run_child(_spec(
        workload, seed, scale, seconds=seconds, trace=trace, checks=True,
    ))
    children.append(measured)
    if trace:
        layer = dict(measured["per_layer"])
        untraced = statistics.median(measured["reps"]["reference_s"])
        layer["trace.overhead"] = layer["trace.wall_s"] / untraced - 1.0
        metrics = layer
    else:
        metrics = {
            "lane_cycles_per_s": statistics.median(throughputs(measured)),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    problems = [p for c in children for p in c["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": len(problems),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


# ---------------------------------------------------------------------------
# The full protocol
# ---------------------------------------------------------------------------
def run_protocol(spec: dict, seed: int, scale: str) -> dict:
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    samples = {w: {m: [] for m in end_to_end} for w in names}
    # Uncorrected wall-clock throughput and the probe's host speed, kept
    # beside the metrics so a reader can see how much was corrected.
    host = {w: {"wall_lane_cycles_per_s": [], "speed": []} for w in names}
    untraced = {w: [] for w in names}
    digests = {w: [] for w in names}
    problems = {w: [] for w in names}
    attempted = {w: 0 for w in names}

    def note(workload: str, report: dict) -> None:
        digests[workload].append(report.get("digest"))
        problems[workload].extend(report["problems"])
        attempted[workload] += report["attempted"]

    first = None
    for w in names:
        run_child(_spec(w, seed, scale, setup_only=True),
                  timeout=PREP_TIMEOUT_S)
    rounds = ROUNDS[scale]
    for r in range(rounds):
        for w in names[r % len(names):] + names[: r % len(names)]:
            report = run_child(_spec(w, seed, scale))
            first = first or report
            note(w, report)
            untraced[w].extend(report["reps"]["reference_s"])
            samples[w]["lane_cycles_per_s"].extend(throughputs(report))
            host[w]["wall_lane_cycles_per_s"].extend(
                throughputs(report, "wall_s")
            )
            host[w]["speed"].extend(report["reps"]["speed"])
            samples[w]["setup_s"].append(report["setup_s"])
            samples[w]["peak_rss_mb"].append(report["peak_rss_mb"])
            print(f"round {r + 1}/{rounds} {w}: "
                  f"{throughputs(report)[0]:,.0f} lane-cycles/s, "
                  f"setup {report['setup_s']:.3f} s", file=sys.stderr)

    result = {
        "schema": 1,
        "seed": seed,
        "scale": scale,
        "rounds": rounds,
        "fingerprint": fingerprint(first),
        "workloads": {},
    }
    for w in names:
        traced = run_child(_spec(w, seed, scale, reps_min=0, trace=True,
                                 checks=True))
        note(w, traced)
        layer = dict(traced["per_layer"])
        layer["trace.overhead"] = (
            layer["trace.wall_s"] / statistics.median(untraced[w]) - 1.0
        )
        if len(set(digests[w])) != 1:
            problems[w].append(
                "physics digest differs between children of the same inputs"
            )
        failed = len(problems[w])
        metrics = {
            name: dict(summarize(samples[w][name]), unit=m["unit"],
                       better=m["better"], samples=samples[w][name])
            for name, m in end_to_end.items()
        }
        metrics["error_rate"] = {
            "value": failed / attempted[w], "unit": "fraction",
            "better": "lower", "failed": failed, "attempted": attempted[w],
        }
        result["workloads"][w] = {
            "metrics": metrics,
            "physics_digest": digests[w][0],
            "problems": problems[w],
            "per_layer": layer,
            "host": {key: summarize(v) for key, v in host[w].items()},
        }
    return result


def render(result: dict) -> str:
    rows = []
    for w, data in result["workloads"].items():
        m = data["metrics"]
        lc = m["lane_cycles_per_s"]
        layer = data["per_layer"]
        rows.append(
            f"{w:<18} {lc['median']:>10,.0f} [{lc['q1']:,.0f}-{lc['q3']:,.0f}] "
            f"setup {m['setup_s']['median']:.3f} s  "
            f"rss {m['peak_rss_mb']['median']:.0f} MB  "
            f"errors {m['error_rate']['value']:.3f}  "
            f"gpu {layer['gpu.share']:.0%} circuits {layer['circuits.share']:.0%} "
            f"core {layer['core.share']:.0%} sim {layer['sim.share']:.0%} "
            f"sweep {layer['sweep.share']:.0%}  "
            f"overhead {layer['trace.overhead']:+.0%}"
        )
    head = (f"rev {result['fingerprint']['rev']} seed {result['seed']} "
            f"({result['rounds']} rounds, lane-cycles/s median [q1-q3])")
    return "\n".join([head] + rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", help="run one sample of one workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-rep budget of a single-workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of the full protocol")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (for the benchmark's own test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    scale = "smoke" if args.smoke else "full"
    try:
        if args.workload is not None:
            names = [w["name"] for w in spec["workloads"]]
            if args.workload not in names:
                parser.error(f"unknown workload {args.workload!r}: {names}")
            seconds = (spec["run_seconds"] if args.seconds is None
                       else args.seconds)
            line = run_sample(spec, args.workload, args.seed, seconds,
                              bool(args.trace), scale)
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        result = run_protocol(spec, args.seed, scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else (
        BENCH_DIR / "results" / f"BENCH_{result['fingerprint']['rev']}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    print(f"wrote {out}")
    failed = {w: d["problems"] for w, d in result["workloads"].items()
              if d["problems"]}
    for w, found in failed.items():
        for problem in found:
            print(f"check failed: {w}: {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
