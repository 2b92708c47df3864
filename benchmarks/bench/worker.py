"""One benchmark child: set up a workload, time it, trace it, check it.

``run.py`` starts this as a fresh interpreter per sample, with the BLAS
thread pins already in its environment, and reads the single JSON line
it prints.  Its argument is one JSON object:

``workload``, ``seed``, ``scale`` ("full" or "smoke")
``setup_only``  stop after the set-up run
``seconds``     keep running timed reps until this much time has passed
``reps_min``    ... and at least this many
``trace``       finish with one traced rep (per-layer metrics)
``checks``      re-run the first, middle and last lane alone at B=1

Every rep (warm-up, timed, traced) is digested and health-checked
after it ends.  The timed reps run with nothing but the two co-sim
entry points wrapped (to count calls) and under a :class:`SpeedProbe`,
which converts their wall time to reference-host seconds.  The probe
starts before anything heavy is imported, so the set-up run is
corrected too: ``ready_at`` is ``time.monotonic()`` when the set-up run
finished (CLOCK_MONOTONIC is system-wide on Linux, so the parent
subtracts its own launch time), with the probe's time and speed beside
it.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

from probe import SpeedProbe
from tracer import LAYERS, Tracer


def _rep(job, layers=("sim",)):
    """Run the job once: (reference_s, wall_s, speed, output, tracer)."""
    with Tracer(layers) as tracer, SpeedProbe() as probe:
        start = time.perf_counter()
        output = job.run()
        wall = time.perf_counter() - start
    return probe.reference_s(wall), wall, probe.speed, output, tracer


class _Checker:
    """Digests and health of every rep of one job."""

    def __init__(self, job, combine) -> None:
        self.job = job
        self.combine = combine
        self.attempted = 0
        self.problems: list = []
        self.digests: list = []
        self.lane_digests: list = []

    def rep(self, output, tracer, label: str) -> None:
        job = self.job
        self.attempted += job.units
        self.problems.extend(f"{label}: {p}" for p in job.problems(output))
        for entry, expected in job.expected_calls.items():
            got = tracer.calls(entry)
            if (got == 0) if expected is None else (got != expected):
                want = "at least 1" if expected is None else str(expected)
                self.problems.append(
                    f"{label}: {got} {entry} calls, expected {want} "
                    "(did a batch fall back to per-point runs?)"
                )
        lanes = job.lane_digests(output)
        if not self.lane_digests:
            self.lane_digests = lanes
        self.digests.append(self.combine(lanes))

    def solos(self, samples) -> None:
        """Sampled lanes re-run alone at B=1 must match byte for byte."""
        for k in samples:
            self.attempted += 1
            if self.job.solo_digest(k) != self.lane_digests[k]:
                self.problems.append(
                    f"lane {k} run alone at B=1 differs from its batch run"
                )


def _environment() -> dict:
    """Library versions and the GPU/solver backends this process uses."""
    import numpy
    import scipy

    from repro.gpu.gpu import GPU
    from repro.sim import cosim
    from repro.workloads.benchmarks import get_benchmark

    info = cosim.last_batch_solver_info()
    if not info:
        cosim.run_cosim_batch([cosim.CosimLane(
            config=cosim.CosimConfig(cycles=2, warmup_cycles=1)
        )])
        info = cosim.last_batch_solver_info()
    return {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "backends": {
            "gpu": GPU(get_benchmark("hotspot").kernel).engine.backend,
            "solver": info["backend"],
        },
    }


def main(spec: dict) -> dict:
    name, seed, scale = spec["workload"], spec["seed"], spec["scale"]
    with SpeedProbe() as setup_probe:
        # Imported under the probe: loading NumPy, SciPy and the
        # simulator is part of set-up.
        import workloads

        setup_job = workloads.make_job(name, seed, scale, setup=True)
        with Tracer(("sim",)) as setup_tracer:
            setup_out = setup_job.run()
        ready_at = time.monotonic()
    report = {
        "ready_at": ready_at,
        "setup_probe_s": setup_probe.probe_s,
        "setup_speed": setup_probe.speed,
    }
    setup_check = _Checker(setup_job, workloads.combine)
    setup_check.rep(setup_out, setup_tracer, "setup")
    del setup_out
    if spec["setup_only"]:
        report.update(problems=setup_check.problems,
                      attempted=setup_check.attempted)
        return report

    job = workloads.make_job(name, seed, scale)
    checker = _Checker(job, workloads.combine)
    *_, output, tracer = _rep(job)
    checker.rep(output, tracer, "warm-up")
    # Each rep starts with the previous one's cyclic garbage collected,
    # so its peak memory does not depend on when the collector last ran.
    del output
    gc.collect()

    reps = {"reference_s": [], "wall_s": [], "speed": []}
    start = time.perf_counter()
    while len(reps["wall_s"]) < spec["reps_min"] or (
        time.perf_counter() - start < spec["seconds"]
    ):
        ref, wall, speed, output, tracer = _rep(job)
        for key, value in zip(reps, (ref, wall, speed)):
            reps[key].append(value)
        checker.rep(output, tracer, f"rep {len(reps['wall_s'])}")
        del output
        gc.collect()
        if len(reps["wall_s"]) == 1:
            # Peak RSS after a fixed amount of work (set-up, warm-up,
            # one rep): how many more reps fit in ``seconds`` depends on
            # the machine, and each can fragment the heap a bit more.
            report["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    report.update(reps=reps, lane_cycles=job.lane_cycles, units=job.units)

    if spec["trace"]:
        _, wall, speed, output, tracer = _rep(job, LAYERS)
        checker.rep(output, tracer, "traced rep")
        del output
        # Seconds scale to the reference host like the timed reps; the
        # probe's own ~1% stays inside the spans, so the self times
        # still add up to trace.wall_s.
        report["per_layer"] = {
            key: value * speed if key.endswith("_s") else value
            for key, value in tracer.metrics(wall).items()
        }
        del tracer

    if spec["checks"] and job.batch:
        checker.solos(workloads.sample_lanes(job.units))

    if len(set(checker.digests)) > 1:
        checker.problems.append(
            "physics digest differs between reps of the same inputs"
        )
    report.update(
        digest=checker.digests[0],
        problems=setup_check.problems + checker.problems,
        attempted=setup_check.attempted + checker.attempted,
        **_environment(),
    )
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
