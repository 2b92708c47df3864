"""The benchmark's four workloads, built from a seed.

Every workload drives the simulator only through its public entry
points (``run_cosim``, ``run_cosim_batch`` and ``SweepRunner.run``), and
the seed only reaches the simulator as lane seeds and sweep base seeds.
README.md says why each workload exists.

A job knows how to run itself once, how to digest its output, what
"healthy" output looks like, and how to re-run one of its lanes alone
at B=1 through the same entry point (the batch-equivalence check).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim import cosim
from repro.sim.cosim import CosimConfig, CosimLane
from repro.sim.sweep import SweepRunner, expand_grid, point_seed
from repro.telemetry import to_jsonable
from repro.workloads.benchmarks import BENCHMARK_NAMES

#: (cycles, warmup_cycles) per workload and scale.  "full" is sized so
#: one rep takes 2-4 s on a 2-core Xeon; "smoke" exists for the test.
SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "full": {
        "b1_serial": (12000, 200),
        "b8_mixed": (12000, 200),
        "b128_wide": (2000, 200),
        "b8_active_faulted": (10000, 200),
    },
    "smoke": {
        "b1_serial": (150, 30),
        "b8_mixed": (150, 30),
        "b128_wide": (40, 10),
        "b8_active_faulted": (150, 30),
    },
}
#: The set-up run: the workload's own lanes, two cycles, one of warmup.
SETUP_SIZE = (2, 1)

SERIAL_BENCHMARKS = ("hotspot", "bfs", "blackscholes", "srad")
MIXED_AREAS_MM2 = (105.8, 211.6)


# ---------------------------------------------------------------------------
# Digests and health
# ---------------------------------------------------------------------------
def _canonical(value) -> bytes:
    return json.dumps(to_jsonable(value), sort_keys=True).encode()


def result_digest(result) -> str:
    """sha256 over one lane's waveforms and counters."""
    h = hashlib.sha256()
    for array in (
        result.sm_voltages, result.power_trace.data, result.supply_current,
        result.kernel_durations,
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(_canonical({
        "benchmark": result.benchmark,
        "instructions": result.instructions,
        "fake_instructions": result.fake_instructions,
        "throttled_cycles": result.throttled_cycles,
        "kernels_completed": result.kernels_completed,
        "mean_dcc_power_w": result.mean_dcc_power_w,
        "fault_report": result.fault_report,
        "divergence": result.divergence,
    }))
    return h.hexdigest()


def point_digest(point_result) -> str:
    """sha256 over one sweep point's flattened metric dict."""
    return hashlib.sha256(_canonical({
        "index": point_result.point.index,
        "benchmark": point_result.point.benchmark,
        "ok": point_result.ok,
        "metrics": point_result.metrics,
    })).hexdigest()


def combine(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _result_problems(label: str, result) -> List[str]:
    if result.diverged:
        return [f"{label}: diverged or quarantined ({result.divergence})"]
    if not np.isfinite(result.sm_voltages).all():
        return [f"{label}: non-finite SM voltage"]
    return []


def _point_problems(point_result) -> List[str]:
    label = point_result.point.describe()
    if not point_result.ok:
        first = (point_result.error or "").splitlines()[:1]
        return [f"{label}: failed ({first[0] if first else 'no error'})"]
    bad = [
        key for key, value in point_result.metrics.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    return [f"{label}: non-finite {', '.join(bad)}"] if bad else []


# ---------------------------------------------------------------------------
# Jobs, one per entry point
# ---------------------------------------------------------------------------
class SerialJob:
    """``run_cosim`` on each lane, one after another (the B=1 path)."""

    batch = False

    def __init__(self, runs: List[Tuple[str, CosimConfig]]) -> None:
        self.runs = runs
        self.units = len(runs)
        self.lane_cycles = sum(c.cycles + c.warmup_cycles for _, c in runs)
        self.expected_calls = {"run_cosim": len(runs), "run_cosim_batch": 0}

    def run(self):
        # Looked up on the module at call time so a tracer's wrapper runs.
        return [cosim.run_cosim(name, config) for name, config in self.runs]

    def lane_digests(self, output) -> List[str]:
        return [result_digest(r) for r in output]

    def problems(self, output) -> List[str]:
        return [
            p for i, r in enumerate(output)
            for p in _result_problems(f"lane {i} {r.benchmark}", r)
        ]


class BatchJob:
    """One ``run_cosim_batch`` call over all lanes."""

    batch = True

    def __init__(self, lanes: List[CosimLane]) -> None:
        self.lanes = lanes
        self.units = len(lanes)
        self.lane_cycles = sum(
            l.config.cycles + l.config.warmup_cycles for l in lanes
        )
        self.expected_calls = {"run_cosim": 0, "run_cosim_batch": 1}

    def run(self):
        return cosim.run_cosim_batch(self.lanes)

    def solo_digest(self, k: int) -> str:
        return result_digest(cosim.run_cosim_batch([self.lanes[k]])[0])

    lane_digests = SerialJob.lane_digests
    problems = SerialJob.problems


class SweepJob:
    """``SweepRunner(..., max_workers=0, batch_size=B).run()``."""

    batch = True

    def __init__(self, points, base: CosimConfig, batch_size: int) -> None:
        self.points = list(points)
        self.base = base
        self.batch_size = batch_size
        self.units = len(self.points)
        self.lane_cycles = sum(
            (c.cycles + c.warmup_cycles)
            for c in (p.config(base) for p in self.points)
        )
        # Any run_cosim call here is _run_point_batch's silent per-point
        # fallback (or a quarantined lane's serial retry).  How the
        # runner groups points into batches is its own business: None
        # means "at least one call".
        self.expected_calls = {"run_cosim": 0, "run_cosim_batch": None}

    def run(self):
        return SweepRunner(
            self.points, self.base, max_workers=0, batch_size=self.batch_size
        ).run()

    def solo_digest(self, k: int) -> str:
        alone = SweepRunner(
            [self.points[k]], self.base, max_workers=0, batch_size=1
        ).run()
        return point_digest(alone.points[0])

    @staticmethod
    def lane_digests(output) -> List[str]:
        ordered = sorted(output.points, key=lambda r: r.point.index)
        return [point_digest(r) for r in ordered]

    @staticmethod
    def problems(output) -> List[str]:
        return [p for r in output.points for p in _point_problems(r)]


# ---------------------------------------------------------------------------
# The four workloads
# ---------------------------------------------------------------------------
def _b1_serial(seed: int, cycles: int, warmup: int) -> SerialJob:
    return SerialJob([
        (name, CosimConfig(
            cycles=cycles, warmup_cycles=warmup, seed=point_seed(seed, i)
        ))
        for i, name in enumerate(SERIAL_BENCHMARKS)
    ])


def _b8_mixed(seed: int, cycles: int, warmup: int) -> SweepJob:
    points = expand_grid(
        BENCHMARK_NAMES[:8], {"cr_ivr_area_mm2": list(MIXED_AREAS_MM2)},
        base_seed=seed,
    )
    base = CosimConfig(cycles=cycles, warmup_cycles=warmup)
    return SweepJob(points, base, batch_size=8)


def _b128_wide(seed: int, cycles: int, warmup: int) -> SweepJob:
    seeds = [point_seed(seed, 1000 + j) for j in range(11)]
    points = expand_grid(BENCHMARK_NAMES, {"seed": seeds}, base_seed=seed)
    base = CosimConfig(cycles=cycles, warmup_cycles=warmup)
    return SweepJob(points[:128], base, batch_size=128)


def _b8_active_faulted(seed: int, cycles: int, warmup: int) -> BatchJob:
    # A controller that decides and actuates: a high droop threshold,
    # a deep DIWS gain, and DCC switched on next to DIWS and FII.
    controller = ControllerConfig(v_threshold=0.97, k1=15.0)
    actuation = WeightedActuation(w1=1.0, w2=1.0, w3=1.0)
    scenarios = list(CANNED_SCENARIOS.values())
    lanes = []
    for i in range(8):
        faults = scenarios[i // 2]() if i % 2 == 0 else None
        lanes.append(CosimLane(
            benchmark=BENCHMARK_NAMES[i],
            config=CosimConfig(
                cycles=cycles, warmup_cycles=warmup, seed=point_seed(seed, i),
                controller=controller, actuation=actuation, faults=faults,
            ),
        ))
    return BatchJob(lanes)


WORKLOADS = {
    "b1_serial": _b1_serial,
    "b8_mixed": _b8_mixed,
    "b128_wide": _b128_wide,
    "b8_active_faulted": _b8_active_faulted,
}


def make_job(name: str, seed: int, scale: str, setup: bool = False):
    """The job for workload ``name``; ``setup`` shrinks it to two cycles."""
    cycles, warmup = SETUP_SIZE if setup else SIZES[scale][name]
    return WORKLOADS[name](seed, cycles, warmup)


def sample_lanes(units: int) -> List[int]:
    """First, middle and last lane: the ones re-run alone at B=1."""
    return sorted({0, units // 2, units - 1})
