"""Shared fixtures for the reproduction benchmark harness.

Heavy artefacts (GPU power traces, co-simulation runs) are cached at
session scope and shared across the table/figure benchmarks, so the
whole harness regenerates every figure in a few minutes.  Each driver
prints its paper-style table through ``emit`` (captured by pytest; run
with ``-s`` to stream) and also writes it to its own
``===== name =====`` section of ``benchmarks/results/report.txt``,
replacing that section's previous copy in place.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    CosimResult,
    run_cosim,
    run_cosim_batch,
)
from repro.workloads.benchmarks import BENCHMARK_NAMES
from repro.workloads.traces import PowerTrace

RESULTS_DIR = Path(__file__).parent / "results"
# The serial co-sim oracle lives with the tests (tests/oracles/); make the
# repo root importable however pytest was launched.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

# Run lengths: long enough for several kernel launches per benchmark,
# short enough that the full harness stays in the minutes range.
TRACE_CYCLES = 4000
COSIM_CYCLES = 2500
PENALTY_CYCLES = 8000
SEED = 11

# Deeper DIWS gain used by the performance studies (Figs. 12-14): the
# throttle must bite below the issue rate for its cost to be visible.
PENALTY_MODE_K1 = 15.0
DIWS_ONLY = WeightedActuation(w1=1.0, w2=0.0, w3=0.0)


def _report_sections(text: str) -> Dict[str, str]:
    """``===== name =====`` sections of a report, in first-seen order.

    A name that occurs more than once keeps its latest body.
    """
    sections: Dict[str, str] = {}
    name = None
    body: List[str] = []
    for line in text.splitlines():
        if line.startswith("===== ") and line.endswith(" ====="):
            if name is not None:
                sections[name] = "\n".join(body).strip("\n")
            name, body = line[6:-6], []
        elif name is not None:
            body.append(line)
    if name is not None:
        sections[name] = "\n".join(body).strip("\n")
    return sections


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results.

    ``report.txt`` holds one section per name: a re-run replaces its
    section in place (and folds any duplicate copies into one).
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "report.txt"
    sections = _report_sections(path.read_text() if path.exists() else "")
    sections[name] = text
    path.write_text("".join(
        f"\n===== {key} =====\n{body}\n" for key, body in sections.items()
    ))


@functools.lru_cache(maxsize=None)
def _benchmark_traces() -> Dict[str, PowerTrace]:
    """Every paper benchmark's power trace, from one call of circuit-only
    co-sim lanes (no controller, faults or shutoff: nothing from the PDN
    reaches the GPU, so each trace is the GPU's own)."""
    config = CosimConfig(
        cycles=TRACE_CYCLES, warmup_cycles=300, use_controller=False,
        seed=SEED,
    )
    results = run_cosim_batch(
        [CosimLane(name, config) for name in BENCHMARK_NAMES]
    )
    return {
        name: result.power_trace
        for name, result in zip(BENCHMARK_NAMES, results)
    }


def benchmark_trace(name: str) -> PowerTrace:
    """Power trace of a paper benchmark (Figs. 8 and 17, Table III)."""
    return _benchmark_traces()[name]


@functools.lru_cache(maxsize=None)
def cosim_run(
    name: str,
    use_controller: bool = True,
    cr_ivr_area_mm2: float = 105.8,
    cycles: int = COSIM_CYCLES,
    v_threshold: float = 0.9,
    k1: float = 2.0,
    diws_only: bool = False,
    weights: tuple = None,
    slew: float = 0.02,
    seed: int = SEED,
) -> CosimResult:
    """Cached co-simulation with the common knob set.

    ``weights`` is an optional (w1, w2, w3) actuation mix (Fig. 13);
    ``diws_only`` is shorthand for (1, 0, 0).
    """
    if weights is not None and diws_only:
        raise ValueError("pass either weights or diws_only, not both")
    actuation = None
    if diws_only:
        actuation = DIWS_ONLY
    elif weights is not None:
        actuation = WeightedActuation(*weights)
    config = CosimConfig(
        cycles=cycles,
        warmup_cycles=200,
        cr_ivr_area_mm2=cr_ivr_area_mm2,
        use_controller=use_controller,
        controller=ControllerConfig(
            v_threshold=v_threshold, k1=k1, slew_per_decision=slew
        ),
        seed=seed,
        **({"actuation": actuation} if actuation is not None else {}),
    )
    return run_cosim(name, config)


def penalty_between(base: CosimResult, controlled: CosimResult) -> float:
    """Performance penalty of ``controlled`` vs ``base``.

    Prefers the kernel-completion-time ratio (robust to tail slack);
    falls back to the throughput ratio when a long-kernel benchmark
    completes fewer than two launches inside the window.
    """
    try:
        ratio = controlled.cycles_per_kernel() / base.cycles_per_kernel()
    except ValueError:
        ratio = base.throughput() / max(controlled.throughput(), 1e-9)
    return max(0.0, ratio - 1.0)


@pytest.fixture(scope="session")
def all_benchmarks():
    return list(BENCHMARK_NAMES)
