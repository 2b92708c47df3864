"""Manifest-to-manifest regression comparison (``repro compare``).

Two telemetry manifests of the same scenario should agree on their
physics: headline metrics (min voltage, PDE, IPC) and the observatory's
noise KPIs (droop events, band RMS, ledger closure).  This module diffs
them under explicit per-metric thresholds and says which differences
are regressions — the exit-code gate CI runs against the committed
baselines under ``benchmarks/baselines/``.

A threshold states which direction is *better* and how much drift is
tolerated (``max(abs_tol, rel_tol * |base|)``).  Metrics without a
threshold are reported but never gate; a gated metric that disappears
from the candidate *is* a regression (losing observability silently is
exactly what the gate exists to catch).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional

#: Directions a threshold can prefer.
HIGHER, LOWER, STABLE = "higher", "lower", "stable"


@dataclass(frozen=True)
class Threshold:
    """Gate for one metric: preferred direction and tolerated drift."""

    better: str = HIGHER
    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.better not in (HIGHER, LOWER, STABLE):
            raise ValueError(
                f"better must be one of {HIGHER}/{LOWER}/{STABLE}, "
                f"got {self.better!r}"
            )
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances cannot be negative")

    def tolerance(self, base: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(base))


#: Default gates.  Headline metrics come from ``manifest["metrics"]``;
#: ``noise.*`` keys from the observatory's ``noise["summary"]``.
#: Absolute tolerances absorb cross-platform last-ulp solver drift.
DEFAULT_THRESHOLDS: Dict[str, Threshold] = {
    "min_voltage_v": Threshold(HIGHER, abs_tol=0.005),
    "max_voltage_v": Threshold(LOWER, abs_tol=0.010),
    "pde": Threshold(HIGHER, abs_tol=0.002),
    "throughput_ipc": Threshold(HIGHER, rel_tol=0.02),
    "mean_power_w": Threshold(STABLE, rel_tol=0.05),
    "mean_dcc_power_w": Threshold(STABLE, abs_tol=0.05, rel_tol=0.25),
    "noise.pde": Threshold(HIGHER, abs_tol=0.002),
    "noise.droop_event_count": Threshold(LOWER, abs_tol=0.0),
    "noise.droop_cycles": Threshold(LOWER, abs_tol=2.0),
    "noise.worst_droop_depth_v": Threshold(LOWER, abs_tol=0.005),
    "noise.ledger_closure_rel_error": Threshold(LOWER, abs_tol=0.01),
    "noise.band_control_vrms": Threshold(LOWER, abs_tol=1e-4, rel_tol=0.25),
    "noise.band_mid_vrms": Threshold(LOWER, abs_tol=1e-4, rel_tol=0.25),
    "noise.band_resonance_vrms": Threshold(LOWER, abs_tol=1e-4, rel_tol=0.25),
    "noise.residual_imbalance_w_rms": Threshold(
        LOWER, abs_tol=0.05, rel_tol=0.25
    ),
    "noise.max_layer_excess_w": Threshold(LOWER, abs_tol=0.1, rel_tol=0.25),
    # Fault-scenario gates (manifest ``faults["summary"]``): the verdict
    # code orders survived(0) < safe_state(1) < violated(2), so LOWER
    # with zero tolerance means "a scenario that used to survive must
    # keep surviving".
    "faults.verdict_code": Threshold(LOWER, abs_tol=0.0),
    "faults.min_voltage_v": Threshold(HIGHER, abs_tol=0.005),
    "faults.tail_min_voltage_v": Threshold(HIGHER, abs_tol=0.005),
    "faults.guardband_violation_cycles": Threshold(LOWER, abs_tol=2.0),
    "faults.watchdog_engagements": Threshold(LOWER, abs_tol=0.0),
    "faults.nan_samples_seen": Threshold(STABLE, rel_tol=0.10),
    # Stage-timing gate (manifest ``timings_s``, prefixed ``timing.``):
    # the GPU model must stay off the critical path now that the
    # vectorized engine carries it.  The absolute floor absorbs shared
    # CI-core noise; a slide back toward the per-object reference
    # (which is ~20x this budget on the baseline scenario) still trips.
    "timing.gpu_model": Threshold(LOWER, abs_tol=0.15, rel_tol=1.0),
    # Solver-health gates: zero tolerance.  A baseline scenario that
    # completed cleanly must keep doing so — any structured divergence
    # verdict or guard recovery (refactorize / dt-halving redo) on the
    # regression workload is a numerical regression, not noise.
    "diverged": Threshold(LOWER, abs_tol=0.0),
    "guard_recoveries": Threshold(LOWER, abs_tol=0.0),
    # Recorded cycles with a physically impossible SM voltage (below 0 V
    # or above twice nominal): a stack driven into gross imbalance.
    "out_of_range_cycles": Threshold(LOWER, abs_tol=0.0),
}

# Row outcomes.
REGRESSED = "REGRESSED"
MISSING = "MISSING"
IMPROVED = "improved"
OK = "ok"
NEW = "new"
UNTRACKED = "untracked"


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric and its verdict."""

    name: str
    base: Optional[float]
    candidate: Optional[float]
    tolerance: Optional[float]  # None for untracked metrics
    status: str

    @property
    def delta(self) -> Optional[float]:
        if self.base is None or self.candidate is None:
            return None
        return self.candidate - self.base

    @property
    def is_regression(self) -> bool:
        return self.status in (REGRESSED, MISSING)


@dataclass(frozen=True)
class CompareReport:
    """All compared metrics of one base/candidate manifest pair."""

    base_id: str
    candidate_id: str
    rows: List[MetricDelta]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [row for row in self.rows if row.is_regression]

    @property
    def ok(self) -> bool:
        return not self.regressions


def metric_values(manifest: Mapping[str, object]) -> Dict[str, float]:
    """Flatten a manifest's comparable numbers.

    Headline metrics keep their names; the observatory's flat summary
    KPIs are prefixed ``noise.``, the fault report's ``faults.``, and
    the per-stage wall-clock split (``timings_s``) ``timing.``.
    Non-numeric metrics (benchmark name, ...) are skipped.
    """
    out: Dict[str, float] = {}
    for name, value in dict(manifest.get("metrics") or {}).items():
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            out[name] = float(value)
    for name, value in dict(manifest.get("timings_s") or {}).items():
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            out[f"timing.{name}"] = float(value)
    for section, prefix in (("noise", "noise."), ("faults", "faults.")):
        block = manifest.get(section) or {}
        summary = (
            dict(block.get("summary") or {})
            if isinstance(block, Mapping)
            else {}
        )
        for name, value in summary.items():
            if isinstance(value, numbers.Real) and not isinstance(value, bool):
                out[f"{prefix}{name}"] = float(value)
    return out


def _judge(
    name: str,
    base: Optional[float],
    candidate: Optional[float],
    threshold: Optional[Threshold],
) -> MetricDelta:
    if base is None:
        return MetricDelta(name, base, candidate, None, NEW)
    if threshold is None:
        return MetricDelta(name, base, candidate, None, UNTRACKED)
    tol = threshold.tolerance(base)
    if candidate is None:
        return MetricDelta(name, base, candidate, tol, MISSING)
    # A NaN (or infinite) gated value makes every `<`/`>` comparison
    # below False, which used to fall through to ``ok`` — a run whose
    # physics produced NaN would sail through the CI gate.  Losing a
    # finite value is exactly what the gate exists to catch.
    if not (math.isfinite(base) and math.isfinite(candidate)):
        return MetricDelta(name, base, candidate, tol, REGRESSED)
    delta = candidate - base
    if threshold.better == HIGHER:
        worse, better = delta < -tol, delta > tol
    elif threshold.better == LOWER:
        worse, better = delta > tol, delta < -tol
    else:  # STABLE: drift in either direction beyond tolerance is suspect
        worse, better = abs(delta) > tol, False
    status = REGRESSED if worse else IMPROVED if better else OK
    return MetricDelta(name, base, candidate, tol, status)


def compare_manifests(
    base: Mapping[str, object],
    candidate: Mapping[str, object],
    thresholds: Optional[Mapping[str, Threshold]] = None,
) -> CompareReport:
    """Diff two manifests' metrics under per-metric thresholds."""
    gates = dict(DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    base_values = metric_values(base)
    cand_values = metric_values(candidate)
    names = sorted(set(base_values) | set(cand_values))
    rows = [
        _judge(name, base_values.get(name), cand_values.get(name),
               gates.get(name))
        for name in names
    ]
    return CompareReport(
        base_id=str(base.get("run_id", "?")),
        candidate_id=str(candidate.get("run_id", "?")),
        rows=rows,
    )


def load_thresholds(path) -> Dict[str, Threshold]:
    """Merge a JSON threshold file over :data:`DEFAULT_THRESHOLDS`.

    The file maps metric name to ``{"better": ..., "abs_tol": ...,
    "rel_tol": ...}`` (all fields optional; omitted fields keep the
    default gate's values, or :class:`Threshold` defaults for metrics
    without one).  Mapping a name to ``null`` removes its gate; keys
    starting with ``_`` are comments and ignored.
    """
    with open(Path(path)) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"thresholds file {path} must hold a JSON object")
    merged = dict(DEFAULT_THRESHOLDS)
    for name, spec in raw.items():
        if name.startswith("_"):
            continue
        if spec is None:
            merged.pop(name, None)
            continue
        if not isinstance(spec, dict):
            raise ValueError(
                f"threshold for {name!r} must be an object or null"
            )
        unknown = set(spec) - {"better", "abs_tol", "rel_tol"}
        if unknown:
            raise ValueError(
                f"threshold for {name!r} has unknown keys: {sorted(unknown)}"
            )
        merged[name] = replace(
            merged.get(name, Threshold()),
            **{k: v for k, v in spec.items()},
        )
    return merged


def render_compare(report: CompareReport) -> str:
    """Human-readable comparison table plus the verdict line."""
    from repro.analysis.report import format_table

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    rows = [
        [row.name, fmt(row.base), fmt(row.candidate), fmt(row.delta),
         fmt(row.tolerance), row.status]
        for row in report.rows
    ]
    table = format_table(
        ["metric", "base", "candidate", "delta", "tol", "status"],
        rows,
        title=f"Compare: {report.base_id} (base) vs "
        f"{report.candidate_id} (candidate)",
    )
    regressions = report.regressions
    verdict = (
        f"{len(regressions)} regression(s): "
        + ", ".join(r.name for r in regressions)
        if regressions
        else "0 regressions"
    )
    return f"{table}\n{verdict}"
