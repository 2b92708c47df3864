"""``repro top`` — a live terminal dashboard for a run directory.

Renders, from the files the live plane maintains (``status.json``,
``heartbeats/worker-*.json``, ``events.jsonl``, ``flight/``), a
point-in-time view of a sweep or exploration *while it is running*:
aggregate progress, one row per worker (with stale-worker detection),
the most recent structured events, and the flight-recorder dump count.

Everything is pure rendering over an injected ``now_unix`` — the
string for a given directory state and clock is deterministic, which
is what makes the dashboard testable (and what ``--once`` prints).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.report import format_seconds, format_table
from repro.telemetry.flight import FLIGHT_DIR
from repro.telemetry.live import read_heartbeats, read_status
from repro.telemetry.manifest import resolve_events_path, tail_events

DEFAULT_STALE_AFTER_S = 15.0
DEFAULT_EVENTS_TAIL = 6


def _age(now_unix: float, then: Optional[float]) -> Optional[float]:
    if then is None:
        return None
    return max(0.0, now_unix - float(then))


def _fmt_age(age: Optional[float]) -> str:
    return "?" if age is None else f"{age:.0f}s ago"


def _fmt_eta(eta: Optional[float]) -> str:
    return "-" if eta is None else format_seconds(float(eta))


def _progress_bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return f"{done} done"
    filled = min(width, round(width * done / total))
    bar = "#" * filled + "-" * (width - filled)
    return f"[{bar}] {done}/{total} ({done / total:.0%})"


def _status_lines(
    status: Optional[Dict[str, object]], now_unix: float
) -> List[str]:
    if status is None:
        return ["no status.json yet (run not started, or live plane off)"]
    counters = dict(status.get("counters") or {})
    gauges = dict(status.get("gauges") or {})
    command = str(status.get("command") or "run")
    age = _age(now_unix, status.get("updated_unix"))
    lines = [f"{command} | status updated {_fmt_age(age)}"]

    done = int(counters.get("sweep_points_done", 0))
    failed = int(counters.get("sweep_points_failed", 0))
    retried = int(counters.get("sweep_points_retried", 0))
    total = int(gauges.get("sweep_points_total", 0))
    if total or done or failed:
        bits = [_progress_bar(done + failed, total)]
        if failed:
            bits.append(f"{failed} failed")
        if retried:
            bits.append(f"{retried} retried")
        eta = gauges.get("sweep_eta_s")
        if eta is not None:
            bits.append(f"eta {_fmt_eta(eta)}")
        wave = int(gauges.get("sweep_wave", 0))
        if wave > 1:
            bits.append(f"retry wave {wave}")
        lines.append("points " + ", ".join(bits))

    if "explore_round" in gauges:
        lines.append(
            f"explore round {int(gauges.get('explore_round', 0))}"
            f"/{int(gauges.get('explore_rounds_total', 0))}, "
            f"{int(gauges.get('explore_candidates', 0))} candidate(s), "
            f"cache hit rate "
            f"{float(gauges.get('explore_cache_hit_rate', 0.0)):.0%}, "
            f"frontier {int(gauges.get('explore_frontier_size', 0))}"
        )

    checkpoint = status.get("last_checkpoint")
    if checkpoint:
        lines.append(f"checkpoint: {checkpoint}")
    return lines


def _worker_table(
    beats: List[Dict[str, object]], now_unix: float, stale_after_s: float
) -> Optional[str]:
    if not beats:
        return None
    rows = []
    for beat in beats:
        age = _age(now_unix, beat.get("updated_unix"))
        stale = age is not None and age > stale_after_s
        current = list(beat.get("current") or [])
        doing = current[0] if current else "idle"
        if len(current) > 1:
            doing += f" (+{len(current) - 1} more)"
        rate = float(beat.get("lane_cycles_per_s") or 0.0)
        # The batched solver's shared-LU shard count; "-" before a
        # worker's first batch run.
        shards = int(beat.get("solver_shards") or 0)
        rows.append([
            str(beat.get("worker", "?")) + (" [STALE]" if stale else ""),
            int(beat.get("points_done", 0)),
            int(beat.get("points_failed", 0)),
            int(beat.get("points_retried", 0)),
            f"{rate:,.0f}",
            str(shards) if shards else "-",
            _fmt_eta(beat.get("eta_s")),
            _fmt_age(age),
            doing,
        ])
    return format_table(
        ["worker", "done", "fail", "retry", "cyc/s", "shards", "eta", "beat",
         "doing"],
        rows,
        title=f"Workers ({len(beats)})",
    )


def _events_lines(directory: Path, tail: int) -> List[str]:
    events_path = resolve_events_path(directory)
    events, _offset = tail_events(events_path)
    if not events:
        return []
    lines = [f"Recent events (last {min(tail, len(events))} of {len(events)}):"]
    for event in events[-tail:]:
        event = dict(event)
        t = event.pop("t_s", None)
        kind = event.pop("kind", "?")
        detail = ", ".join(f"{k}={v}" for k, v in event.items())
        stamp = f"{float(t):8.2f}s" if t is not None else "       ?"
        lines.append(f"  {stamp}  {kind}  {detail}")
    return lines


def _flight_line(directory: Path) -> Optional[str]:
    flight_dir = directory / FLIGHT_DIR
    if not flight_dir.is_dir():
        return None
    dumps = sorted(flight_dir.glob("*.json"))
    if not dumps:
        return "flight recorder: armed, no dumps"
    return (
        f"flight recorder: {len(dumps)} dump(s), latest {dumps[-1].name}"
    )


def render_top(
    directory,
    now_unix: float,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    events_tail: int = DEFAULT_EVENTS_TAIL,
) -> str:
    """One deterministic frame of the live dashboard for ``directory``.

    A worker whose heartbeat is older than ``stale_after_s`` is marked
    ``[STALE]`` — on a healthy run heartbeats refresh at least per
    task, so a stale one usually means a hung or killed worker.
    """
    directory = Path(directory)
    sections: List[str] = [f"== {directory} =="]
    sections.extend(_status_lines(read_status(directory), now_unix))

    table = _worker_table(
        read_heartbeats(directory), now_unix, stale_after_s
    )
    if table is not None:
        sections.append("")
        sections.append(table)

    flight = _flight_line(directory)
    if flight is not None:
        sections.append("")
        sections.append(flight)

    events = _events_lines(directory, events_tail)
    if events:
        sections.append("")
        sections.extend(events)
    return "\n".join(sections)
