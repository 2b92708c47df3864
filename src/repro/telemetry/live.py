"""The live observability plane: metrics registry, status snapshots,
worker heartbeats.

The PR-2 telemetry layer is post-hoc: nothing is visible until the run
finishes and ``write_run`` emits the manifest.  This module is the
*during-the-run* counterpart:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — minimal
  metric primitives collected in a :class:`MetricsRegistry`.  Updates
  are single Python bytecode-level mutations on plain attributes, so
  they are atomic under the GIL ("lock-free in spirit") and cheap
  enough for hot loops.
* :class:`StatusPublisher` — throttled, atomic export of a registry
  snapshot to ``status.json`` in a run directory.  Writes go through a
  temp file + ``os.replace`` so a concurrent ``repro top`` never reads
  a torn file.
* :func:`render_prometheus` — the same snapshot in Prometheus text
  exposition format (``repro metrics <dir>``).
* :class:`WorkerHeartbeat` / :class:`WorkerLiveConfig` — per-worker
  progress files under ``heartbeats/`` that sweep workers (which may
  live in separate processes) update independently; ``repro top``
  aggregates them.

Everything takes an injectable ``time_fn`` so rendering and throttling
are deterministic under test.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

STATUS_NAME = "status.json"
HEARTBEAT_DIR = "heartbeats"

# Default droop-depth style buckets (volts below nominal are small), kept
# generic: callers pass their own upper bounds per histogram.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket cumulative-style histogram.

    ``uppers`` are the finite bucket upper bounds; an implicit ``+Inf``
    bucket catches the rest.  ``counts[i]`` is the number of
    observations ``<= uppers[i]`` exclusive of lower buckets
    (non-cumulative storage; :meth:`to_dict` and the Prometheus
    renderer cumulate on the way out).
    """

    __slots__ = ("name", "uppers", "counts", "total", "sum")

    def __init__(
        self, name: str, uppers: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        ordered = [float(u) for u in uppers]
        if not ordered or ordered != sorted(ordered):
            raise ValueError(
                f"histogram buckets must be non-empty ascending, got {uppers}"
            )
        self.name = name
        self.uppers = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1 for the +Inf bucket
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.uppers)
        for i, upper in enumerate(self.uppers):
            if value <= upper:
                idx = i
                break
        self.counts[idx] += 1
        self.total += 1
        self.sum += value

    def to_dict(self) -> Dict[str, object]:
        cumulative = []
        running = 0
        for count in self.counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": list(self.uppers),
            "counts": cumulative,  # cumulative, parallel to buckets + [+Inf]
            "count": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create; asking for an
    existing name with a different kind (or different histogram buckets)
    raises ``ValueError`` — the same contract the fixed
    ``Telemetry.channel`` now enforces for capacities.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, uppers: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        found = self._get_or_create(
            name, Histogram, lambda: Histogram(name, uppers)
        )
        if found.uppers != [float(u) for u in uppers]:
            raise ValueError(
                f"histogram {name!r} exists with buckets {found.uppers}, "
                f"requested {list(uppers)}"
            )
        return found

    def _get_or_create(self, name: str, kind: type, make: Callable):
        found = self._metrics.get(name)
        if found is None:
            found = make()
            self._metrics[name] = found
            return found
        if not isinstance(found, kind):
            raise ValueError(
                f"metric {name!r} exists as {type(found).__name__}, "
                f"requested {kind.__name__}"
            )
        return found

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able point-in-time copy of every metric."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.to_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def _sanitize(name: str) -> str:
    """Prometheus metric names allow [a-zA-Z0-9_:] only."""
    return "".join(
        ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
    )


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} histogram")
        uppers = list(hist.get("buckets") or [])
        counts = list(hist.get("counts") or [])
        for upper, count in zip(uppers, counts):
            lines.append(f'{metric}_bucket{{le="{upper:g}"}} {count}')
        inf_count = counts[-1] if counts else 0
        lines.append(f'{metric}_bucket{{le="+Inf"}} {inf_count}')
        lines.append(f"{metric}_sum {hist.get('sum', 0.0)}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def atomic_write_json(path, payload) -> None:
    """Write JSON so a concurrent reader sees the old or the new file,
    never a torn one (temp file in the same directory + ``os.replace``)."""
    from repro.faults import chaos

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            event = chaos.fire("status_write")
            if event is not None:
                # A kill/torn write here strands only the temp file;
                # readers of the published path never see a torn JSON.
                chaos.sabotage_write(
                    event, handle, json.dumps(payload, indent=2) + "\n"
                )
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class StatusPublisher:
    """Throttled atomic export of a registry snapshot to ``status.json``.

    ``maybe_publish`` is cheap to call from a loop: it no-ops until
    ``interval_s`` has elapsed since the last write.  ``publish`` forces
    a write (call it once at the end of a run so the final state always
    lands).
    """

    def __init__(
        self,
        directory,
        registry: MetricsRegistry,
        interval_s: float = 1.0,
        time_fn: Callable[[], float] = time.time,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.registry = registry
        self.interval_s = float(interval_s)
        self.time_fn = time_fn
        self.extra = dict(extra or {})
        self.writes = 0
        self.write_errors = 0
        self._last_write: Optional[float] = None

    @property
    def path(self) -> Path:
        return self.directory / STATUS_NAME

    def maybe_publish(self) -> bool:
        now = self.time_fn()
        if (
            self._last_write is not None
            and now - self._last_write < self.interval_s
        ):
            return False
        self.publish(now=now)
        return True

    def publish(self, now: Optional[float] = None) -> None:
        now = self.time_fn() if now is None else now
        payload = {
            "updated_unix": now,
            **self.extra,
            **self.registry.snapshot(),
        }
        try:
            atomic_write_json(self.path, payload)
        except OSError:
            # Observability must not fail the run it reports on: a
            # failed status write (disk full, torn write) costs one
            # stale status.json, counted but swallowed.  Readers only
            # ever see whole files thanks to the atomic replace.
            self.write_errors += 1
            self._last_write = now
            return
        self._last_write = now
        self.writes += 1


@dataclass
class WorkerLiveConfig:
    """Everything a (possibly forked) sweep worker needs to heartbeat.

    Plain picklable data: it crosses the process boundary inside the
    sweep's ``_Task`` payloads.
    """

    directory: str
    worker_id: str
    interval_s: float = 1.0
    total_points: int = 0
    checkpoint_path: Optional[str] = None

    def open(self, time_fn: Callable[[], float] = time.time) -> "WorkerHeartbeat":
        return WorkerHeartbeat(self, time_fn=time_fn)


@dataclass
class WorkerHeartbeat:
    """One worker's progress file under ``<dir>/heartbeats/``.

    Sweep workers may be short-lived processes (the killable path forks
    one process per task), so the heartbeat loads any existing file for
    its worker id and accumulates into it — the file outlives the
    process.
    """

    config: WorkerLiveConfig
    time_fn: Callable[[], float] = time.time
    points_done: int = 0
    points_failed: int = 0
    points_retried: int = 0
    lane_cycles: int = 0
    busy_s: float = 0.0
    # Shared-LU shard count of the latest batched solver (0 = no batch
    # run yet), shown by `repro top`.
    solver_shards: int = 0
    current: List[str] = field(default_factory=list)
    _last_write: Optional[float] = None

    def __post_init__(self) -> None:
        existing = self._load()
        if existing:
            self.points_done = int(existing.get("points_done", 0))
            self.points_failed = int(existing.get("points_failed", 0))
            self.points_retried = int(existing.get("points_retried", 0))
            self.lane_cycles = int(existing.get("lane_cycles", 0))
            self.busy_s = float(existing.get("busy_s", 0.0))
            self.solver_shards = int(existing.get("solver_shards", 0))

    @property
    def path(self) -> Path:
        return (
            Path(self.config.directory)
            / HEARTBEAT_DIR
            / f"worker-{self.config.worker_id}.json"
        )

    def _load(self) -> Optional[Dict[str, object]]:
        try:
            with open(self.path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def start_points(self, labels: Sequence[str]) -> None:
        self.current = [str(label) for label in labels]
        self.write()

    def finish_points(
        self,
        done: int,
        failed: int,
        retried: int,
        lane_cycles: int,
        busy_s: float,
        solver_shards: Optional[int] = None,
    ) -> None:
        self.points_done += done
        self.points_failed += failed
        self.points_retried += retried
        self.lane_cycles += lane_cycles
        self.busy_s += busy_s
        if solver_shards is not None:
            self.solver_shards = int(solver_shards)
        self.current = []
        self.write()

    def snapshot(self) -> Dict[str, object]:
        rate = self.lane_cycles / self.busy_s if self.busy_s > 0 else 0.0
        done_or_failed = self.points_done + self.points_failed
        eta_s: Optional[float] = None
        if self.config.total_points and done_or_failed > 0 and self.busy_s > 0:
            remaining = max(0, self.config.total_points - done_or_failed)
            eta_s = remaining * (self.busy_s / done_or_failed)
        return {
            "worker": self.config.worker_id,
            "pid": os.getpid(),
            "updated_unix": self.time_fn(),
            "points_done": self.points_done,
            "points_failed": self.points_failed,
            "points_retried": self.points_retried,
            "lane_cycles": self.lane_cycles,
            "lane_cycles_per_s": rate,
            "busy_s": self.busy_s,
            "eta_s": eta_s,
            "last_checkpoint": self.config.checkpoint_path,
            "solver_shards": self.solver_shards,
            "current": list(self.current),
        }

    def write(self) -> None:
        atomic_write_json(self.path, self.snapshot())
        self._last_write = self.time_fn()

    def maybe_write(self) -> bool:
        now = self.time_fn()
        if (
            self._last_write is not None
            and now - self._last_write < self.config.interval_s
        ):
            return False
        self.write()
        return True


def read_status(directory) -> Optional[Dict[str, object]]:
    """Load ``status.json`` from a run directory, or ``None``."""
    path = Path(directory) / STATUS_NAME
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def read_heartbeats(directory) -> List[Dict[str, object]]:
    """Load every readable heartbeat file, sorted by worker id."""
    beat_dir = Path(directory) / HEARTBEAT_DIR
    if not beat_dir.is_dir():
        return []
    beats = []
    for path in sorted(beat_dir.glob("worker-*.json")):
        try:
            with open(path) as handle:
                beats.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    return beats


class LiveRun:
    """Bundle of the live plane for one run directory.

    Owns the registry, the throttled ``status.json`` publisher, and an
    ``events.jsonl`` sink that a :class:`~repro.telemetry.recorder.Telemetry`
    can stream into while the run is still going (``write_run`` rewrites
    the identical content at the end, so the two stay consistent).
    """

    def __init__(
        self,
        directory,
        interval_s: float = 1.0,
        time_fn: Callable[[], float] = time.time,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.registry = MetricsRegistry()
        self.publisher = StatusPublisher(
            self.directory,
            self.registry,
            interval_s=interval_s,
            time_fn=time_fn,
            extra=extra,
        )
        self._events_handle = None

    def event_sink(self, entry: Dict[str, object]) -> None:
        """Append one event line to ``events.jsonl`` immediately."""
        from repro.telemetry.manifest import EVENTS_NAME, to_jsonable

        if self._events_handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._events_handle = open(
                self.directory / EVENTS_NAME, "w", buffering=1
            )
        self._events_handle.write(json.dumps(to_jsonable(entry)))
        self._events_handle.write("\n")

    def attach(self, telemetry) -> None:
        """Stream ``telemetry``'s future events into ``events.jsonl``."""
        telemetry.event_sink = self.event_sink

    def worker_config(
        self,
        worker_id: str,
        total_points: int = 0,
        checkpoint_path=None,
    ) -> WorkerLiveConfig:
        return WorkerLiveConfig(
            directory=str(self.directory),
            worker_id=str(worker_id),
            interval_s=self.publisher.interval_s,
            total_points=int(total_points),
            checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
        )

    def close(self) -> None:
        self.publisher.publish()
        if self._events_handle is not None:
            self._events_handle.close()
            self._events_handle = None
