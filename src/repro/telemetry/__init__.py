"""repro.telemetry — run observability for co-simulations and sweeps.

The long-sweep workflows this library exists for (PDE maps, penalty
studies, design-space exploration) are only trustworthy when every run
says where its time went, what the controller actually did, and why a
point failed.  This package provides that layer:

* :class:`~repro.telemetry.recorder.Telemetry` — phase timers,
  monotonic counters, bounded/decimated per-cycle metric channels and a
  structured event log;
* :func:`~repro.telemetry.manifest.write_run` /
  :func:`~repro.telemetry.manifest.load_manifest` — the per-run
  ``manifest.json`` (config hash, seed, git revision, timings, headline
  metrics) plus the ``events.jsonl`` log;
* :func:`~repro.telemetry.manifest.render_manifest` — the human-facing
  summary behind ``repro trace``;
* :mod:`~repro.telemetry.live` — the *during-the-run* plane: a metrics
  registry (counters/gauges/histograms) snapshotted atomically to
  ``status.json``, per-worker heartbeat files, and the Prometheus text
  rendering behind ``repro metrics`` / the dashboard behind
  ``repro top``;
* :class:`~repro.telemetry.flight.FlightRecorder` — the droop flight
  recorder: a run's full-resolution per-cycle state, dumped around
  every guardband-violation onset and safe-state edge when it ends.

See ``docs/telemetry.md`` and ``docs/observability.md`` for the
schemas and usage patterns.
"""

from repro.telemetry.flight import (
    FlightRecorder,
    read_flight_dir,
    render_flight,
)
from repro.telemetry.live import (
    Counter,
    Gauge,
    Histogram,
    LiveRun,
    MetricsRegistry,
    StatusPublisher,
    WorkerHeartbeat,
    WorkerLiveConfig,
    atomic_write_json,
    read_heartbeats,
    read_status,
    render_prometheus,
)
from repro.telemetry.manifest import (
    EVENTS_NAME,
    MANIFEST_NAME,
    config_hash,
    git_revision,
    iter_events,
    load_manifest,
    read_events,
    render_manifest,
    resolve_events_path,
    tail_events,
    to_jsonable,
    write_run,
)
from repro.telemetry.recorder import MetricChannel, Telemetry

__all__ = [
    "EVENTS_NAME",
    "MANIFEST_NAME",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LiveRun",
    "MetricChannel",
    "MetricsRegistry",
    "StatusPublisher",
    "Telemetry",
    "WorkerHeartbeat",
    "WorkerLiveConfig",
    "atomic_write_json",
    "config_hash",
    "git_revision",
    "iter_events",
    "load_manifest",
    "read_events",
    "read_flight_dir",
    "read_heartbeats",
    "read_status",
    "render_flight",
    "render_manifest",
    "render_prometheus",
    "resolve_events_path",
    "tail_events",
    "to_jsonable",
    "write_run",
]
