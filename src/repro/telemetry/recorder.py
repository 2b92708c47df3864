"""The run-telemetry recorder.

One :class:`Telemetry` instance accompanies one run (a co-simulation, a
sweep, a benchmark regeneration) and collects four kinds of
observability data, all cheap enough to leave on for million-cycle
runs:

* **phase timers** — accumulated wall-clock per named stage
  (``with tele.timer("transient_solve"): ...`` or explicit
  :meth:`Telemetry.add_time`), so a slow run localizes to GPU model /
  circuit solve / controller instead of one opaque steps/s number;
* **counters** — monotonic integers (solver steps, controller
  triggers, sweep failures);
* **metric channels** — bounded per-cycle sample series with automatic
  power-of-two decimation: a channel never holds more than its capacity
  regardless of run length, degrading resolution instead of memory;
* **events** — an append-only structured log, written out as JSONL.

The recorder itself never touches the filesystem; persistence (the
per-run manifest plus the JSONL event log) lives in
:mod:`repro.telemetry.manifest`.  A disabled recorder
(``Telemetry(enabled=False)``) accepts every call as a no-op so call
sites need no branching, while the hot loops that do branch (the
co-simulator) check :attr:`Telemetry.enabled` once up front.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np


class MetricChannel:
    """A bounded per-cycle sample series with stride decimation.

    Samples are kept every ``stride`` offers; whenever the retained set
    reaches ``capacity`` the channel drops every second sample and
    doubles the stride.  Memory is therefore O(capacity) for any run
    length, and the retained samples stay uniformly spaced from the
    first offer onward.
    """

    __slots__ = ("name", "capacity", "stride", "offered", "cycles", "values")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 2:
            raise ValueError(f"channel capacity must be >= 2, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self.stride = 1
        self.offered = 0
        self.cycles: List[int] = []
        self.values: List[float] = []

    def record(self, cycle: int, value: float) -> None:
        keep = self.offered % self.stride == 0
        self.offered += 1
        if not keep:
            return
        self.cycles.append(int(cycle))
        self.values.append(float(value))
        if len(self.values) >= self.capacity:
            # Halve the retained set; kept offers stay multiples of the
            # (doubled) stride because they started at offer 0.
            self.cycles = self.cycles[::2]
            self.values = self.values[::2]
            self.stride *= 2

    def record_series(self, first_cycle: int, values) -> None:
        """Offer ``values`` (a sequence or NumPy array) at consecutive
        cycles from ``first_cycle``.

        Leaves the channel exactly as one :meth:`record` per value
        would, in one step: the stride becomes the smallest power of
        two, at least the current one, that keeps fewer than
        ``capacity`` of all offers so far, and the channel keeps every
        stride-th offer of its old samples and of ``values``.
        """
        values = np.asarray(values, dtype=float)
        first_offer = self.offered
        self.offered += len(values)
        stride = self.stride
        while -(-self.offered // stride) >= self.capacity:
            stride *= 2
        step = stride // self.stride
        self.cycles = self.cycles[::step]
        self.values = self.values[::step]
        self.stride = stride
        first = -first_offer % stride
        self.cycles.extend(
            range(first_cycle + first, first_cycle + len(values), stride)
        )
        self.values.extend(values[first::stride].tolist())

    def __len__(self) -> int:
        return len(self.values)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "stride": self.stride,
            "offered": self.offered,
            "kept": len(self.values),
            "cycles": list(self.cycles),
            "values": list(self.values),
        }


class Telemetry:
    """Per-run recorder: timers, counters, channels and an event log."""

    def __init__(
        self,
        run_id: str = "run",
        channel_capacity: int = 4096,
        enabled: bool = True,
    ) -> None:
        self.run_id = run_id
        self.channel_capacity = int(channel_capacity)
        self.enabled = bool(enabled)
        self.timings: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.metrics: Dict[str, object] = {}
        self.channels: Dict[str, MetricChannel] = {}
        self.sections: Dict[str, object] = {}
        self.events: List[Dict[str, object]] = []
        # Optional live sink: when set (repro.telemetry.live.LiveRun
        # attaches one), every event is also streamed out immediately so
        # `repro top` can tail the log while the run is still going.
        self.event_sink = None
        self.created_unix = time.time()
        self._t0 = time.perf_counter()

    # -- timers --------------------------------------------------------
    @contextmanager
    def timer(self, stage: str):
        """Accumulate the wall-clock time of the enclosed block."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(stage, time.perf_counter() - start)

    def add_time(self, stage: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.timings[stage] = self.timings.get(stage, 0.0) + float(seconds)

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds since this recorder was created."""
        return time.perf_counter() - self._t0

    # -- counters and metrics ------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def set_metric(self, name: str, value) -> None:
        if not self.enabled:
            return
        self.metrics[name] = value

    def set_metrics(self, values: Dict[str, object]) -> None:
        for name, value in values.items():
            self.set_metric(name, value)

    def set_section(self, name: str, value) -> None:
        """Attach a named structured block to the run.

        Sections become top-level manifest keys (e.g. the noise
        observatory's ``noise`` report), so the name must not collide
        with the manifest's own schema keys — ``write_run`` enforces
        that at persistence time.
        """
        if not self.enabled:
            return
        self.sections[name] = value

    # -- channels ------------------------------------------------------
    def channel(
        self, name: str, capacity: Optional[int] = None
    ) -> MetricChannel:
        """Get or create the named channel (even when disabled, so call
        sites can hold a handle; a disabled recorder never records).

        Asking for an existing channel with a *different* explicit
        ``capacity`` raises ``ValueError`` — the original instance keeps
        recording at its own capacity, so silently returning it would
        hand the caller a channel with a contract it never asked for.
        """
        found = self.channels.get(name)
        if found is None:
            found = MetricChannel(name, capacity or self.channel_capacity)
            self.channels[name] = found
        elif capacity is not None and found.capacity != int(capacity):
            raise ValueError(
                f"channel {name!r} exists with capacity {found.capacity}, "
                f"requested {capacity}"
            )
        return found

    def record(self, name: str, cycle: int, value: float) -> None:
        if not self.enabled:
            return
        self.channel(name).record(cycle, value)

    # -- events --------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Append one structured event (written out as a JSONL line)."""
        if not self.enabled:
            return
        entry: Dict[str, object] = {
            "t_s": round(time.perf_counter() - self._t0, 6),
            "kind": kind,
        }
        entry.update(fields)
        self.events.append(entry)
        if self.event_sink is not None:
            self.event_sink(entry)
