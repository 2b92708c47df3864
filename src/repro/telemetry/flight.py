"""The droop flight recorder.

The telemetry channels of PR 2 are stride-decimated: for million-cycle
runs the exact cycles around a guardband violation are usually thinned
away before anyone looks.  This module keeps the *full-resolution*
per-cycle state of a run — per-SM voltages, the controller decision in
force (the commanded actuation), the active fault kinds, and the
controller's safe-state flag — and dumps a bounded window around every
interesting edge:

* a **guardband-violation onset** — the minimum SM voltage crossing
  from at-or-above ``guardband_v`` to below it;
* a **safe-state edge** — the controller entering or leaving its
  safe state (the observable boundary of the fault machinery's
  ``safe_state`` verdict).

Cost discipline (the live plane must stay honest about "always-on"):
observing only appends.  The co-sim loop already keeps the voltages,
so it hands each recorder its warmup window and its recorded window
once each through :meth:`FlightRecorder.observe_runs`, as views with
the metadata as runs of unchanged rows; the recorder keeps those views.
Per-cycle :meth:`FlightRecorder.observe` keeps a copy of every row
until :meth:`FlightRecorder.finalize`; its only callers are the serial
co-sim oracle and the tests.  :meth:`FlightRecorder.finalize` then
finds every edge and builds every dump in one vectorized pass over the
whole window.  ``benchmarks/test_perf_observability.py`` gates the
recorder at <= 2% of the co-sim loop.

Windows that attract further triggers while still open are *coalesced*
(the trigger list grows, the window extends) up to a hard length cap,
so every onset is guaranteed to land inside some dump's window — the
acceptance bar is 100% onset coverage for the canned fault scenarios.

Dumps serialize to ``flight/NNN.json`` via :meth:`FlightRecorder.write`
and render through ``repro observe``.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

FLIGHT_DIR = "flight"

ONSET = "guardband_onset"
SAFE_ENTER = "safe_state_enter"
SAFE_EXIT = "safe_state_exit"
NUMERICAL_DIVERGENCE = "numerical_divergence"


class FlightDump:
    """One materialized window of full-resolution state."""

    __slots__ = (
        "index", "start_cycle", "end_cycle", "triggers",
        "voltages", "meta", "cycle_offset",
    )

    def __init__(self, index: int, start_cycle: int, end_cycle: int,
                 cycle_offset: int, triggers: List[Dict[str, object]],
                 voltages: np.ndarray,
                 meta: List[Tuple[object, object, bool]]) -> None:
        self.index = index
        self.start_cycle = start_cycle  # observed-cycle numbering
        self.end_cycle = end_cycle  # exclusive
        self.cycle_offset = cycle_offset  # observed -> recorded cycles
        self.triggers = triggers
        self.voltages = voltages  # (cycles, num_sms), owned
        self.meta = meta  # (decision, fault kinds, safe) per cycle

    def num_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> Dict[str, object]:
        """JSON-able full-resolution window (recorded-cycle numbering)."""
        off = self.cycle_offset
        # Consecutive cycles usually share one immutable decision object:
        # dedup by identity into an actuation table + per-cycle ids.
        actuations: List[Dict[str, object]] = []
        actuation_ids: List[Optional[int]] = []
        seen: Dict[int, int] = {}
        for decision, _, _ in self.meta:
            if decision is None:
                actuation_ids.append(None)
                continue
            key = id(decision)
            idx = seen.get(key)
            if idx is None:
                idx = len(actuations)
                seen[key] = idx
                actuations.append({
                    "issue_widths": np.asarray(
                        decision.issue_widths
                    ).tolist(),
                    "fake_rates": np.asarray(decision.fake_rates).tolist(),
                    "dcc_powers_w": np.asarray(
                        decision.dcc_powers_w
                    ).tolist(),
                })
            actuation_ids.append(idx)
        return {
            "index": self.index,
            "start_cycle": self.start_cycle + off,
            "end_cycle": self.end_cycle + off,
            "triggers": [
                {**t, "cycle": int(t["cycle"]) + off} for t in self.triggers
            ],
            "cycles": list(range(self.start_cycle + off, self.end_cycle + off)),
            "voltages": self.voltages.tolist(),
            "min_voltage_v": self.voltages.min(axis=1).tolist(),
            "safe_state": [bool(s) for _, _, s in self.meta],
            "active_faults": [
                list(kinds) if kinds else [] for _, kinds, _ in self.meta
            ],
            "actuation_id": actuation_ids,
            "actuations": actuations,
        }


def _row_mins(block: np.ndarray) -> np.ndarray:
    """``block.min(axis=1)`` (NaN where a row holds one), a column at a
    time: on a few SMs and many cycles, ~4x faster than the row-wise
    reduction."""
    mins = block[:, 0].copy()
    for column in block.T[1:]:
        np.minimum(mins, column, out=mins)
    return mins


class FlightRecorder:
    """Keeps a run's full-resolution window; dumps its edges at the end.

    Hand the recorder every simulated cycle (warmup included), per
    cycle through :meth:`observe` or as blocks through
    :meth:`observe_runs`, then call :meth:`finalize` once.
    ``cycle_offset`` maps observed cycles to the recorded numbering
    (pass ``-warmup_cycles`` so dump cycle labels match the
    fault/guardband convention).  Triggers fire only at recorded cycle
    >= 0 — warmup settling transients produce context, not dumps.
    """

    def __init__(
        self,
        num_sms: int,
        guardband_v: float,
        pre_cycles: int = 64,
        post_cycles: int = 64,
        max_dumps: int = 32,
        max_window_cycles: Optional[int] = None,
        cycle_offset: int = 0,
    ) -> None:
        if pre_cycles < 0 or post_cycles < 0:
            raise ValueError("pre/post window cycles cannot be negative")
        if max_dumps < 0:
            raise ValueError("max_dumps cannot be negative")
        if max_window_cycles is None:
            max_window_cycles = pre_cycles + post_cycles + 256
        if max_window_cycles < 1:
            raise ValueError("max_window_cycles must be >= 1")
        self.num_sms = int(num_sms)
        self.guardband_v = float(guardband_v)
        self.pre_cycles = int(pre_cycles)
        self.post_cycles = int(post_cycles)
        self.max_dumps = int(max_dumps)
        self.max_window_cycles = int(max_window_cycles)
        self.cycle_offset = int(cycle_offset)
        # The observed window until finalize(): voltage blocks, and the
        # (count, (decision, fault kinds, safe)) runs that cover them.
        # None once finalized.
        self._blocks: Optional[List[np.ndarray]] = []
        self._runs: Optional[List[Tuple[int, Tuple[object, ...]]]] = []
        self._forced: Optional[List[Tuple[int, str, float]]] = []
        self._n = 0  # observed cycles
        self.dumps: List[FlightDump] = []
        self.onsets = 0
        self.safe_edges = 0
        self.dumps_suppressed = 0

    def observe(self, voltages, decision=None, fault_kinds=None,
                safe: bool = False) -> None:
        """Record one cycle of state: a copy of the row, kept until
        :meth:`finalize`."""
        row = np.empty((1, self.num_sms))
        row[0] = voltages
        self.observe_runs(row, [(1, (decision, fault_kinds, safe))])

    def observe_runs(self, voltages: np.ndarray,
                     runs: Sequence[Tuple[int, Tuple[object, object, bool]]]
                     ) -> None:
        """Record ``len(voltages)`` consecutive cycles in one call.

        ``voltages`` is ``(cycles, num_sms)`` and is kept as given (a
        view stays a view) until :meth:`finalize`, so its rows must not
        change before then.  ``runs`` lists ``(count, (decision,
        fault_kinds, safe))`` in cycle order, the counts summing to
        ``len(voltages)``: a loop whose metadata changes only now and
        then hands over a block with a handful of runs instead of a row
        per cycle.
        """
        if self._blocks is None:
            raise RuntimeError("the recorder was finalized")
        voltages = np.asarray(voltages, dtype=float)
        if voltages.ndim != 2 or voltages.shape[1] != self.num_sms:
            raise ValueError(
                f"voltages must be (cycles, {self.num_sms}), "
                f"got {voltages.shape}"
            )
        counts = [count for count, _ in runs]
        if min(counts, default=0) < 0 or sum(counts) != len(voltages):
            raise ValueError(
                f"run counts {counts} do not cover {len(voltages)} cycles"
            )
        if len(voltages):
            self._blocks.append(voltages)
            self._runs.extend(runs)
            self._n += len(voltages)

    def force_dump(self, kind: str,
                   min_voltage_v: float = float("nan")) -> None:
        """Trigger a window ending at the last observed cycle.

        For terminal events that are not voltage or safe-state edges —
        e.g. a solver :data:`NUMERICAL_DIVERGENCE` verdict — so the
        full-resolution history behind the failure is captured even
        though no guardband edge fired.  The trigger follows the natural
        triggers of its cycle and joins a window that stays open past
        it; otherwise it opens a new dump (subject to the usual
        ``max_dumps`` suppression accounting).
        """
        if self._blocks is None:
            raise RuntimeError("the recorder was finalized")
        if self._n:
            self._forced.append((self._n - 1, kind, float(min_voltage_v)))

    def finalize(self) -> None:
        """Find every trigger in the observed window and build its dumps.

        Ends the recording: afterwards the recorder holds only its
        dumps, each owning a copy of its window.  A window still open at
        the end is truncated there.
        """
        blocks, runs, forced = self._blocks, self._runs, self._forced
        if blocks is None:
            return
        self._blocks = self._runs = self._forced = None
        if not blocks:
            return
        mins = np.concatenate([_row_mins(block) for block in blocks])
        run_of = np.repeat(np.arange(len(runs)), [c for c, _ in runs])
        safe = np.array([bool(row[2]) for _, row in runs])[run_of]
        below = mins < self.guardband_v  # a NaN row is not below
        # Edges against the previous cycle (none before the first; a
        # boolean diff is "differs"), at recorded cycles >= 0 only.
        first = max(0, -self.cycle_offset)
        onsets = np.flatnonzero(
            (below & np.diff(below, prepend=False))[first:]
        ) + first
        flips = np.flatnonzero(np.diff(safe, prepend=False)[first:]) + first
        self.onsets = len(onsets)
        self.safe_edges = len(flips)
        # An onset comes before a safe edge of its cycle, a forced
        # trigger after both.
        triggers = sorted(
            [(c, 0, ONSET, float(mins[c])) for c in onsets.tolist()]
            + [
                (c, 1, SAFE_ENTER if safe[c] else SAFE_EXIT, float(mins[c]))
                for c in flips.tolist()
            ]
            + [(c, 2, kind, v) for c, kind, v in forced],
            key=lambda t: t[:2],
        )
        post, cap = self.post_cycles, self.max_window_cycles
        windows: List[Tuple[int, List[Dict[str, object]]]] = []
        for cycle, rank, kind, min_v in triggers:
            record = {"cycle": cycle, "kind": kind, "min_voltage_v": min_v}
            if windows:
                start, joined = windows[-1]
                close = min(joined[-1]["cycle"] + post + 1, start + cap)
                # A trigger joins the last window while it is open (a
                # forced one: open past its cycle) and the grown window
                # stays within the cap.
                if cycle + (rank == 2) < close and cycle + post < start + cap:
                    joined.append(record)
                    continue
            if len(windows) >= self.max_dumps:
                self.dumps_suppressed += 1
                continue
            windows.append((max(0, cycle - self.pre_cycles), [record]))
        offsets = np.cumsum([0] + [len(block) for block in blocks]).tolist()
        for index, (start, joined) in enumerate(windows):
            end = min(joined[-1]["cycle"] + post + 1, start + cap, self._n)
            lo = bisect_right(offsets, start) - 1
            hi = bisect_left(offsets, end)
            self.dumps.append(FlightDump(
                index, start, end, self.cycle_offset, joined,
                np.concatenate([
                    block[max(start - o, 0):end - o]
                    for block, o in zip(blocks[lo:hi], offsets[lo:hi])
                ]),
                [runs[j][1] for j in run_of[start:end].tolist()],
            ))

    # -- reporting -----------------------------------------------------
    @property
    def cycles_observed(self) -> int:
        return self._n

    def summary(self) -> Dict[str, object]:
        return {
            "guardband_v": self.guardband_v,
            "cycles_observed": self._n,
            "onsets": self.onsets,
            "safe_state_edges": self.safe_edges,
            "dumps": len(self.dumps),
            "dumps_suppressed": self.dumps_suppressed,
            "pre_cycles": self.pre_cycles,
            "post_cycles": self.post_cycles,
            "windows": [
                {
                    "file": f"{d.index:03d}.json",
                    "start_cycle": d.start_cycle + self.cycle_offset,
                    "end_cycle": d.end_cycle + self.cycle_offset,
                    "num_triggers": len(d.triggers),
                    "kinds": sorted({t["kind"] for t in d.triggers}),
                }
                for d in self.dumps
            ],
        }

    def write(self, directory) -> List[Path]:
        """Write every dump as ``<directory>/NNN.json``; returns paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for dump in self.dumps:
            path = directory / f"{dump.index:03d}.json"
            with open(path, "w") as handle:
                json.dump(dump.to_dict(), handle)
                handle.write("\n")
            paths.append(path)
        return paths


def read_flight_dir(directory) -> List[Dict[str, object]]:
    """Load every ``NNN.json`` under a run's ``flight/`` directory."""
    directory = Path(directory)
    if directory.name != FLIGHT_DIR:
        directory = directory / FLIGHT_DIR
    if not directory.is_dir():
        return []
    dumps = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path) as handle:
                dumps.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    return dumps


def render_flight(dumps: Sequence[Dict[str, object]],
                  guardband_v: Optional[float] = None) -> str:
    """Human-readable flight-recorder summary (``repro observe``)."""
    if not dumps:
        return "flight recorder: no dumps (no guardband or safe-state edges)"
    lines = [f"flight recorder: {len(dumps)} dump(s)"]
    for dump in dumps:
        mins = dump.get("min_voltage_v") or []
        floor = min(mins) if mins else float("nan")
        kinds: Dict[str, int] = {}
        for trig in dump.get("triggers") or []:
            kinds[str(trig.get("kind"))] = kinds.get(str(trig.get("kind")), 0) + 1
        kind_bits = ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
        lines.append(
            f"  [{dump.get('index', '?'):>3}] cycles "
            f"{dump.get('start_cycle', '?')}..{dump.get('end_cycle', '?')} "
            f"({len(mins)} cycles, floor {floor:.4f} V): {kind_bits}"
        )
    if guardband_v is not None:
        lines.append(f"  guardband {guardband_v:.3f} V")
    return "\n".join(lines)
