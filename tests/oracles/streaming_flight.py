"""The streaming droop flight recorder, kept as the reference of
``repro.telemetry.flight.FlightRecorder``.

The recorder in ``src/`` analyzes the window it is handed once, in
``finalize()``.  This module keeps the design it replaced byte for
byte: a ring buffer of ``pre_cycles + 2 * scan_interval`` rows scanned
every ``scan_interval`` cycles, windows backfilled from the ring and
extended scan by scan, and an ``observe_runs`` that chunks at scan
points and skips quiet stretches.  ``tests/telemetry/test_flight.py``
drives both with the same streams and asserts equal ``summary()`` and
equal dump JSON.  Pass ``max_window_cycles`` explicitly: the default
here is derived from ``scan_interval`` (``pre + post + 8 *
scan_interval``), which equals the new recorder's ``pre + post + 256``
at the old default ``scan_interval=32``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.flight import ONSET, SAFE_ENTER, SAFE_EXIT


class StreamingFlightDump:
    """One materialized window of full-resolution state."""

    __slots__ = (
        "index", "start_cycle", "end_cycle", "triggers",
        "voltages", "meta", "cycle_offset",
    )

    def __init__(self, index: int, start_cycle: int, cycle_offset: int) -> None:
        self.index = index
        self.start_cycle = start_cycle  # observed-cycle numbering
        self.end_cycle = start_cycle  # exclusive; grows as rows append
        self.cycle_offset = cycle_offset  # observed -> recorded cycles
        self.triggers: List[Dict[str, object]] = []
        self.voltages: List[np.ndarray] = []  # blocks, concatenated late
        self.meta: List[Tuple[object, object, bool]] = []

    @property
    def last_trigger_cycle(self) -> int:
        return int(self.triggers[-1]["cycle"]) if self.triggers else 0

    def num_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> Dict[str, object]:
        """JSON-able full-resolution window (recorded-cycle numbering)."""
        volts = (
            np.concatenate(self.voltages)
            if self.voltages
            else np.empty((0, 0))
        )
        n = self.num_cycles()
        volts = volts[:n]
        meta = self.meta[:n]
        off = self.cycle_offset
        # Consecutive cycles usually share one immutable decision object:
        # dedup by identity into an actuation table + per-cycle ids.
        actuations: List[Dict[str, object]] = []
        actuation_ids: List[Optional[int]] = []
        seen: Dict[int, int] = {}
        for decision, _, _ in meta:
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
            "voltages": volts.tolist(),
            "min_voltage_v": volts.min(axis=1).tolist() if n else [],
            "safe_state": [bool(s) for _, _, s in meta],
            "active_faults": [
                list(kinds) if kinds else [] for _, kinds, _ in meta
            ],
            "actuation_id": actuation_ids,
            "actuations": actuations,
        }


class _RunCursor:
    """Walks ``(count, row)`` runs a given number of cycles at a time."""

    __slots__ = ("runs", "i", "left")

    def __init__(self, runs) -> None:
        self.runs = runs
        self.i = 0
        self.left = runs[0][0] if runs else 0

    def take(self, k: int) -> List[Tuple[int, object]]:
        out = []
        while k:
            if not self.left:
                self.i += 1
                self.left = self.runs[self.i][0]
                continue
            m = min(k, self.left)
            out.append((m, self.runs[self.i][1]))
            self.left -= m
            k -= m
        return out

    def skip(self, k: int) -> None:
        self.take(k)


class StreamingFlightRecorder:
    """Always-on ring buffer + edge-triggered window dumper.

    ``observe`` must be called once per simulated cycle (warmup
    included); ``cycle_offset`` maps observed cycles to the recorded
    numbering (pass ``-warmup_cycles`` so dump cycle labels match the
    fault/guardband convention).  Triggers fire only at recorded cycle
    >= 0 — warmup settling transients produce context, not dumps.
    """

    def __init__(
        self,
        num_sms: int,
        guardband_v: float,
        pre_cycles: int = 64,
        post_cycles: int = 64,
        scan_interval: int = 32,
        max_dumps: int = 32,
        max_window_cycles: Optional[int] = None,
        cycle_offset: int = 0,
    ) -> None:
        if pre_cycles < 0 or post_cycles < 0:
            raise ValueError("pre/post window cycles cannot be negative")
        if scan_interval < 1:
            raise ValueError("scan_interval must be >= 1")
        self.num_sms = int(num_sms)
        self.guardband_v = float(guardband_v)
        self.pre_cycles = int(pre_cycles)
        self.post_cycles = int(post_cycles)
        self.scan_interval = int(scan_interval)
        self.max_dumps = int(max_dumps)
        self.max_window_cycles = int(
            max_window_cycles
            if max_window_cycles is not None
            else (pre_cycles + post_cycles + 8 * scan_interval)
        )
        self.cycle_offset = int(cycle_offset)
        # Ring capacity: a trigger inside the current scan block needs
        # pre_cycles of history behind it, plus the unscanned block.
        self._W = self.pre_cycles + 2 * self.scan_interval
        self._volts = np.empty((self._W, self.num_sms))
        # Each row's minimum SM voltage, kept beside the ring so a scan
        # reduces a vector, not the whole block.
        self._mins = np.empty(self._W)
        self._meta: List[Optional[Tuple[object, object, bool]]] = (
            [None] * self._W
        )
        self._safe = np.zeros(self._W, dtype=bool)
        self._safe_unscanned = 0  # safe-state rows since the last scan
        self._n = 0  # observed cycles
        self._scanned = 0  # cycles processed by the scanner
        self._prev_below = False
        self._prev_safe = False
        self.dumps: List[StreamingFlightDump] = []
        self._pending: List[StreamingFlightDump] = []
        self.onsets = 0
        self.safe_edges = 0
        self.dumps_suppressed = 0

    # -- hot path ------------------------------------------------------
    def observe(self, voltages, decision=None, fault_kinds=None,
                safe: bool = False) -> None:
        """Record one cycle of state.  O(num_sms) copy, no detection."""
        n = self._n
        slot = n % self._W
        self._volts[slot] = voltages
        self._mins[slot] = self._volts[slot].min()
        self._meta[slot] = (decision, fault_kinds, safe)
        self._safe[slot] = safe
        if safe:
            self._safe_unscanned += 1
        self._n = n = n + 1
        if n - self._scanned >= self.scan_interval:
            self._scan()

    def observe_runs(self, voltages: np.ndarray,
                     runs: Sequence[Tuple[int, Tuple[object, object, bool]]]
                     ) -> None:
        """Record ``len(voltages)`` consecutive cycles in one call.

        ``runs`` lists ``(count, (decision, fault_kinds, safe))`` in
        cycle order, the counts summing to ``len(voltages)``: a hot loop
        whose metadata changes only now and then hands over a block with
        a handful of runs instead of a row per cycle.  Exactly
        equivalent to one :meth:`observe` per cycle — scans fire at the
        same cycles — but the ring takes block copies and slice fills.
        Once the recorder has settled (no open window, no edge pending),
        a quiet stretch (every SM at or above the guardband, no safe
        state) up to the next row that is not is skipped in one step:
        its scans could only advance the scan mark.
        """
        total = len(voltages)
        if not total:
            return
        mins = voltages.min(axis=1)
        # Rows that could fire a trigger: below the guardband (NaN
        # fails the comparison too) or in the safe state.
        loud = ~(mins >= self.guardband_v)
        pos = 0
        for count, row in runs:
            if row[2]:
                loud[pos:pos + count] = True
            pos += count
        loud_at = np.flatnonzero(loud).tolist() + [total]
        cursor = _RunCursor(runs)
        nxt = 0  # index into loud_at: the first loud row at or after done
        done = 0
        while done < total:
            while loud_at[nxt] < done:
                nxt += 1
            quiet_to = loud_at[nxt]
            if quiet_to > done and self._settled():
                self._skip(voltages[done:quiet_to], mins[done:quiet_to],
                           cursor)
                done = quiet_to
                continue
            n = self._n
            # Stop each chunk at the next scan point (never longer than
            # the ring, since scan_interval < _W).
            take = min(total - done, self.scan_interval - (n - self._scanned))
            end = done + take
            self._put(n, voltages[done:end], mins[done:end], cursor.take(take))
            self._n = n = n + take
            done = end
            if n - self._scanned >= self.scan_interval:
                self._scan()

    def _settled(self) -> bool:
        """No open window, no edge pending, nothing unscanned that could
        fire: while the input stays quiet, scans only advance the mark."""
        if (
            self._pending or self._prev_below or self._prev_safe
            or self._safe_unscanned
        ):
            return False
        if self._n > self._scanned:
            return bool(
                self._ring(self._mins, self._scanned, self._n).min()
                >= self.guardband_v
            )
        return True

    def _skip(self, voltages: np.ndarray, mins: np.ndarray,
              cursor: _RunCursor) -> None:
        """Fast-forward a quiet stretch: keep its last ``_W`` rows (all a
        later backfill can reach) and advance the scan mark as its
        scans would have."""
        total = len(voltages)
        keep = min(total, self._W)
        cursor.skip(total - keep)
        self._put(self._n + total - keep, voltages[total - keep:],
                  mins[total - keep:], cursor.take(keep))
        n = self._n + total
        self._scanned += (
            (n - self._scanned) // self.scan_interval * self.scan_interval
        )
        self._n = n

    def _put(self, n: int, voltages: np.ndarray, mins: np.ndarray,
             runs) -> None:
        """Write observed cycles ``n, n+1, ...`` into the ring."""
        W = self._W
        k = len(voltages)
        slot = n % W
        first = min(k, W - slot)
        self._volts[slot:slot + first] = voltages[:first]
        self._mins[slot:slot + first] = mins[:first]
        if k > first:
            self._volts[:k - first] = voltages[first:]
            self._mins[:k - first] = mins[first:]
        for count, row in runs:
            if row[2]:
                self._safe_unscanned += count
            while count:
                m = min(count, W - slot)
                self._meta[slot:slot + m] = [row] * m
                self._safe[slot:slot + m] = row[2]
                count -= m
                slot = (slot + m) % W

    # -- deferred detection --------------------------------------------
    def _ring(self, ring: np.ndarray, start: int, end: int) -> np.ndarray:
        """``ring`` entries for observed cycles [start, end) (may wrap)."""
        lo = start % self._W
        hi = lo + (end - start)
        if hi <= self._W:
            return ring[lo:hi]
        return np.concatenate([ring[lo:], ring[: hi - self._W]])

    def _rows(self, start: int, end: int) -> np.ndarray:
        """Ring rows for observed cycles [start, end) (may wrap)."""
        return self._ring(self._volts, start, end)

    def _meta_rows(self, start: int, end: int) -> list:
        lo = start % self._W
        hi = lo + (end - start)
        if hi <= self._W:
            return self._meta[lo:hi]
        return self._meta[lo:] + self._meta[: hi - self._W]

    def _scan(self) -> None:
        start, end = self._scanned, self._n
        if end <= start:
            return
        mins = self._ring(self._mins, start, end)
        any_safe = self._safe_unscanned or self._prev_safe
        self._safe_unscanned = 0
        if (
            not self._prev_below
            and not any_safe
            and mins.min() >= self.guardband_v
        ):
            # Quiet block (the common case): above the guardband and out
            # of the safe state throughout, after a quiet cycle — no edge
            # can fire, and a NaN row fails the comparison to the full
            # scan below.
            self._scanned = end
            self._extend_pending(end)
            return
        below = mins < self.guardband_v

        # Edges vs the previous scanned cycle (block-boundary carry).
        prev_below = np.empty_like(below)
        prev_below[0] = self._prev_below
        prev_below[1:] = below[:-1]

        triggers: List[Tuple[int, str, float]] = []
        first_recorded = max(0, -self.cycle_offset - start)
        onset_pos = np.flatnonzero(below & ~prev_below)
        for pos in onset_pos:
            if pos < first_recorded:
                continue  # warmup settling, context only
            self.onsets += 1
            triggers.append((start + int(pos), ONSET, float(mins[pos])))
        if any_safe:
            safe = self._ring(self._safe, start, end)
            prev_safe = np.empty_like(safe)
            prev_safe[0] = self._prev_safe
            prev_safe[1:] = safe[:-1]
            for pos in np.flatnonzero(safe != prev_safe):
                if pos < first_recorded:
                    continue
                self.safe_edges += 1
                kind = SAFE_ENTER if safe[pos] else SAFE_EXIT
                triggers.append((start + int(pos), kind, float(mins[pos])))
            triggers.sort(key=lambda t: t[0])
            self._prev_safe = bool(safe[-1])

        self._prev_below = bool(below[-1])
        self._scanned = end

        for cycle, kind, min_v in triggers:
            self._trigger(cycle, kind, min_v)
        self._extend_pending(end)

    def _trigger(self, cycle: int, kind: str, min_v: float) -> None:
        record = {"cycle": cycle, "kind": kind, "min_voltage_v": min_v}
        if self._pending:
            dump = self._pending[-1]
            window_end = dump.last_trigger_cycle + self.post_cycles
            grown = cycle + self.post_cycles - dump.start_cycle + 1
            if cycle <= window_end and grown <= self.max_window_cycles:
                dump.triggers.append(record)
                return
        if len(self.dumps) + len(self._pending) >= self.max_dumps:
            self.dumps_suppressed += 1
            return
        start = max(0, cycle - self.pre_cycles)
        dump = StreamingFlightDump(
            index=len(self.dumps) + len(self._pending),
            start_cycle=start,
            cycle_offset=self.cycle_offset,
        )
        dump.triggers.append(record)
        # Backfill history from the ring (guaranteed present: the ring
        # holds pre_cycles + the unscanned block), clamped to the close
        # point so a short post window never over-collects.
        close_at = min(
            cycle + self.post_cycles + 1, start + self.max_window_cycles
        )
        take_to = min(self._scanned, close_at)
        dump.voltages.append(self._rows(start, take_to).copy())
        dump.meta.extend(self._meta_rows(start, take_to))
        dump.end_cycle = take_to
        self._pending.append(dump)

    def _extend_pending(self, now: int) -> None:
        """Append newly scanned rows to open windows; close filled ones."""
        still_open: List[StreamingFlightDump] = []
        for dump in self._pending:
            close_at = min(
                dump.last_trigger_cycle + self.post_cycles + 1,
                dump.start_cycle + self.max_window_cycles,
            )
            take_to = min(now, close_at)
            if take_to > dump.end_cycle:
                dump.voltages.append(
                    self._rows(dump.end_cycle, take_to).copy()
                )
                dump.meta.extend(self._meta_rows(dump.end_cycle, take_to))
                dump.end_cycle = take_to
            if now >= close_at:
                self.dumps.append(dump)
            else:
                still_open.append(dump)
        self._pending = still_open

    def force_dump(self, kind: str,
                   min_voltage_v: float = float("nan")) -> None:
        """Force a window ending at the last observed cycle.

        For terminal events that are not voltage or safe-state edges —
        e.g. a solver :data:`NUMERICAL_DIVERGENCE` verdict — so the
        full-resolution history behind the failure is captured even
        though no guardband edge fired.  Coalesces into an open window
        when one covers the tail; otherwise opens a new dump (subject
        to the usual ``max_dumps`` suppression accounting).
        """
        self._scan()
        if self._n == 0:
            return
        self._trigger(self._n - 1, kind, float(min_voltage_v))
        self._extend_pending(self._n)

    def finalize(self) -> None:
        """Scan the tail and close still-open windows (truncated post)."""
        self._scan()
        for dump in self._pending:
            self.dumps.append(dump)
        self._pending = []

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
            "dumps": len(self.dumps) + len(self._pending),
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
                for d in self.dumps + self._pending
            ],
        }
