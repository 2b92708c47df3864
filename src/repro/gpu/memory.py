"""Shared L2 / DRAM memory model.

A latency + bandwidth model, not a functional cache: each load is
assigned a service latency (L2 hit or DRAM miss, drawn per-request from
the kernel's miss ratio) and queues against a global requests-per-cycle
bandwidth limit shared by all SMs — the FR-FCFS controller and 179.2
GB/s channel limit of Table I reduced to their timing effect.

:meth:`request` serves one load issued at a cycle and returns the
absolute cycle the value becomes ready.  The GPU engine's step runs the
same bandwidth recurrence inline, with each access site's hit/miss read
from a table of :meth:`_site_hash` over the kernel generation's
``(warp, pc)`` grid that each launch builds in compiled code, and
releases the destination register in the warp's scoreboard on
completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MemoryTimings:
    """Service latencies and bandwidth of the memory hierarchy."""

    l2_hit_cycles: int = 32
    dram_cycles: int = 220
    # Requests the whole chip can start servicing per cycle (6 channels).
    requests_per_cycle: int = 12

    def __post_init__(self) -> None:
        if self.l2_hit_cycles <= 0 or self.dram_cycles <= 0:
            raise ValueError("latencies must be positive")
        if self.requests_per_cycle <= 0:
            raise ValueError("requests_per_cycle must be positive")


class MemorySystem:
    """Global latency/bandwidth arbiter shared by every SM."""

    def __init__(
        self,
        miss_ratio: float = 0.3,
        timings: MemoryTimings = MemoryTimings(),
        seed: int = 0,
    ) -> None:
        if not 0.0 <= miss_ratio <= 1.0:
            raise ValueError(f"miss_ratio must be in [0,1], got {miss_ratio}")
        self.miss_ratio = miss_ratio
        self.timings = timings
        self._seed = seed + 1
        self._rng = np.random.default_rng(seed)
        # Earliest cycle at which the next request can start service.
        self._next_service_slot = 0.0
        self.requests_served = 0
        self.misses = 0

    def request(self, cycle: int, key: Optional[tuple] = None) -> int:
        """Issue a load at ``cycle``; return its completion cycle.

        ``key`` identifies the access site (e.g. ``(warp id, pc)``).
        When given, hit/miss is a *deterministic* function of the key —
        so under the SPMD model every SM executing the same code sees
        the same microarchitectural events, the property that keeps
        layer currents balanced (Section III-A).  Without a key the
        outcome is drawn randomly at the configured miss ratio.
        """
        slot_width = 1.0 / self.timings.requests_per_cycle
        start = max(float(cycle), self._next_service_slot)
        self._next_service_slot = start + slot_width
        queue_delay = start - cycle
        if key is not None:
            draw = self._site_hash(key)
        else:
            draw = self._rng.random()
        if draw < self.miss_ratio:
            latency = self.timings.dram_cycles
            self.misses += 1
        else:
            latency = self.timings.l2_hit_cycles
        self.requests_served += 1
        return int(cycle + queue_delay + latency)

    def _site_hash(self, key: tuple) -> float:
        """Stable uniform draw in [0, 1) from an access-site key."""
        h = self._seed * 0x9E3779B1
        for part in key:
            h = (h ^ (int(part) + 0x7F4A7C15)) * 0x85EBCA6B % (1 << 32)
        return h / float(1 << 32)

    @property
    def observed_miss_ratio(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.misses / self.requests_served

    def reset_statistics(self) -> None:
        self.requests_served = 0
        self.misses = 0
