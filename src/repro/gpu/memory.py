"""Shared L2 / DRAM memory model.

A latency + bandwidth model, not a functional cache: each load is
assigned a service latency (L2 hit or DRAM miss, a deterministic hash
of its access site against the kernel's miss ratio) and queues against
a global requests-per-cycle bandwidth limit shared by all SMs — the
FR-FCFS controller and 179.2 GB/s channel limit of Table I reduced to
their timing effect.

:class:`MemorySystem` holds what the GPU engine reads and writes: the
miss ratio, the timings, the hash seed, the queue's next service slot
and the served/miss counters.  The engine's step runs the bandwidth
recurrence inline, with each access site's hit/miss read from a table
of the site hash over the kernel generation's ``(warp, pc)`` grid that
each launch builds in compiled code, and releases the destination
register in the warp's scoreboard on completion.  The per-request form
of the same model, which the per-object SMs call one load at a time,
is the test oracle's (``tests/oracles/per_object_gpu.py``,
``PerRequestMemory``).
"""

from __future__ import annotations

from dataclasses import dataclass


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
        # The access-site hash's seed.
        self._seed = seed + 1
        # Earliest cycle at which the next request can start service.
        self._next_service_slot = 0.0
        self.requests_served = 0
        self.misses = 0
