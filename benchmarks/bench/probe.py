"""Host speed probe: corrects wall time for a contended, shared CPU.

On a shared virtual machine the same work can take up to twice as long
from one second to the next.  The slowdown is contention for the
physical core, not steal time, so CPU time slows down just as much and
cannot replace wall time.  While a timed region runs, :class:`SpeedProbe`
lets a ``SIGALRM`` timer interrupt it every ``PERIOD_S`` of wall time and
times a fixed pure-Python snippet (about 1% of the region).  The mean
of ``REFERENCE_S / snippet time`` over the region estimates the host's
speed during it (1.0 = uncontended), and

    reference seconds = (wall - probe time) x speed

is how long the region would have taken on the uncontended reference
host.  The snippet is pure Python so the probe can run from the first
line of a fresh interpreter, before NumPy is imported.

The probe is the benchmark's own code: no change to the simulator can
change what it measures.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
#: Snippet time on the uncontended reference host (Intel Xeon, 2 vCPUs,
#: Python 3.11): the fast mode of its distribution while interrupting
#: reps of the four workloads (76-82 us; the snippet shares the caches
#: with the workload it interrupts).
REFERENCE_S = 78e-6


#: The snippet's containers are reused: creating new ones in the handler
#: would shift the garbage collector's timing in the process it probes.
_VALUES = [0.0] * 16
_TABLE: dict = {}


def _snippet() -> int:
    values = _VALUES
    table = _TABLE
    acc = 0
    for i in range(60):
        for j in range(16):
            values[j] = values[j] * 0.5 + (i ^ j)
        table[i & 15] = values[i & 15]
        acc += len(table)
    return acc


class SpeedProbe:
    """Samples host speed while the ``with`` block runs (main thread)."""

    def __init__(self) -> None:
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _snippet()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Wall time the probe itself took."""
        return sum(self.samples)

    @property
    def speed(self) -> float:
        """Mean host speed over the block, relative to the reference."""
        if not self.samples:
            return 1.0
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` of the probed block, in reference-host seconds."""
        return (wall_s - self.probe_s) * self.speed
