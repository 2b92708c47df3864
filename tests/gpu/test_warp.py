"""Unit tests for warp state and the scoreboard."""

import pytest

from repro.gpu.isa import InstructionClass
from tests.oracles.per_object_gpu import (
    PENDING_MEMORY,
    Instruction,
    Scoreboard,
    Warp,
)


def alu(dest, *srcs):
    return Instruction(InstructionClass.FALU, dest, tuple(srcs))


class TestScoreboard:
    def test_unwritten_register_is_ready(self):
        assert Scoreboard().is_ready(5, cycle=0)

    def test_pending_write_blocks_until_ready_cycle(self):
        b = Scoreboard()
        b.mark_pending(3, ready_cycle=10)
        assert not b.is_ready(3, 9)
        assert b.is_ready(3, 10)

    def test_memory_pending_blocks_indefinitely(self):
        b = Scoreboard()
        b.mark_pending(3, PENDING_MEMORY)
        assert not b.is_ready(3, 10_000)
        b.release(3, 10_001)
        assert b.is_ready(3, 10_001)

    def test_release_only_affects_memory_pending(self):
        b = Scoreboard()
        b.mark_pending(3, ready_cycle=10)
        b.release(3, 5)  # not memory-pending: no effect
        assert not b.is_ready(3, 5)

    def test_negative_register_ignored(self):
        b = Scoreboard()
        b.mark_pending(-1, 10)
        assert b.pending_count(0) == 0

    def test_pending_count(self):
        b = Scoreboard()
        b.mark_pending(1, 10)
        b.mark_pending(2, PENDING_MEMORY)
        assert b.pending_count(5) == 2
        assert b.pending_count(10) == 1


class TestWarp:
    def test_empty_stream_is_done(self):
        w = Warp(0, [])
        assert w.done
        assert w.peek() is None
        assert not w.is_ready(0)

    def test_raw_dependence_stalls_issue(self):
        w = Warp(0, [alu(1), alu(2, 1)])
        assert w.is_ready(0)
        first = w.advance(0)
        w.scoreboard.mark_pending(first.dest, 0 + first.latency)
        # Second instruction reads r1 which is in flight.
        assert not w.is_ready(1)
        assert w.is_ready(first.latency)

    def test_waw_dependence_stalls_issue(self):
        w = Warp(0, [alu(1), alu(1)])
        first = w.advance(0)
        w.scoreboard.mark_pending(first.dest, 4)
        assert not w.is_ready(1)

    def test_progress(self):
        w = Warp(0, [alu(1), alu(2)])
        assert w.progress == 0.0
        w.advance(0)
        assert w.progress == 0.5

    def test_advance_tracks_last_issue_cycle(self):
        w = Warp(0, [alu(1)])
        w.advance(42)
        assert w.last_issue_cycle == 42
        assert w.done
