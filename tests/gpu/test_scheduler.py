"""Tests for the GTO and gating-aware warp schedulers."""

from repro.gpu.isa import ExecUnit, InstructionClass
from tests.oracles.per_object_gpu import (
    GatingAwareScheduler,
    GTOScheduler,
    Instruction,
    Warp,
)


def alu_warp(warp_id, n=4):
    return Warp(warp_id, [Instruction(InstructionClass.FALU, -1) for _ in range(n)])


def lsu_warp(warp_id, n=4):
    return Warp(warp_id, [Instruction(InstructionClass.LOAD, -1) for _ in range(n)])


class TestGTO:
    def test_returns_none_when_no_warp_ready(self):
        s = GTOScheduler()
        done = Warp(0, [])
        assert s.select([done], 0) is None

    def test_greedy_sticks_with_last_issued(self):
        s = GTOScheduler()
        warps = [alu_warp(0), alu_warp(1)]
        first = s.select(warps, 0)
        first.advance(0)
        s.issued(first)
        second = s.select(warps, 1)
        assert second.warp_id == first.warp_id

    def test_falls_back_to_oldest_when_greedy_unready(self):
        s = GTOScheduler()
        warps = [alu_warp(0, n=1), alu_warp(1, n=4)]
        first = s.select(warps, 0)
        assert first.warp_id == 0  # oldest = least progressed, lowest id
        first.advance(0)
        s.issued(first)
        # Warp 0 is now done; GTO must move on.
        second = s.select(warps, 1)
        assert second.warp_id == 1

    def test_oldest_means_least_progressed(self):
        s = GTOScheduler()
        w0, w1 = alu_warp(0), alu_warp(1)
        w0.advance(0)
        w0.advance(1)
        chosen = s.select([w0, w1], 2)
        assert chosen.warp_id == 1

    def test_reset_clears_greedy_state(self):
        s = GTOScheduler()
        warps = [alu_warp(0), alu_warp(1)]
        s.issued(warps[1])
        s.reset()
        assert s.select(warps, 0).warp_id == 0


class TestGatingAware:
    def test_prefers_active_unit(self):
        s = GatingAwareScheduler()
        s.set_active_units({ExecUnit.LSU})
        warps = [alu_warp(0), lsu_warp(1)]
        chosen = s.select(warps, 0)
        assert chosen.warp_id == 1  # LSU warp wins despite higher id

    def test_falls_back_when_no_preferred_ready(self):
        s = GatingAwareScheduler()
        s.set_active_units({ExecUnit.SFU})
        warps = [alu_warp(0)]
        chosen = s.select(warps, 0)
        assert chosen.warp_id == 0

    def test_all_units_active_behaves_like_gto(self):
        gates = GatingAwareScheduler()
        gto = GTOScheduler()
        warps_a = [alu_warp(0), lsu_warp(1)]
        warps_b = [alu_warp(0), lsu_warp(1)]
        assert gates.select(warps_a, 0).warp_id == gto.select(warps_b, 0).warp_id
