"""SPMD balance mechanics: the properties that make VS viable on GPUs.

These tests pin the modeling decisions behind Section III-A's premise
("all the cores execute the same code and experience very similar
microarchitectural events"):

* identical instruction streams across SMs under one stream seed;
* deterministic, access-site-keyed memory outcomes shared by all SMs;
* kernel-launch barriers bounding SM phase drift;
* jitter as the only per-SM divergence source.
"""

import numpy as np
import pytest

from repro.gpu import GPU, KernelSpec
from repro.gpu.kernels import build_warps
from repro.gpu.memory import MemorySystem
from repro.workloads.benchmarks import get_benchmark


class TestSharedStreams:
    def test_same_seed_same_streams_across_sms(self):
        gpu = GPU(KernelSpec("t", body_length=100), seed=5)
        reference = [i.op for i in gpu.sms[0].warps[0].instructions]
        for sm in gpu.sms[1:]:
            assert [i.op for i in sm.warps[0].instructions] == reference

    def test_jitter_differs_across_sms(self):
        gpu = GPU(KernelSpec("t", body_length=200), seed=5, jitter=0.2)
        lengths = {len(sm.warps[0].instructions) for sm in gpu.sms}
        assert len(lengths) > 1

    def test_stream_cache_returns_equal_streams(self):
        spec = KernelSpec("cache_check", body_length=150)
        a = build_warps(spec, seed=9)
        b = build_warps(spec, seed=9)
        for wa, wb in zip(a, b):
            assert [i.op for i in wa.instructions] == [
                i.op for i in wb.instructions
            ]


class TestKeyedMemory:
    def test_same_key_same_outcome(self):
        m = MemorySystem(miss_ratio=0.5, seed=3)
        first = m.request(0, key=(1, 10, 0)) - 0
        second = m.request(1000, key=(1, 10, 0)) - 1000
        assert first == second

    def test_different_keys_vary(self):
        m = MemorySystem(miss_ratio=0.5, seed=3)
        latencies = {
            m.request(0, key=(w, pc, 0)) for w in range(8) for pc in range(8)
        }
        assert len(latencies) > 1

    def test_key_outcome_statistics_match_ratio(self):
        m = MemorySystem(miss_ratio=0.3, seed=4)
        for k in range(4000):
            m.request(0, key=(k, k * 7, 0))
        assert m.observed_miss_ratio == pytest.approx(0.3, abs=0.03)

    def test_two_sms_same_sites_same_events(self):
        """The SPMD property end to end: two SMs running the same code
        against the shared memory system see identical hit/miss events."""
        m = MemorySystem(miss_ratio=0.4, seed=5)
        outcomes_a = [
            m.request(0, key=(w, pc, 0)) for w in range(4) for pc in range(16)
        ]
        outcomes_b = [
            m.request(0, key=(w, pc, 0)) for w in range(4) for pc in range(16)
        ]
        # Latency class (beyond queueing) is identical site by site.
        classes_a = [o % 1000 >= 100 for o in outcomes_a]
        classes_b = [o % 1000 >= 100 for o in outcomes_b]
        assert classes_a == classes_b


class TestKernelBarrier:
    def test_all_sms_launch_together(self):
        spec = KernelSpec("short", body_length=30, warps_per_sm=2)
        gpu = GPU(spec, seed=6)
        gpu.run(4000)
        assert gpu.kernels_launched >= 2
        # Every SM is on the same kernel generation.
        generations = {sm._kernel_generation for sm in gpu.sms}
        assert len(generations) == 1

    def test_barrier_exempt_sm_does_not_block(self):
        spec = KernelSpec("short", body_length=30, warps_per_sm=2)
        gpu = GPU(spec, seed=6)
        gpu.barrier_exempt = {0}
        gpu.sms[0].set_issue_width(0.0)  # SM 0 never finishes
        gpu.run(4000)
        assert gpu.kernels_launched >= 2

    def test_blocked_barrier_without_exemption(self):
        spec = KernelSpec("short", body_length=30, warps_per_sm=2)
        gpu = GPU(spec, seed=6)
        gpu.sms[0].set_issue_width(0.0)
        gpu.run(2000)
        assert gpu.kernels_launched == 1  # stuck behind SM 0

    @pytest.mark.parametrize("engine", ["c", "reference"])
    def test_launch_with_loads_in_flight_keeps_launching(self, engine):
        """Halting SMs 1-15 mid-kernel lets the barrier fire at once
        (SM 0 has drained) with their loads in flight.  Those loads
        belong to the old kernel: completing them into the new warps
        left outstanding counts at -1, and no kernel launched again."""
        bench = get_benchmark("hotspot")
        gpu = GPU(bench.kernel, seed=3, miss_ratio=bench.miss_ratio,
                  jitter=bench.jitter, vectorized=engine != "reference")
        assert getattr(gpu.engine, "backend", "reference") == engine
        gpu.run(2198)
        gpu.set_issue_widths([2.0] + [0.0] * 15)
        gpu.barrier_exempt = set(range(1, 16))
        gpu.run(600)
        gpu.set_issue_widths([2.0] * 16)
        gpu.barrier_exempt = set()
        gpu.run(3200)
        assert gpu.kernel_launch_cycles == [0, 2198, 5891]

    def test_launch_cycles_recorded(self):
        spec = KernelSpec("short", body_length=30, warps_per_sm=2)
        gpu = GPU(spec, seed=6)
        gpu.run(4000)
        launches = gpu.kernel_launch_cycles
        assert launches[0] == 0
        assert all(b > a for a, b in zip(launches, launches[1:]))


class TestDIWSWindowSemantics:
    def test_budget_refreshes_each_window(self):
        from repro.gpu.memory import MemorySystem
        from repro.gpu.sm import DIWS_WINDOW, StreamingMultiprocessor

        spec = KernelSpec("t", body_length=400, dependence=0.0)
        sm = StreamingMultiprocessor(
            0, spec, MemorySystem(miss_ratio=0.0, seed=7), seed=7
        )
        sm.set_issue_width(1.5)
        for cycle in range(10 * DIWS_WINDOW):
            sm.step(cycle)
        per_cycle = sm.stats.instructions_issued / sm.stats.cycles
        # Fractional width realized within the window mechanism (window
        # re-arming can overshoot by a fraction of a slot per window).
        assert 1.2 < per_cycle <= 1.6
