"""Tests for the shared memory system model.

``MemorySystem`` is the state the GPU engine reads and writes; the
per-load path the per-object SMs call is the oracle's
``PerRequestMemory``.
"""

import numpy as np
import pytest

from repro.gpu import GPU, KernelSpec
from repro.gpu.memory import MemorySystem, MemoryTimings
from tests.gpu.test_launch import launched_miss_table
from tests.oracles import stream_reference
from tests.oracles.per_object_gpu import PerRequestMemory


class TestTimings:
    def test_defaults_valid(self):
        MemoryTimings()

    def test_rejects_bad_latencies(self):
        with pytest.raises(ValueError):
            MemoryTimings(l2_hit_cycles=0)
        with pytest.raises(ValueError):
            MemoryTimings(dram_cycles=-1)
        with pytest.raises(ValueError):
            MemoryTimings(requests_per_cycle=0)


class TestLatency:
    def test_all_hits_return_l2_latency(self):
        m = PerRequestMemory(miss_ratio=0.0, seed=1)
        done = m.request(100)
        assert done == 100 + m.timings.l2_hit_cycles

    def test_all_misses_return_dram_latency(self):
        m = PerRequestMemory(miss_ratio=1.0, seed=1)
        done = m.request(100)
        assert done == 100 + m.timings.dram_cycles

    def test_miss_ratio_statistics(self):
        m = PerRequestMemory(miss_ratio=0.25, seed=2)
        for _ in range(4000):
            m.request(0)
        assert m.observed_miss_ratio == pytest.approx(0.25, abs=0.03)

    def test_invalid_miss_ratio_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem(miss_ratio=1.5)


class TestBandwidth:
    def test_burst_queues_beyond_bandwidth(self):
        m = PerRequestMemory(miss_ratio=0.0, seed=3)
        per_cycle = m.timings.requests_per_cycle
        completions = [m.request(0) for _ in range(per_cycle * 10)]
        # The last request of the burst waits ~9 extra cycles for service.
        assert max(completions) >= min(completions) + 9

    def test_spread_requests_not_delayed(self):
        m = PerRequestMemory(miss_ratio=0.0, seed=4)
        l2 = m.timings.l2_hit_cycles
        for cycle in range(0, 100, 10):
            assert m.request(cycle) == cycle + l2

    def test_reset_statistics(self):
        m = PerRequestMemory(miss_ratio=0.5, seed=5)
        m.request(0)
        m.reset_statistics()
        assert m.requests_served == 0
        assert m.observed_miss_ratio == 0.0


class TestSiteMissTable:
    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_grid_hash_matches_the_per_warp_oracle(self, seed):
        """A launch's one pass over the (warp, pc) grid equals hashing
        warp by warp, including seeds whose first mixing product
        exceeds 64 bits and generations past 2**63."""
        for miss_ratio in (0.0, 0.3, 0.75, 1.0):
            for warps, body, generation in ((1, 1, 0), (12, 240, 3),
                                            (40, 96, 2**63)):
                spec = KernelSpec("miss", body_length=body,
                                  warps_per_sm=warps)
                gpu = GPU(spec, seed=seed, miss_ratio=miss_ratio)
                gpu.engine._launch(generation, [1])
                got = launched_miss_table(gpu.engine)
                want = stream_reference.site_miss_table(
                    gpu.memory, warps, body + 1, generation
                )
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestEngineMemory:
    def test_gpu_builds_and_relaunches_without_a_numpy_generator(
        self, monkeypatch
    ):
        """The engine draws hit/miss from the site hash and seeds its
        launches' PCG64s in C, so neither building a GPU nor relaunching
        its kernel constructs a NumPy generator."""

        def refuse(*args, **kwargs):
            raise AssertionError("a NumPy generator was constructed")

        for name in ("default_rng", "Generator", "PCG64"):
            monkeypatch.setattr(np.random, name, refuse)
        gpu = GPU(KernelSpec("tiny", body_length=24, warps_per_sm=2),
                  seed=5, miss_ratio=0.3, jitter=0.1)
        for _ in range(5000):
            gpu.step()
            if gpu.kernels_launched >= 3:
                break
        assert gpu.kernels_launched >= 3
        assert gpu.memory.requests_served > 0
