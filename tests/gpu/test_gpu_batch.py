"""Tests for the lock-stepped GPU batch facade and ``step_into``.

``GPU.step_into(out)`` must be bit-identical to ``out[:] = gpu.step()``
— including around barrier-exempt changes, which exercise the exempt
mask the ``barrier_exempt`` setter maintains — and ``GPUBatch`` must
keep B independent lanes byte-equal to B serial GPUs, and reject lanes
whose clocks differ.
"""

import numpy as np
import pytest

from repro.gpu import GPU, KernelSpec
from repro.gpu.batch import GPUBatch


def _gpu(seed, body=250):
    return GPU(KernelSpec("t", body_length=body), seed=seed, jitter=0.05)


def _launches_without_exempt(seed, cycles):
    gpu = _gpu(seed)
    for _ in range(cycles):
        gpu.step()
    return gpu.kernel_launch_cycles


class TestStepInto:
    def test_matches_step(self):
        a = _gpu(3)
        b = _gpu(3)
        out = np.empty(a.num_sms)
        for cycle in range(400):
            ref = a.step()
            assert np.array_equal(b.step_into(out), ref), cycle
        assert a.kernels_launched == b.kernels_launched
        assert a.kernel_launch_cycles == b.kernel_launch_cycles

    def test_exempt_mask_refresh_round_trip(self):
        """Setting then clearing barrier_exempt must not leave stale
        mask bits behind."""
        a = _gpu(7)
        b = _gpu(7)
        out = np.empty(a.num_sms)
        for cycle in range(600):
            if cycle == 150:
                a.barrier_exempt = {0, 1, 2, 3}
                b.barrier_exempt = {0, 1, 2, 3}
            if cycle == 300:
                a.barrier_exempt = set()
                b.barrier_exempt = set()
            assert np.array_equal(b.step_into(out), a.step()), cycle
        assert a.kernel_launch_cycles == b.kernel_launch_cycles


class TestGPUBatch:
    def test_lanes_match_serial_gpus(self):
        seeds = [1, 5, 9]
        serial = [_gpu(s) for s in seeds]
        batch = GPUBatch([_gpu(s) for s in seeds])
        out = np.empty((len(seeds), batch.num_sms))
        for cycle in range(350):
            batch.step_into(out)
            for i, gpu in enumerate(serial):
                assert np.array_equal(out[i], gpu.step()), (i, cycle)
        assert batch.total_instructions() == sum(
            g.total_instructions() for g in serial
        )
        assert batch.total_fake_instructions() == sum(
            g.total_fake_instructions() for g in serial
        )

    def test_exempt_lanes_stay_fused(self):
        """Lanes gaining and losing barrier-exempt sets mid-run stay on
        the fused step and equal per-lane ``GPU.step_into`` stepping."""
        seeds = [2, 4, 6, 8]
        # lane -> [(from_cycle, exempt set)]; lane 3 never halts.
        schedule = {
            0: [(40, {12, 13, 14, 15}), (500, set())],
            1: [(0, {0}), (90, set()), (260, {3, 7, 11, 15})],
            2: [(150, set(range(16))), (420, {5})],
        }

        def exempt_at(lane, cycle):
            current = set()
            for start, sms in schedule.get(lane, []):
                if cycle >= start:
                    current = sms
            return current

        serial = [_gpu(s) for s in seeds]
        batched = [_gpu(s) for s in seeds]
        batch = GPUBatch(batched)
        out = np.empty((len(seeds), batch.num_sms))
        ref = np.empty(batch.num_sms)
        for cycle in range(700):
            for i in range(len(seeds)):
                serial[i].barrier_exempt = exempt_at(i, cycle)
                batched[i].barrier_exempt = exempt_at(i, cycle)
            batch.step_into(out)
            for i, gpu in enumerate(serial):
                assert np.array_equal(out[i], gpu.step_into(ref)), (i, cycle)
        assert batch._fused is not None, "batch left the fused step"
        # The fused step defers each lane's cycle and memory-queue
        # mirrors to the batch; fold them back before reading lanes.
        batch.fold()
        for a, b in zip(serial, batched):
            assert a.cycle == b.cycle
            assert a.kernel_launch_cycles == b.kernel_launch_cycles
            assert a.kernels_launched == b.kernels_launched
            assert a.memory.requests_served == b.memory.requests_served
            assert a.memory.misses == b.memory.misses
            assert a.memory._next_service_slot == b.memory._next_service_slot
            assert a.total_instructions() == b.total_instructions()
        # The schedule really moved launches: exempt lanes relaunch
        # while their halted SMs are still busy.
        assert serial[2].kernel_launch_cycles != _launches_without_exempt(
            seeds[2], 700
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            GPUBatch([])

    def test_misaligned_clocks_rejected(self):
        ahead = _gpu(2)
        ahead.step()
        with pytest.raises(ValueError, match=r"share a clock.*\[0, 1\]"):
            GPUBatch([_gpu(1), ahead])

    def test_lane_access(self):
        gpus = [_gpu(1), _gpu(2)]
        batch = GPUBatch(gpus)
        assert len(batch) == 2
        assert batch[1] is gpus[1]
        assert list(batch) == gpus
