"""Tests for kernel specs and warp-stream generation.

A launch builds its streams in compiled code (``engine_launch``), and
``tests/oracles/stream_reference.py`` keeps the per-warp Python
builders it must equal byte for byte (``tests/gpu/test_launch.py``
holds the launch property, generator states included).
``TestGeneration`` checks the generator's statistics through the GPU
oracle's per-object builder (``build_warps``), which draws through the
reference's ``_draw_stream_fields``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import GPU
from repro.gpu.isa import InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark
from tests.gpu.test_engine_equivalence import kernel_specs
from tests.gpu.test_launch import assert_launch_matches
from tests.oracles import per_object_gpu
from tests.oracles.per_object_gpu import build_warps


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        KernelSpec("ok")

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError, match="empty mix"):
            KernelSpec("bad", mix={})

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="negative"):
            KernelSpec("bad", mix={InstructionClass.FALU: -1.0})

    def test_rejects_zero_weight_sum(self):
        with pytest.raises(ValueError, match="zero"):
            KernelSpec("bad", mix={InstructionClass.FALU: 0.0})

    @pytest.mark.parametrize("dep", [-0.1, 1.1])
    def test_rejects_out_of_range_dependence(self, dep):
        with pytest.raises(ValueError, match="dependence"):
            KernelSpec("bad", dependence=dep)

    def test_rejects_nonpositive_warps(self):
        with pytest.raises(ValueError, match="warps"):
            KernelSpec("bad", warps_per_sm=0)


class TestGeneration:
    def test_deterministic_given_seed(self):
        spec = KernelSpec("det", body_length=200)
        a = build_warps(spec, seed=5)
        b = build_warps(spec, seed=5)
        for wa, wb in zip(a, b):
            assert [i.op for i in wa.instructions] == [i.op for i in wb.instructions]

    def test_different_seeds_differ(self):
        spec = KernelSpec("det", body_length=200)
        a = build_warps(spec, seed=5)
        b = build_warps(spec, seed=6)
        assert any(
            [i.op for i in wa.instructions] != [i.op for i in wb.instructions]
            for wa, wb in zip(a, b)
        )

    def test_warp_count_follows_spec(self):
        spec = KernelSpec("count", warps_per_sm=7, body_length=50)
        assert len(build_warps(spec, 0)) == 7
        assert len(build_warps(spec, 0, num_warps=3)) == 3

    def test_mix_respected_statistically(self):
        spec = KernelSpec(
            "mixy",
            mix={InstructionClass.LOAD: 0.5, InstructionClass.FALU: 0.5},
            body_length=4000,
        )
        warps = build_warps(spec, 1, num_warps=1)
        ops = [i.op for i in warps[0].instructions]
        load_fraction = ops.count(InstructionClass.LOAD) / len(ops)
        assert load_fraction == pytest.approx(0.5, abs=0.05)

    def test_jitter_varies_stream_length(self):
        spec = KernelSpec("jit", body_length=1000)
        warps = build_warps(spec, 2, jitter=0.2)
        lengths = {len(w.instructions) for w in warps}
        assert len(lengths) > 1

    def test_zero_jitter_uniform_lengths(self):
        spec = KernelSpec("uni", body_length=500)
        warps = build_warps(spec, 2, jitter=0.0)
        assert {len(w.instructions) for w in warps} == {500}

    def test_jitter_range_validated(self):
        spec = KernelSpec("jit")
        with pytest.raises(ValueError, match="jitter"):
            build_warps(spec, 0, jitter=1.0)

    def test_stores_and_branches_have_no_dest(self):
        spec = KernelSpec(
            "stores",
            mix={InstructionClass.STORE: 0.5, InstructionClass.BRANCH: 0.5},
            body_length=100,
        )
        warps = build_warps(spec, 3, num_warps=1)
        assert all(i.dest == -1 for i in warps[0].instructions)

    def test_phase_structure_boosts_memory(self):
        spec = KernelSpec(
            "phased",
            mix={InstructionClass.LOAD: 0.1, InstructionClass.FALU: 0.9},
            body_length=4000,
            phase_period=500,
            phase_memory_boost=3.0,
        )
        warps = build_warps(spec, 4, num_warps=1)
        ops = [i.op for i in warps[0].instructions]
        compute_phase = ops[:500]
        memory_phase = ops[500:1000]
        compute_loads = compute_phase.count(InstructionClass.LOAD)
        memory_loads = memory_phase.count(InstructionClass.LOAD)
        assert memory_loads > 3 * compute_loads


class TestBlockStreams:
    """Compiled launches against the per-warp oracle."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_paper_kernels_match_the_per_warp_oracle(self, name):
        bench = get_benchmark(name)
        spec = bench.kernel
        for seed in range(5):
            gpu = GPU(spec, seed=seed, miss_ratio=bench.miss_ratio,
                      jitter=bench.jitter)
            for generation in range(4):
                if generation:
                    gpu.engine._load_generation(generation)
                assert_launch_matches(
                    gpu, generation, seed + 7919 * generation,
                    [seed * 65_537 + sm_id + 1 + 7919 * generation
                     for sm_id in range(16)],
                )

    @given(
        spec=kernel_specs,
        body=st.integers(1, 41),
        warps=st.integers(1, 40),
        seed=st.integers(0, 2**31),
        jitter=st.sampled_from([0.0, 0.1, 0.5, 0.99]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_specs_match_the_per_warp_oracle(
        self, spec, body, warps, seed, jitter
    ):
        """Odd and even bodies down to one instruction: an odd body
        leaves half an ``integers`` draw buffered between warps."""
        spec = dataclasses.replace(spec, body_length=body, warps_per_sm=warps)
        gpu = GPU(spec, seed=seed, jitter=jitter)
        assert_launch_matches(
            gpu, 0, seed, [seed * 65_537 + sm_id + 1 for sm_id in range(16)]
        )

    def test_stream_caches_key_the_mix_in_order(self, monkeypatch):
        """The draws map uniforms to classes in the mix's insertion
        order, so the same mix in another order is another stream — in
        the compiled launch and in the per-object oracle's cache."""
        monkeypatch.setattr(per_object_gpu, "_STREAM_CACHE", {})
        falu, load = InstructionClass.FALU, InstructionClass.LOAD
        falu_first = KernelSpec("k", mix={falu: 0.5, load: 0.5},
                                body_length=64, warps_per_sm=4)
        load_first = KernelSpec("k", mix={load: 0.5, falu: 0.5},
                                body_length=64, warps_per_sm=4)

        def ops(spec):
            return [[i.op for i in w.instructions] for w in build_warps(spec, 3)]

        def units(spec):
            return GPU(spec, seed=3).engine._streams.unit.copy()

        cold_units = units(load_first)
        cold_ops = ops(load_first)
        assert not np.array_equal(units(falu_first), cold_units)
        assert ops(falu_first) != cold_ops
        assert np.array_equal(units(load_first), cold_units)
        assert ops(load_first) == cold_ops
