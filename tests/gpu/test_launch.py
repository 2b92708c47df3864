"""The compiled kernel launch against the per-warp stream oracle.

A GPU engine launch is one call into the native library
(``engine_launch``): Python seeds the bit generators, and the C code
draws every warp's stream and every SM's jittered lengths through
NumPy's own Generator routines, hashes the site miss table and resets
the warps.  ``tests/oracles/stream_reference.py`` keeps the Python
builders it must equal: every stream column, length and miss-table
entry, and every generator's state after the launch — PCG64 included
with the 32-bit half an odd-length ``integers`` call leaves buffered.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.gpu import GPU
from repro.gpu.engine import _NEVER
from repro.gpu.isa import InstructionClass
from repro.gpu.kernels import KernelSpec, StreamArrays
from tests.oracles import stream_reference

#: Every column a launch writes, as the engine's step reads them.
COLUMNS = ("unit", "latency", "span", "share", "is_load", "dest",
           "dest_col", "src1_col", "src2_col")

_CLASSES = [c for c in InstructionClass if c is not InstructionClass.FAKE]


def launched_miss_table(engine) -> np.ndarray:
    """The engine's site miss table of its last launch, ``(warps,
    longest stream + 1)``."""
    width = engine._cstate.max_pc
    return engine._miss_buf[: engine.num_warps * width].reshape(
        engine.num_warps, width
    )


def assert_same_streams(got: StreamArrays, want: StreamArrays) -> None:
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.flags.c_contiguous, name  # the C step reads it raw
        assert a.tobytes() == b.tobytes(), name


def assert_launch_matches(gpu, generation: int, stream_seed: int,
                          jitter_seeds) -> None:
    """The engine's last launch equals the oracle's builders from
    ``default_rng`` generators of the same seeds."""
    engine, spec = gpu.engine, gpu.kernel
    warps = spec.warps_per_sm
    assert_same_streams(
        engine._streams,
        stream_reference.stream_arrays(spec, stream_seed, warps),
    )
    for sm, jitter_seed in enumerate(jitter_seeds):
        want = stream_reference.jittered_lengths(
            spec, warps, engine.jitter, jitter_seed, stream_seed
        )
        assert engine._length[sm].tobytes() == want.tobytes(), sm
    want = stream_reference.site_miss_table(
        gpu.memory, warps, int(engine._length.max()) + 1, generation
    )
    got = launched_miss_table(engine)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def launch_specs(draw):
    """Kernel specs over every launch branch: random class subsets in
    random mix orders, memory phases on and off, dependence at its
    ends, odd bodies down to one instruction, 1-64 warps."""
    classes = draw(st.permutations(_CLASSES))[: draw(st.integers(1, 7))]
    mix = {
        c: draw(st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]))
        for c in classes
    }
    if sum(mix.values()) <= 0:
        mix[classes[0]] = 1.0
    phased = draw(st.booleans())
    return KernelSpec(
        "launch",
        mix=mix,
        dependence=draw(st.sampled_from([0.0, 1.0, 0.35])),
        warps_per_sm=draw(st.integers(1, 64)),
        body_length=draw(st.integers(1, 41)),
        phase_period=draw(st.integers(1, 12)) if phased else 0,
        phase_memory_boost=draw(st.sampled_from([0.0, 0.7, 3.0])),
    )


class TestCompiledLaunch:
    @given(
        spec=launch_specs(),
        gpu_seed=st.integers(0, 2**70),
        stream_seed=st.integers(0, 2**70),
        jitter=st.sampled_from([0.0, 0.01, 0.3, 0.99]),
        per_sm_jitter_seeds=st.booleans(),
        generation=st.integers(0, 5),
        miss=st.sampled_from([0.0, 0.3, 1.0]),
        steps=st.integers(0, 40),
    )
    @example(
        spec=KernelSpec("odd", body_length=3, warps_per_sm=5),
        gpu_seed=2**33, stream_seed=2**40 + 1, jitter=0.2,
        per_sm_jitter_seeds=True, generation=5, miss=0.3, steps=7,
    )
    @settings(max_examples=80, deadline=None)
    def test_launch_equals_the_python_builders(
        self, spec, gpu_seed, stream_seed, jitter, per_sm_jitter_seeds,
        generation, miss, steps,
    ):
        """Streams, lengths, miss table, generator states and warp
        resets, on an engine that has stepped (loads in flight); with
        ``per_sm_jitter_seeds`` false the jitter generators are seeded
        as ``jitter_seed=None`` seeds them, with the stream seed.  With
        jitter 0 no length is drawn: the jitter generators stay
        untouched."""
        gpu = GPU(spec, seed=gpu_seed, miss_ratio=miss, jitter=jitter)
        for _ in range(steps):
            gpu.step()
        engine = gpu.engine
        jitter_seeds = [
            stream_seed * 3 + sm if per_sm_jitter_seeds else None
            for sm in range(engine.num_sms)
        ]
        streams = np.random.PCG64(stream_seed)
        jitter_rngs = [
            np.random.PCG64(stream_seed if s is None else s)
            for s in jitter_seeds
        ]
        engine._launch(generation, streams, jitter_rngs)

        ref_streams = np.random.default_rng(stream_seed)
        ref_jitter = [
            np.random.default_rng(stream_seed if s is None else s)
            for s in jitter_seeds
        ]
        assert_launch_matches(gpu, generation, ref_streams, ref_jitter)
        assert streams.state == ref_streams.bit_generator.state
        for rng, ref in zip(jitter_rngs, ref_jitter):
            assert rng.state == ref.bit_generator.state
        if jitter == 0:
            assert all(
                rng.state == np.random.PCG64(rng_seed).state
                for rng, rng_seed in zip(
                    jitter_rngs,
                    [stream_seed if s is None else s for s in jitter_seeds],
                )
            )

        assert engine.generation == generation
        assert (engine._pc == 0).all()
        assert (engine._outstanding == 0).all()
        assert (engine._ready_at == _NEVER).all()
        assert not engine._warp_done.any()
        assert (engine._ready_cycle == _NEVER).all()
        assert (engine._head_unit == engine._streams.unit[:, 0]).all()
        assert (engine._live == spec.warps_per_sm).all()
        assert (engine._cheap_len == 0).all()
        assert (engine._last_warp == -1).all()
        assert not engine._done_buf.any()

    def test_relaunches_seed_each_generation(self):
        """The production path: ``_load_generation`` seeds generation
        g's streams with ``seed + 7919 g`` and SM s's jitter with
        ``seed * 65537 + s + 1 + 7919 g``."""
        spec = KernelSpec("gens", body_length=33, warps_per_sm=7)
        seed = 2**36 + 5
        gpu = GPU(spec, seed=seed, miss_ratio=0.4, jitter=0.3)
        for generation in range(4):
            if generation:
                gpu.engine._load_generation(generation)
            assert_launch_matches(
                gpu, generation, seed + 7919 * generation,
                [seed * 65_537 + sm + 1 + 7919 * generation
                 for sm in range(16)],
            )
        assert (gpu.engine.stat_kernels == 3).all()
