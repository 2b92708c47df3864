"""The compiled kernel launch against the per-warp stream oracle.

A GPU engine launch is one call into the native library
(``engine_launch``): Python packs the generation's integer seeds, and
the C code seeds its own PCG64s from them as NumPy's ``SeedSequence``
and ``PCG64`` do, draws every warp's stream and every SM's jittered
lengths through NumPy's own Generator routines, hashes the site miss
table and resets the warps.  ``tests/oracles/stream_reference.py``
keeps the Python builders it must equal: every stream column, length
and miss-table entry, and every generator's state after the launch —
PCG64 included with the 32-bit half an odd-length ``integers`` call
leaves buffered.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.gpu import GPU
from repro.gpu.engine import _NEVER, pack_seeds
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


def state_words(bit_generator: np.random.PCG64) -> list:
    """A PCG64's state as the launch writes a generator's end state:
    state and inc as (high, low) 64-bit words, then ``has_uint32`` and
    ``uinteger``."""
    state = bit_generator.state
    words = []
    for name in ("state", "inc"):
        value = state["state"][name]
        words += [value >> 64, value & (2**64 - 1)]
    return words + [state["has_uint32"], state["uinteger"]]


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
        stream_seed=st.integers(0, 2**140),
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
    @example(  # a four-word stream seed padded beside wider jitter seeds
        spec=KernelSpec("wide", body_length=4, warps_per_sm=3),
        gpu_seed=1, stream_seed=2**128 - 2, jitter=0.3,
        per_sm_jitter_seeds=True, generation=2, miss=0.3, steps=3,
    )
    @settings(max_examples=80, deadline=None)
    def test_launch_equals_the_python_builders(
        self, spec, gpu_seed, stream_seed, jitter, per_sm_jitter_seeds,
        generation, miss, steps,
    ):
        """Streams, lengths, miss table, generator end states and warp
        resets, on an engine that has stepped (loads in flight); with
        ``per_sm_jitter_seeds`` false the jitter generators are seeded
        as ``jitter_seed=None`` seeds them, with the stream seed.  With
        jitter 0 no length is drawn and the stream seed is the only
        one."""
        gpu = GPU(spec, seed=gpu_seed, miss_ratio=miss, jitter=jitter)
        for _ in range(steps):
            gpu.step()
        engine = gpu.engine
        jitter_seeds = [
            stream_seed * 3 + sm if per_sm_jitter_seeds else None
            for sm in range(engine.num_sms)
        ]
        seeds = [stream_seed]
        if jitter > 0:
            seeds += [stream_seed if s is None else s for s in jitter_seeds]
        end_states = np.zeros((len(seeds), 6), dtype=np.uint64)
        engine._launch(generation, seeds, end_states)

        ref_streams = np.random.default_rng(stream_seed)
        ref_jitter = [
            np.random.default_rng(stream_seed if s is None else s)
            for s in jitter_seeds
        ]
        assert_launch_matches(gpu, generation, ref_streams, ref_jitter)
        refs = [ref_streams] + (ref_jitter if jitter > 0 else [])
        for row, ref in zip(end_states.tolist(), refs):
            assert row == state_words(ref.bit_generator)

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


def c_seeded_state(seed: int) -> list:
    """The state the native library seeds a PCG64 in from ``seed``,
    packed as a launch packs its seeds."""
    packed, nbytes = pack_seeds([seed])
    out = np.zeros(6, dtype=np.uint64)
    native.load().pcg64_seed_state(packed, nbytes, out.ctypes.data)
    return out.tolist()


class TestSeeding:
    """The launch's generators start where ``np.random.PCG64(seed)``
    does: SeedSequence's entropy mixing (words past the four-word pool
    included) and PCG64's ``set_seed``."""

    @given(seed=st.one_of(
        st.integers(0, 2**32), st.integers(0, 2**64 + 5),
        st.integers(0, 2**130), st.integers(2**127, 2**200),
    ))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**64 - 1)
    @example(seed=2**64)
    @example(seed=2**128 - 1)
    @example(seed=2**128)
    @example(seed=2**160)
    @settings(max_examples=200, deadline=None)
    def test_c_seeding_equals_numpys(self, seed):
        assert c_seeded_state(seed) == state_words(np.random.PCG64(seed))

    def test_padding_past_the_pool_is_dropped(self):
        """Launches on seeds either side of 2**128 draw as NumPy's
        generators do, and a launch pads every seed to the widest one's
        words: the zero words above a seed's top word change nothing."""
        small, big = 2**40 + 3, 2**200 + 1
        engine = GPU(KernelSpec("pad", body_length=5, warps_per_sm=2)).engine
        end_states = np.zeros((1, 6), dtype=np.uint64)
        for seed in (small, big):
            engine._launch(0, [seed], end_states)
            ref = np.random.default_rng(seed)
            stream_reference.stream_arrays(engine.kernel, ref, 2)
            assert end_states[0].tolist() == state_words(ref.bit_generator)
        packed, nbytes = pack_seeds([small, big])
        assert nbytes == 28
        out = np.zeros(6, dtype=np.uint64)
        native.load().pcg64_seed_state(packed, nbytes, out.ctypes.data)
        assert out.tolist() == state_words(np.random.PCG64(small))

    def test_negative_seeds_raise_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.PCG64(-1)
        with pytest.raises(ValueError, match="non-negative"):
            GPU(KernelSpec("neg", body_length=4, warps_per_sm=2), seed=-1)
        engine = GPU(KernelSpec("neg", body_length=4, warps_per_sm=2)).engine
        with pytest.raises(ValueError, match="non-negative"):
            engine._launch(1, [-3])

    def test_a_launch_builds_no_numpy_generator(self, monkeypatch):
        """Building a GPU (its first launch) and ten relaunches never
        reach NumPy's seeding."""

        def refuse(*args, **kwargs):
            raise AssertionError("a launch built a NumPy generator")

        monkeypatch.setattr(np.random, "PCG64", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        spec = KernelSpec("nonumpy", body_length=9, warps_per_sm=3)
        gpu = GPU(spec, seed=5, miss_ratio=0.3, jitter=0.2)
        for generation in range(1, 11):
            gpu.engine._load_generation(generation)
        assert gpu.engine.generation == 10
        assert (gpu.engine.stat_kernels == 10).all()
