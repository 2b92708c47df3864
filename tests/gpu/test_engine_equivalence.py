"""Equivalence contract of the GPU engine (property-based).

The struct-of-arrays engine (``repro.gpu.engine``) must be
*bit-identical* to the per-object oracle
(``tests/oracles/per_object_gpu.py``) for the same seed — power traces,
statistics, kernel-launch accounting and shared-memory counters — under
any kernel shape, actuation schedule, DFS setting, power gating
sequence, GTO or GATES warp selection and fault scenario.  These tests
drive both implementations side by side through randomized schedules
(hypothesis) and through each canned cross-layer fault scenario.  The
compiled step also keeps per-warp readiness caches and a per-SM
live-warp count, checked here against a full recomputation after every
step, and the power-gating controller's demand query is checked against
the oracle's warp scan.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.config import SystemConfig
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu.engine import _FAR, MAX_WARPS_PER_SM
from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import _NUM_REGS, KernelSpec
from repro.sim.cosim import CosimConfig, run_cosim
from repro.workloads.benchmarks import get_benchmark
from tests.oracles import stream_reference
from tests.oracles.per_object_gpu import PerObjectGPU
from tests.oracles.serial_cosim import run_cosim_reference

STAT_FIELDS = (
    "cycles",
    "active_cycles",
    "instructions_issued",
    "fake_instructions",
    "issue_stall_cycles",
    "kernels_completed",
)


def _assert_equivalent(ref: PerObjectGPU, vec, cycles: int, actuate=None) -> None:
    """Step ``ref`` and ``vec`` (one GPU or a list) in lock-step."""
    vecs = vec if isinstance(vec, list) else [vec]
    for cycle in range(cycles):
        if actuate is not None:
            for gpu in [ref] + vecs:
                actuate(gpu, cycle)
        pr = ref.step()
        for gpu in vecs:
            pv = gpu.step()
            assert np.array_equal(pr, pv), f"power trace diverged at cycle {cycle}"
    for vec in vecs:
        for ref_sm, vec_sm in zip(ref.sms, vec.sms):
            for field in STAT_FIELDS:
                assert getattr(ref_sm.stats, field) == getattr(vec_sm.stats, field)
        assert ref.kernels_launched == vec.kernels_launched
        assert ref.kernel_launch_cycles == vec.kernel_launch_cycles
        assert ref.total_instructions() == vec.total_instructions()
        assert ref.total_fake_instructions() == vec.total_fake_instructions()
        assert ref.memory.requests_served == vec.memory.requests_served
        assert ref.memory.misses == vec.memory.misses


def _halting_schedule(rng: np.random.Generator, cycles: int, events: int):
    """Random issue widths, DFS scales and gating flips, plus a
    barrier-exempt set that changes over the run; half of it is halted
    (issue width 0).  Launches then fire while exempt SMs still have
    loads in flight — on every cycle while all 16 are exempt."""
    plan = {}
    for c in rng.integers(0, cycles, events):
        size = 16 if rng.random() < 0.25 else int(rng.integers(0, 16))
        exempt = rng.permutation(16)[:size]
        widths = rng.uniform(0.0, 2.4, 16)
        widths[exempt[: len(exempt) // 2]] = 0.0
        plan[int(c)] = (
            widths,
            rng.uniform(0.3, 1.0, 16) if rng.random() < 0.3 else None,
            int(rng.integers(0, 16)),
            ExecUnit(list(ExecUnit)[int(rng.integers(0, 3))]),
            bool(rng.integers(0, 2)),
            set(exempt.tolist()),
        )

    def actuate(gpu, cycle):
        if cycle not in plan:
            return
        widths, freqs, sm, unit, gate, exempt = plan[cycle]
        gpu.barrier_exempt = exempt
        gpu.set_issue_widths(widths)
        if freqs is not None:
            gpu.set_frequency_scales(freqs)
        if gate:
            gpu.sms[sm].gate_unit(unit)
        else:
            gpu.sms[sm].ungate_unit(unit, cycle)

    return actuate


kernel_specs = st.builds(
    KernelSpec,
    name=st.just("prop"),
    mix=st.fixed_dictionaries(
        {
            InstructionClass.FALU: st.floats(0.05, 1.0),
            InstructionClass.IALU: st.floats(0.05, 1.0),
            InstructionClass.SFU: st.floats(0.0, 0.5),
            InstructionClass.LOAD: st.floats(0.0, 0.6),
            InstructionClass.STORE: st.floats(0.0, 0.3),
        }
    ),
    dependence=st.floats(0.0, 1.0),
    warps_per_sm=st.integers(1, 12),
    body_length=st.integers(8, 160),
    phase_period=st.sampled_from([0, 40, 150]),
    phase_memory_boost=st.floats(0.0, 1.5),
)


class TestRandomizedEquivalence:
    @given(
        spec=kernel_specs,
        seed=st.integers(0, 2**31),
        jitter=st.sampled_from([0.0, 0.1, 0.25]),
        miss=st.floats(0.0, 0.9),
        cycles=st.integers(60, 350),
    )
    @settings(max_examples=20, deadline=None)
    def test_kernel_space(self, spec, seed, jitter, miss, cycles):
        ref = PerObjectGPU(spec, seed=seed, miss_ratio=miss, jitter=jitter)
        vec = GPU(spec, seed=seed, miss_ratio=miss, jitter=jitter)
        _assert_equivalent(ref, vec, cycles)

    @given(
        seed=st.integers(0, 2**31),
        sched_seed=st.integers(0, 2**31),
        cycles=st.integers(150, 400),
        gating_aware=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_actuation_dfs_and_gating(self, seed, sched_seed, cycles,
                                      gating_aware):
        """Random per-cycle DIWS/FII/DFS commands, gating flips,
        barrier-exempt (halted) SM sets and GATES active-unit sets,
        under GTO or GATES.  The active sets are drawn independently of
        the gated sets: the engine must select on the set last written,
        never on the live gating state."""
        spec = KernelSpec(
            "sched", body_length=120, warps_per_sm=6,
            mix={
                InstructionClass.FALU: 0.4,
                InstructionClass.IALU: 0.2,
                InstructionClass.SFU: 0.15,
                InstructionClass.LOAD: 0.2,
                InstructionClass.STORE: 0.05,
            },
        )
        rng = np.random.default_rng(sched_seed)
        units = list(ExecUnit)
        events = {
            int(c): (
                rng.uniform(0.0, 2.4, 16),
                rng.uniform(0.0, 2.0, 16),
                rng.uniform(0.05, 1.0, 16),
                int(rng.integers(0, 16)),
                units[int(rng.integers(0, 3))],
                bool(rng.integers(0, 2)),
                set(rng.choice(16, int(rng.integers(0, 6)), replace=False)),
                [
                    (int(sm), [u for u in units if rng.random() < 0.5])
                    for sm in rng.choice(16, int(rng.integers(0, 8)),
                                         replace=False)
                ],
            )
            for c in rng.integers(0, cycles, 12)
        }

        def actuate(gpu, cycle):
            if cycle not in events:
                return
            (widths, fakes, freqs, sm, unit, gate, exempt,
             active) = events[cycle]
            gpu.barrier_exempt = {int(s) for s in exempt}
            gpu.set_issue_widths(widths)
            gpu.set_fake_rates(fakes)
            gpu.set_frequency_scales(freqs)
            if gate:
                gpu.sms[sm].gate_unit(unit)
            else:
                gpu.sms[sm].ungate_unit(unit, cycle)
            for active_sm, active_units in active:
                gpu.sms[active_sm].set_active_units(active_units)

        ref = PerObjectGPU(spec, seed=seed, miss_ratio=0.3,
                           gating_aware_scheduler=gating_aware)
        vec = GPU(spec, seed=seed, miss_ratio=0.3,
                  gating_aware_scheduler=gating_aware)
        _assert_equivalent(ref, vec, cycles, actuate)

    @given(
        warps=st.integers(13, 40),
        body=st.integers(9, 40),
        seed=st.integers(0, 2**31),
        sched_seed=st.integers(0, 2**31),
        jitter=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=8, deadline=None)
    def test_paper_warp_counts_with_halts(
        self, warps, body, seed, sched_seed, jitter
    ):
        """The warp counts the paper kernels run (bfs 32, scalarprod and
        simpleatomic 20, pathfinder and fastwalsh 16) under random issue
        widths and halted sets that change across launches: the compiled
        step against the per-object reference."""
        spec = KernelSpec("wide", body_length=body, warps_per_sm=warps)
        cycles = 320
        actuate = _halting_schedule(np.random.default_rng(sched_seed), cycles, 8)

        kwargs = dict(seed=seed, miss_ratio=0.5, jitter=jitter)
        _assert_equivalent(PerObjectGPU(spec, **kwargs), GPU(spec, **kwargs),
                           cycles, actuate)


def _recomputed_caches(engine, streams):
    """Head caches, live counts and done flags from scratch over the
    generation's oracle ``streams``: ``(ready_cycle, head_unit, live,
    done)``.  A warp's head is its instruction at ``pc`` (a
    jitter-lengthened stream wraps to its own head; a done warp's index
    is clamped into the body), its readiness the latest ready-at of the
    registers that instruction writes and reads, and a done warp is
    never ready."""
    st = streams
    pc = engine._pc
    done = pc >= engine._length
    body = st.body_length
    eff = np.minimum(np.where(pc >= body, pc - body, pc), body - 1)
    s_idx = np.arange(engine.num_sms)[:, None]
    w_idx = np.arange(engine.num_warps)[None, :]
    ra = engine._ready_at
    ready = np.maximum(
        np.maximum(
            ra[s_idx, w_idx, st.dest_col[w_idx, eff]],
            ra[s_idx, w_idx, st.src1_col[w_idx, eff]],
        ),
        ra[s_idx, w_idx, st.src2_col[w_idx, eff]],
    )
    live = (~done | (engine._outstanding != 0)).sum(axis=1)
    return np.where(done, _FAR, ready), st.unit[w_idx, eff], live, done


class TestCompiledHeadCaches:
    @given(
        warps=st.integers(1, 40),
        body=st.integers(5, 60),
        seed=st.integers(0, 2**31),
        sched_seed=st.integers(0, 2**31),
    )
    @settings(max_examples=12, deadline=None)
    def test_caches_match_a_full_recompute(self, warps, body, seed, sched_seed):
        """After every compiled step the head caches and live counts
        equal a recomputation from the PCs, scoreboards and counts —
        under DIWS, DFS, gating, halts and launches with loads in
        flight (jitter 0.9 makes streams wrap past their body)."""
        spec = KernelSpec("caches", body_length=body, warps_per_sm=warps)
        gpu = GPU(spec, seed=seed, miss_ratio=0.6, jitter=0.9)
        engine = gpu.engine
        assert engine.backend == "c"
        cycles = 400
        actuate = _halting_schedule(np.random.default_rng(sched_seed), cycles, 10)
        streams = {}
        for cycle in range(cycles):
            actuate(gpu, cycle)
            gpu.step()
            generation = engine.generation
            if generation not in streams:
                streams[generation] = stream_reference.stream_arrays(
                    spec, seed + 7919 * generation, warps
                )
            ready, unit, live, done = _recomputed_caches(
                engine, streams[generation]
            )
            assert np.array_equal(engine._warp_done, done), cycle
            assert np.array_equal(engine._ready_cycle, ready), cycle
            assert np.array_equal(engine._head_unit, unit), cycle
            assert np.array_equal(engine._live, live), cycle
            assert (engine._outstanding >= 0).all(), cycle


class TestDemandQuery:
    @given(
        seed=st.integers(0, 2**31),
        sched_seed=st.integers(0, 2**31),
        jitter=st.sampled_from([0.1, 0.25]),
    )
    @settings(max_examples=6, deadline=None)
    def test_has_demand_matches_the_oracle_scan(self, seed, sched_seed,
                                                jitter):
        """``has_demand`` (read off the engine's head caches) equals the
        oracle SM's ``peek()`` scan for every SM and unit on every
        cycle, across kernel launches, jittered tails and random issue
        widths and clock scales."""
        spec = KernelSpec(
            "demand", body_length=16, warps_per_sm=4,
            mix={
                InstructionClass.FALU: 0.6,
                InstructionClass.SFU: 0.2,
                InstructionClass.LOAD: 0.2,
            },
        )
        kwargs = dict(seed=seed, miss_ratio=0.2, jitter=jitter)
        ref, vec = PerObjectGPU(spec, **kwargs), GPU(spec, **kwargs)
        rng = np.random.default_rng(sched_seed)
        cycles = 1200  # the slowest seeds first relaunch near cycle 1,000
        plan = {
            int(c): (rng.uniform(1.0, 2.0, 16), rng.uniform(0.75, 1.0, 16))
            for c in rng.integers(0, cycles, 6)
        }
        for cycle in range(cycles):
            if cycle in plan:
                for gpu in (ref, vec):
                    gpu.set_issue_widths(plan[cycle][0])
                    gpu.set_frequency_scales(plan[cycle][1])
            for ref_sm, vec_sm in zip(ref.sms, vec.sms):
                for unit in ExecUnit:
                    assert vec_sm.has_demand(unit) == ref_sm.has_demand(unit), (
                        cycle, ref_sm.sm_id, unit,
                    )
            assert np.array_equal(ref.step(), vec.step()), cycle
        assert vec.kernels_launched >= 2


class TestFaultScenarioEquivalence:
    """Whole-loop equivalence under each canned cross-layer fault: the
    engine in the shipped loop against the per-object oracle in the
    serial oracle loop."""

    @pytest.mark.parametrize("scenario", sorted(CANNED_SCENARIOS))
    def test_cosim_fault_scenario(self, scenario):
        config = CosimConfig(
            cycles=900,
            warmup_cycles=100,
            faults=CANNED_SCENARIOS[scenario](),
        )
        vec = run_cosim("hotspot", config=config)
        ref = run_cosim_reference("hotspot", config=config,
                                  per_object_gpu=True)
        assert np.array_equal(vec.power_trace.data, ref.power_trace.data)
        assert np.array_equal(vec.sm_voltages, ref.sm_voltages)
        assert vec.instructions == ref.instructions
        assert vec.fake_instructions == ref.fake_instructions
        assert vec.throttled_cycles == ref.throttled_cycles
        assert vec.kernels_completed == ref.kernels_completed


class TestEngineSurface:
    def test_setter_prefix_semantics_on_bad_frequency(self):
        """A bad frequency scale raises after applying earlier SMs
        (the reference's zip-iteration semantics)."""
        gpu = GPU(KernelSpec("prefix", body_length=40))
        scales = np.full(16, 0.5)
        scales[10] = -1.0
        with pytest.raises(ValueError):
            gpu.set_frequency_scales(scales)
        assert gpu.sms[9].frequency_scale == 0.5
        assert gpu.sms[11].frequency_scale == 1.0

    def test_nan_issue_width_clamps_to_zero(self):
        ref = PerObjectGPU(KernelSpec("nan", body_length=40))
        vec = GPU(KernelSpec("nan", body_length=40))
        for gpu in (ref, vec):
            gpu.set_issue_widths(np.full(16, np.nan))
        assert (
            ref.sms[0].issue_width_setting
            == vec.sms[0].issue_width_setting
            == 0.0
        )

    def test_compiled_actuation_matches_the_setters(self):
        """engine_actuate (the cycle kernel's apply stage) leaves the
        bytes set_issue_widths / set_fake_rates leave after the halted
        SMs' widths are zeroed: _clamp02 turns NaN, -0.0, negatives and
        -inf into 0.0 and caps 2.5 and +inf at 2.0."""
        special = [np.nan, -0.0, 0.0, -1.5, 0.7, 1.999, 2.0, 2.5, np.inf,
                   -np.inf, 5e-324, -5e-324, 1.0, np.nan, -0.0, 3.0]
        rng = np.random.default_rng(3)
        for widths in (np.array(special), rng.uniform(-3.0, 3.0, 16)):
            fakes = widths[::-1].copy()
            halted = np.zeros(16, dtype=np.uint8)
            halted[[0, 3, 8, 15]] = 1
            spec = KernelSpec("actuate", body_length=40)
            ref, vec = (GPU(spec) for _ in range(2))
            zeroed = widths.copy()
            zeroed[halted.astype(bool)] = 0.0
            ref.set_issue_widths(zeroed)
            ref.set_fake_rates(fakes)
            vec.set_issue_widths(np.full(16, 1.25))
            vec.set_fake_rates(np.full(16, 0.5))
            assert native.load().engine_actuate(
                vec.engine._cstate_ptr, widths.ctypes.data,
                fakes.ctypes.data, halted.ctypes.data,
            ) == 0
            for name in ("issue_width", "fake_rate"):
                written = getattr(vec.engine, name)
                assert written.tobytes() == (
                    getattr(ref.engine, name).tobytes()
                ), name
                assert not np.signbit(written).any(), name

    def test_too_many_warps_are_rejected_up_front(self):
        """The C engine packs a warp index into 16 bits of its heap
        keys: a kernel with more warps per SM is refused before any
        per-warp array is allocated."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(MAX_WARPS_PER_SM)):
            GPU(KernelSpec("huge", body_length=8, warps_per_sm=1 << 16))
        assert time.perf_counter() - start < 1.0
        assert MAX_WARPS_PER_SM == 65_535

    def test_pending_load_heap_is_sized_to_its_bound(self):
        """A heap holds at most one load per (warp, register): a warp
        cannot issue while a register its head instruction reads or
        writes has a load in flight, and a launch empties the heaps.
        bfs, the most load-heavy benchmark at 32 warps, steps three
        kernel generations without overflowing it, and a warp keeps
        more than one load in flight at its peak."""
        spec = get_benchmark("bfs")
        gpu = GPU(spec.kernel, seed=1, miss_ratio=spec.miss_ratio,
                  jitter=spec.jitter)
        engine = gpu.engine
        assert engine.num_warps == 32
        assert engine._cheap.shape == (gpu.num_sms, 32 * _NUM_REGS)
        assert engine._cstate.heap_cap == 32 * _NUM_REGS
        peak = 0
        while engine.generation < 3:
            gpu.step()
            peak = max(peak, int(engine._cheap_len.max()))
        assert peak > engine.num_warps

    def test_gated_units_view(self):
        gpu = GPU(KernelSpec("gate", body_length=40))
        gpu.sms[2].gate_unit(ExecUnit.SFU)
        assert gpu.sms[2].gated_units == {ExecUnit.SFU}
        gpu.sms[2].ungate_unit(ExecUnit.SFU, 10)
        assert gpu.sms[2].gated_units == set()

    def test_totals_are_o1_counters(self):
        gpu = GPU(KernelSpec("tot", body_length=60))
        gpu.run(200)
        engine = gpu.engine
        assert gpu.total_instructions() == int(engine.stat_instructions.sum())
        assert gpu.total_fake_instructions() == int(engine.stat_fakes.sum())
