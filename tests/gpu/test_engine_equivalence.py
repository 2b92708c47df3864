"""Equivalence contract of the vectorized GPU engine (property-based).

The struct-of-arrays engine (``repro.gpu.engine``) must be
*bit-identical* to the per-object reference SMs for the same seed —
power traces, statistics, kernel-launch accounting and shared-memory
counters — under any kernel shape, actuation schedule, DFS setting,
power gating sequence and fault scenario.  These tests drive both
implementations side by side through randomized schedules (hypothesis)
and through each canned cross-layer fault scenario.  The compiled step
also keeps per-warp readiness caches and a per-SM live-warp count,
checked here against a full recomputation after every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu.engine import _FAR
from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.sim.cosim import CosimConfig, run_cosim
from tests.conftest import forced_fallback
from tests.oracles.serial_cosim import run_cosim_reference

STAT_FIELDS = (
    "cycles",
    "active_cycles",
    "instructions_issued",
    "fake_instructions",
    "issue_stall_cycles",
    "kernels_completed",
)


def _assert_equivalent(ref: GPU, vec, cycles: int, actuate=None) -> None:
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
        ref = GPU(spec, seed=seed, miss_ratio=miss, jitter=jitter,
                  vectorized=False)
        vec = GPU(spec, seed=seed, miss_ratio=miss, jitter=jitter,
                  vectorized=True)
        _assert_equivalent(ref, vec, cycles)

    @given(
        seed=st.integers(0, 2**31),
        sched_seed=st.integers(0, 2**31),
        cycles=st.integers(150, 400),
    )
    @settings(max_examples=15, deadline=None)
    def test_actuation_dfs_and_gating(self, seed, sched_seed, cycles):
        """Random per-cycle DIWS/FII/DFS commands, gating flips and
        barrier-exempt (halted) SM sets."""
        spec = KernelSpec("sched", body_length=120, warps_per_sm=6)
        rng = np.random.default_rng(sched_seed)
        events = {
            int(c): (
                rng.uniform(0.0, 2.4, 16),
                rng.uniform(0.0, 2.0, 16),
                rng.uniform(0.05, 1.0, 16),
                int(rng.integers(0, 16)),
                ExecUnit(list(ExecUnit)[int(rng.integers(0, 3))]),
                bool(rng.integers(0, 2)),
                set(rng.choice(16, int(rng.integers(0, 6)), replace=False)),
            )
            for c in rng.integers(0, cycles, 12)
        }

        def actuate(gpu, cycle):
            if cycle not in events:
                return
            widths, fakes, freqs, sm, unit, gate, exempt = events[cycle]
            gpu.barrier_exempt = {int(s) for s in exempt}
            gpu.set_issue_widths(widths)
            gpu.set_fake_rates(fakes)
            gpu.set_frequency_scales(freqs)
            if gate:
                gpu.sms[sm].gate_unit(unit)
            else:
                gpu.sms[sm].ungate_unit(unit, cycle)

        ref = GPU(spec, seed=seed, miss_ratio=0.3, vectorized=False)
        vec = GPU(spec, seed=seed, miss_ratio=0.3, vectorized=True)
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
        step and the NumPy fallback against the per-object reference."""
        spec = KernelSpec("wide", body_length=body, warps_per_sm=warps)
        cycles = 320
        actuate = _halting_schedule(np.random.default_rng(sched_seed), cycles, 8)

        def build(vectorized):
            return GPU(spec, seed=seed, miss_ratio=0.5, jitter=jitter,
                       vectorized=vectorized)

        vecs = [build(True)]
        with forced_fallback():
            vecs.append(build(True))
        assert vecs[1].engine.backend == "numpy"
        _assert_equivalent(build(False), vecs, cycles, actuate)


def _recomputed_caches(engine):
    """Head caches, live counts and done flags from scratch, as
    ``_refresh_heads`` defines them: ``(ready_cycle, head_unit, live,
    done)``."""
    st = engine._streams
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


@pytest.mark.native
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
        gpu = GPU(spec, seed=seed, miss_ratio=0.6, jitter=0.9, vectorized=True)
        engine = gpu.engine
        assert engine.backend == "c"
        cycles = 400
        actuate = _halting_schedule(np.random.default_rng(sched_seed), cycles, 10)
        for cycle in range(cycles):
            actuate(gpu, cycle)
            gpu.step()
            ready, unit, live, done = _recomputed_caches(engine)
            assert np.array_equal(engine._warp_done, done), cycle
            assert np.array_equal(engine._ready_cycle, ready), cycle
            assert np.array_equal(engine._head_unit, unit), cycle
            assert np.array_equal(engine._live, live), cycle
            assert (engine._outstanding >= 0).all(), cycle


class TestFaultScenarioEquivalence:
    """Whole-loop equivalence under each canned cross-layer fault: the
    vectorized engine in the shipped loop against the per-object
    reference in the serial oracle loop."""

    @pytest.mark.parametrize("scenario", sorted(CANNED_SCENARIOS))
    def test_cosim_fault_scenario(self, scenario):
        results = []
        legs = ((True, run_cosim), (False, run_cosim_reference))
        for vectorized, run in legs:
            config = CosimConfig(
                cycles=900,
                warmup_cycles=100,
                faults=CANNED_SCENARIOS[scenario](),
                vectorized_gpu=vectorized,
            )
            results.append(run("hotspot", config=config))
        vec, ref = results
        assert np.array_equal(vec.power_trace.data, ref.power_trace.data)
        assert np.array_equal(vec.sm_voltages, ref.sm_voltages)
        assert vec.instructions == ref.instructions
        assert vec.fake_instructions == ref.fake_instructions
        assert vec.throttled_cycles == ref.throttled_cycles
        assert vec.kernels_completed == ref.kernels_completed


class TestBackends:
    def test_forced_fallback_selects_numpy(self):
        with forced_fallback():
            gpu = GPU(KernelSpec("np-backend", body_length=50),
                      vectorized=True)
        assert gpu.engine.backend == "numpy"

    @pytest.mark.native
    def test_numpy_and_c_backends_agree(self):
        spec = KernelSpec("xback", body_length=90, warps_per_sm=5)

        def run():
            gpu = GPU(spec, seed=5, miss_ratio=0.4, jitter=0.1,
                      vectorized=True)
            return gpu.engine.backend, gpu.run(800)

        with forced_fallback():
            backend_np, trace_np = run()
        backend_c, trace_c = run()
        assert (backend_np, backend_c) == ("numpy", "c")
        assert np.array_equal(trace_np, trace_c)


class TestEngineSurface:
    def test_setter_prefix_semantics_on_bad_frequency(self):
        """A bad frequency scale raises after applying earlier SMs
        (the reference's zip-iteration semantics)."""
        gpu = GPU(KernelSpec("prefix", body_length=40), vectorized=True)
        scales = np.full(16, 0.5)
        scales[10] = -1.0
        with pytest.raises(ValueError):
            gpu.set_frequency_scales(scales)
        assert gpu.sms[9].frequency_scale == 0.5
        assert gpu.sms[11].frequency_scale == 1.0

    def test_nan_issue_width_clamps_to_zero(self):
        ref = GPU(KernelSpec("nan", body_length=40), vectorized=False)
        vec = GPU(KernelSpec("nan", body_length=40), vectorized=True)
        for gpu in (ref, vec):
            gpu.set_issue_widths(np.full(16, np.nan))
        assert (
            ref.sms[0].issue_width_setting
            == vec.sms[0].issue_width_setting
            == 0.0
        )

    def test_gated_units_view(self):
        gpu = GPU(KernelSpec("gate", body_length=40), vectorized=True)
        gpu.sms[2].gate_unit(ExecUnit.SFU)
        assert gpu.sms[2].gated_units == {ExecUnit.SFU}
        gpu.sms[2].ungate_unit(ExecUnit.SFU, 10)
        assert gpu.sms[2].gated_units == set()

    def test_totals_are_o1_counters(self):
        gpu = GPU(KernelSpec("tot", body_length=60), vectorized=True)
        gpu.run(200)
        engine = gpu.engine
        assert gpu.total_instructions() == int(engine.stat_instructions.sum())
        assert gpu.total_fake_instructions() == int(engine.stat_fakes.sum())
