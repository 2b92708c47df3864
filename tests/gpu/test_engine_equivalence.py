"""Equivalence contract of the vectorized GPU engine (property-based).

The struct-of-arrays engine (``repro.gpu.engine``) must be
*bit-identical* to the per-object reference SMs for the same seed —
power traces, statistics, kernel-launch accounting and shared-memory
counters — under any kernel shape, actuation schedule, DFS setting,
power gating sequence and fault scenario.  These tests drive both
implementations side by side through randomized schedules (hypothesis)
and through each canned cross-layer fault scenario.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu.engine import VectorizedGPUEngine, _resolve_backend
from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.sim.cosim import CosimConfig, run_cosim
from tests.oracles.serial_cosim import run_cosim_reference

STAT_FIELDS = (
    "cycles",
    "active_cycles",
    "instructions_issued",
    "fake_instructions",
    "issue_stall_cycles",
    "kernels_completed",
)


def _assert_equivalent(ref: GPU, vec: GPU, cycles: int, actuate=None) -> None:
    for cycle in range(cycles):
        if actuate is not None:
            actuate(ref, cycle)
            actuate(vec, cycle)
        pr = ref.step()
        pv = vec.step()
        assert np.array_equal(pr, pv), f"power trace diverged at cycle {cycle}"
    for ref_sm, vec_sm in zip(ref.sms, vec.sms):
        for field in STAT_FIELDS:
            assert getattr(ref_sm.stats, field) == getattr(vec_sm.stats, field)
    assert ref.kernels_launched == vec.kernels_launched
    assert ref.kernel_launch_cycles == vec.kernel_launch_cycles
    assert ref.total_instructions() == vec.total_instructions()
    assert ref.total_fake_instructions() == vec.total_fake_instructions()
    assert ref.memory.requests_served == vec.memory.requests_served
    assert ref.memory.misses == vec.memory.misses


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
    def test_env_override_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPU_BACKEND", "numpy")
        assert _resolve_backend("auto", 12) == "numpy"
        gpu = GPU(KernelSpec("np-backend", body_length=50), vectorized=True)
        assert gpu.engine.backend == "numpy"

    def test_numpy_and_c_backends_agree(self, monkeypatch):
        from repro.gpu._cbuild import load_engine_lib

        if load_engine_lib() is None:
            pytest.skip("no C compiler available")
        spec = KernelSpec("xback", body_length=90, warps_per_sm=5)
        traces = {}
        for backend in ("numpy", "c"):
            monkeypatch.setenv("REPRO_GPU_BACKEND", backend)
            gpu = GPU(spec, seed=5, miss_ratio=0.4, jitter=0.1,
                      vectorized=True)
            traces[backend] = gpu.run(800)
        assert np.array_equal(traces["numpy"], traces["c"])

    def test_explicit_c_unavailable_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_GPU_BACKEND", raising=False)
        monkeypatch.setattr(
            "repro.gpu.engine.load_engine_lib", lambda: None
        )
        with pytest.raises(RuntimeError):
            _resolve_backend("c", 12)
        assert _resolve_backend("auto", 12) == "numpy"


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
