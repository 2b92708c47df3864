"""Tests for the per-object streaming multiprocessor (the GPU oracle)."""

import numpy as np
import pytest

from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.gpu.engine import DIWS_WINDOW
from tests.oracles.per_object_gpu import (
    PerRequestMemory,
    StreamingMultiprocessor,
)


def make_sm(seed=0, kernel=None, rearm=True, **kernel_kwargs):
    spec = kernel or KernelSpec("t", body_length=600, **kernel_kwargs)
    return StreamingMultiprocessor(
        0, spec, PerRequestMemory(miss_ratio=0.2, seed=seed), seed=seed, rearm=rearm
    )


def run(sm, cycles, start=0):
    powers = np.empty(cycles)
    for k in range(cycles):
        powers[k] = sm.step(start + k)
    return powers


class TestExecution:
    def test_issue_rate_in_paper_band(self):
        sm = make_sm(seed=1)
        run(sm, 1500)
        assert 0.7 <= sm.stats.issue_rate <= 1.9

    def test_power_positive_and_below_peak(self):
        sm = make_sm(seed=2)
        powers = run(sm, 800)
        assert np.all(powers > 0)
        # Energy smearing can momentarily stack short-latency shares a
        # little above the instantaneous dual-issue peak.
        assert np.all(powers < sm.power_model.peak_power_w * 1.3)
        assert powers.mean() < sm.power_model.peak_power_w

    def test_kernel_rearms_for_indefinite_stream(self):
        spec = KernelSpec("short", body_length=40, warps_per_sm=2)
        sm = make_sm(seed=3, kernel=spec)
        run(sm, 3000)
        assert sm.stats.kernels_completed >= 1

    def test_no_rearm_goes_idle(self):
        spec = KernelSpec("short", body_length=30, warps_per_sm=2)
        sm = make_sm(seed=3, kernel=spec, rearm=False)
        run(sm, 4000)
        assert sm.kernel_done
        # Idle power = leakage + clock base only.
        idle = sm.step(4001)
        assert idle < 0.4 * sm.power_model.peak_power_w

    def test_deterministic_across_runs(self):
        a = run(make_sm(seed=4), 500)
        b = run(make_sm(seed=4), 500)
        assert np.array_equal(a, b)


class TestDIWS:
    def test_width_clamped(self):
        sm = make_sm()
        sm.set_issue_width(5.0)
        assert sm.issue_width_setting == 2.0
        sm.set_issue_width(-1.0)
        assert sm.issue_width_setting == 0.0

    def test_reduced_width_reduces_power(self):
        sm_full = make_sm(seed=5)
        sm_half = make_sm(seed=5)
        sm_half.set_issue_width(0.5)
        p_full = run(sm_full, 1200).mean()
        p_half = run(sm_half, 1200).mean()
        assert p_half < p_full

    def test_zero_width_stops_issue(self):
        sm = make_sm(seed=6)
        run(sm, 200)
        issued_before = sm.stats.instructions_issued
        sm.set_issue_width(0.0)
        run(sm, 200 + DIWS_WINDOW, start=200)  # flush the current window
        issued_in_window = sm.stats.instructions_issued - issued_before
        # Only the residual budget of the in-flight window can issue.
        assert issued_in_window <= 2 * DIWS_WINDOW
        issued_mid = sm.stats.instructions_issued
        run(sm, 200, start=400 + DIWS_WINDOW)
        assert sm.stats.instructions_issued == issued_mid

    def test_fractional_width_between_integers(self):
        counts = {}
        for width in (1.0, 1.5, 2.0):
            sm = make_sm(seed=7, dependence=0.0)
            sm.set_issue_width(width)
            run(sm, 1500)
            counts[width] = sm.stats.instructions_issued
        assert counts[1.0] < counts[1.5] <= counts[2.0]

    def test_throttling_accumulates_ready_warps(self):
        """The paper's key DIWS property: throughput loss is sub-linear
        because throttled warps bank readiness for later cycles."""
        sm_full = make_sm(seed=8)
        sm_half = make_sm(seed=8)
        sm_half.set_issue_width(1.0)
        run(sm_full, 2500)
        run(sm_half, 2500)
        ratio = (
            sm_half.stats.instructions_issued / sm_full.stats.instructions_issued
        )
        # Width halved but throughput keeps well above half.
        assert ratio > 0.7


class TestFII:
    def test_rate_clamped(self):
        sm = make_sm()
        sm.set_fake_rate(9.0)
        assert sm.fake_rate == 2.0

    def test_fakes_increase_power(self):
        base = make_sm(seed=9)
        boosted = make_sm(seed=9)
        boosted.set_fake_rate(1.0)
        p_base = run(base, 1000).mean()
        p_boost = run(boosted, 1000).mean()
        assert p_boost > p_base + 0.5

    def test_fake_count_tracks_rate(self):
        sm = make_sm(seed=10)
        sm.set_issue_width(1.0)  # leave slack for fakes
        sm.set_fake_rate(0.5)
        run(sm, 2000)
        per_cycle = sm.stats.fake_instructions / sm.stats.cycles
        assert 0.3 < per_cycle <= 0.5

    def test_fakes_limited_by_issue_slack(self):
        """No extra instruction can inject when both slots hold real work."""
        sm = make_sm(seed=11, dependence=0.0)
        sm.set_fake_rate(2.0)
        run(sm, 1000)
        total = sm.stats.instructions_issued + sm.stats.fake_instructions
        assert total <= 2 * sm.stats.active_cycles


class TestDFSAndGating:
    def test_frequency_scale_validated(self):
        sm = make_sm()
        with pytest.raises(ValueError):
            sm.set_frequency_scale(0.0)

    def test_clock_masking_slows_execution(self):
        full = make_sm(seed=12)
        half = make_sm(seed=12)
        half.set_frequency_scale(0.5)
        run(full, 1000)
        run(half, 1000)
        assert half.stats.active_cycles == pytest.approx(500, abs=2)
        assert half.stats.instructions_issued < full.stats.instructions_issued

    def test_masked_cycles_draw_leakage_only(self):
        sm = make_sm(seed=13)
        sm.set_frequency_scale(0.5)
        powers = run(sm, 100)
        leak = sm.power_model.leakage_w()
        assert np.isclose(powers.min(), leak)

    def test_gated_unit_blocks_issue_of_its_class(self):
        spec = KernelSpec(
            "sfu_only", mix={InstructionClass.SFU: 1.0}, body_length=100
        )
        sm = make_sm(kernel=spec, seed=14)
        sm.gate_unit(ExecUnit.SFU)
        run(sm, 200)
        assert sm.stats.instructions_issued == 0

    def test_ungating_has_wakeup_latency(self):
        spec = KernelSpec(
            "sfu_only", mix={InstructionClass.SFU: 1.0}, body_length=100,
            dependence=0.0,
        )
        sm = make_sm(kernel=spec, seed=15)
        sm.gate_unit(ExecUnit.SFU)
        run(sm, 50)
        sm.ungate_unit(ExecUnit.SFU, cycle=50)
        run(sm, 2, start=50)
        assert sm.stats.instructions_issued == 0  # still waking
        run(sm, 20, start=52)
        assert sm.stats.instructions_issued > 0

    def test_gating_reduces_leakage_component(self):
        spec = KernelSpec(
            "alu_only", mix={InstructionClass.FALU: 1.0}, body_length=400
        )
        plain = make_sm(kernel=spec, seed=16)
        gated = make_sm(kernel=spec, seed=16)
        gated.gate_unit(ExecUnit.SFU)
        gated.gate_unit(ExecUnit.LSU)
        p_plain = run(plain, 500).mean()
        p_gated = run(gated, 500).mean()
        assert p_gated < p_plain

    def test_idle_counters_track_unused_units(self):
        spec = KernelSpec(
            "alu_only", mix={InstructionClass.FALU: 1.0}, body_length=400
        )
        sm = make_sm(kernel=spec, seed=17)
        run(sm, 300)
        assert sm.unit_idle_cycles[ExecUnit.SFU] > 100
        assert sm.unit_idle_cycles[ExecUnit.ALU] < 10
