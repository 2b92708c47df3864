"""Tests for the coupled GPU/PDN/controller simulation."""

import numpy as np
import pytest

from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig
from repro.sim.cosim import (
    CosimConfig,
    LayerShutoffEvent,
    run_cosim,
)
from repro.sim.pds_configs import PDS_CONFIGS, PDSKind


@pytest.fixture(scope="module")
def short_run():
    return run_cosim(
        "hotspot", CosimConfig(cycles=1200, warmup_cycles=150, seed=3)
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cycles": 0},
            {"warmup_cycles": -1},
            {"circuit_substeps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CosimConfig(**kwargs)

    @pytest.mark.parametrize("warmup", [10, 11, 500])
    def test_rejects_warmup_swallowing_window(self, warmup):
        """A warmup at least as long as the measured window leaves
        (nearly) nothing to measure; fail fast with a clear message
        instead of reporting transient-dominated statistics."""
        with pytest.raises(ValueError, match="warmup_cycles"):
            CosimConfig(cycles=10, warmup_cycles=warmup)

    def test_warmup_just_below_window_accepted(self):
        CosimConfig(cycles=10, warmup_cycles=9)


class TestCoupledRun:
    def test_shapes(self, short_run):
        assert short_run.sm_voltages.shape == (1200, 16)
        assert short_run.power_trace.data.shape == (1200, 16)
        assert short_run.supply_current.shape == (1200,)

    def test_voltages_near_nominal(self, short_run):
        median = float(np.median(short_run.sm_voltages))
        assert 0.9 < median < 1.1

    def test_noise_bounded_with_cross_layer(self, short_run):
        """The cross-layer default keeps the supply well-behaved."""
        assert short_run.voltage_percentiles(1) > 0.75
        assert short_run.min_voltage > 0.5

    def test_supply_current_is_layer_scale(self, short_run):
        # Series stack: board current ~ total power / board voltage.
        expected = short_run.power_trace.mean_power_w / 4.1
        assert short_run.supply_current.mean() == pytest.approx(
            expected, rel=0.25
        )

    def test_efficiency_in_vs_band(self, short_run):
        eff = short_run.efficiency()
        assert 0.88 < eff.pde < 0.97

    def test_summary_mentions_benchmark(self, short_run):
        assert "hotspot" in short_run.summary()

    def test_throughput_positive(self, short_run):
        assert short_run.throughput() > 4.0

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            run_cosim("nope", CosimConfig(cycles=10, warmup_cycles=0))


class TestControllerCoupling:
    def test_controller_reduces_noise_vs_circuit_only(self):
        """Fig. 11's core claim at the 0.2x CR-IVR sizing."""
        base = CosimConfig(cycles=1500, warmup_cycles=150, seed=5)
        with_ctl = run_cosim("fastwalsh", base)
        without_ctl = run_cosim(
            "fastwalsh",
            CosimConfig(
                cycles=1500, warmup_cycles=150, seed=5, use_controller=False
            ),
        )
        assert (
            with_ctl.voltage_percentiles(1)
            >= without_ctl.voltage_percentiles(1) - 1e-3
        )
        assert with_ctl.min_voltage >= without_ctl.min_voltage - 1e-3

    def test_diws_only_actuation(self):
        result = run_cosim(
            "hotspot",
            CosimConfig(
                cycles=800,
                warmup_cycles=100,
                actuation=WeightedActuation(w1=1.0, w2=0.0, w3=0.0),
            ),
        )
        assert result.fake_instructions == 0

    def test_fii_engages_on_sustained_overvoltage(self):
        """Brief spikes are filtered out; a sustained underdrawing layer
        (the shutoff event) engages FII through the boost trigger."""
        result = run_cosim(
            "heartwall",
            CosimConfig(
                cycles=1500, warmup_cycles=200, seed=7,
                shutoff=LayerShutoffEvent(layer=3, start_cycle=300),
            ),
        )
        assert result.fake_instructions > 0

    def test_controller_power_counted(self, short_run):
        assert short_run.controller_power_w == pytest.approx(1.634e-3)


class TestWarmupWindowAccounting:
    """fake_instructions / throttled_cycles must count only the recorded
    window, exactly like the instruction counter.

    Warmup changes *recording*, never dynamics (absent a shutoff event),
    so a run with warmup W and N recorded cycles must report the same
    work counters as the difference between warmup-0 runs of W+N and W
    total cycles.  Before the fix, the windowed run reported the whole
    W+N total for fakes and throttles.
    """

    # Aggressive triggers so both FII and DIWS engage during the
    # warmup prefix — otherwise the regression has nothing to catch.
    KW = dict(
        cr_ivr_area_mm2=52.9,
        seed=7,
        controller=ControllerConfig(
            v_threshold=0.98, v_high_threshold=1.0, k1=15.0
        ),
    )
    WARMUP = 300
    RECORDED = 320

    @pytest.fixture(scope="class")
    def runs(self):
        full = run_cosim(
            "heartwall",
            CosimConfig(
                cycles=self.WARMUP + self.RECORDED, warmup_cycles=0, **self.KW
            ),
        )
        prefix = run_cosim(
            "heartwall",
            CosimConfig(cycles=self.WARMUP, warmup_cycles=0, **self.KW),
        )
        windowed = run_cosim(
            "heartwall",
            CosimConfig(
                cycles=self.RECORDED, warmup_cycles=self.WARMUP, **self.KW
            ),
        )
        return full, prefix, windowed

    def test_warmup_prefix_exercises_both_counters(self, runs):
        _, prefix, _ = runs
        assert prefix.fake_instructions > 0
        assert prefix.throttled_cycles > 0

    def test_fake_instructions_count_recorded_window_only(self, runs):
        full, prefix, windowed = runs
        assert (
            windowed.fake_instructions
            == full.fake_instructions - prefix.fake_instructions
        )

    def test_throttled_cycles_count_recorded_window_only(self, runs):
        full, prefix, windowed = runs
        assert (
            windowed.throttled_cycles
            == full.throttled_cycles - prefix.throttled_cycles
        )

    def test_instructions_accounting_still_consistent(self, runs):
        full, prefix, windowed = runs
        assert windowed.instructions == full.instructions - prefix.instructions

    def test_zero_warmup_unchanged(self):
        """warmup=0 must report the same totals as before the fix."""
        result = run_cosim(
            "heartwall",
            CosimConfig(cycles=self.WARMUP, warmup_cycles=0, **self.KW),
        )
        assert result.fake_instructions >= 0
        assert result.throttled_cycles >= 0
        assert result.num_cycles == self.WARMUP


class TestKernelTimeReporting:
    def test_cycles_per_kernel_raises_without_completions(self):
        """Library callers keep the hard error."""
        result = run_cosim(
            "hotspot", CosimConfig(cycles=60, warmup_cycles=10)
        )
        assert result.kernels_completed == 0
        with pytest.raises(ValueError, match="no kernel completed"):
            result.cycles_per_kernel()

    def test_summary_degrades_to_na(self):
        """The human-facing summary reports n/a instead of crashing."""
        result = run_cosim(
            "hotspot", CosimConfig(cycles=60, warmup_cycles=10)
        )
        assert "cycles/kernel n/a" in result.summary()


class TestLayerShutoff:
    def test_shutoff_idles_layer(self):
        event = LayerShutoffEvent(layer=3, start_cycle=400)
        result = run_cosim(
            "heartwall",
            CosimConfig(
                cycles=1000, warmup_cycles=0, shutoff=event,
                use_controller=False,
            ),
        )
        # After shutoff the top layer's SMs draw only idle power.
        late = result.power_trace.data[800:]
        top = late[:, 12:].mean()
        bottom = late[:, :4].mean()
        assert top < 0.6 * bottom

    def test_shutoff_droops_other_layers_without_controller(self):
        event = LayerShutoffEvent(layer=3, start_cycle=300)
        result = run_cosim(
            "heartwall",
            CosimConfig(
                cycles=900, warmup_cycles=0, shutoff=event,
                use_controller=False, cr_ivr_area_mm2=105.8,
            ),
        )
        assert result.min_voltage < 0.7

    def test_event_window(self):
        event = LayerShutoffEvent(layer=2, start_cycle=10, end_cycle=20)
        assert not event.active(9)
        assert event.active(10)
        assert not event.active(20)

    @pytest.mark.parametrize("start, end", [(50, 10), (30, 30)])
    def test_empty_or_inverted_window_rejected(self, start, end):
        # Such a window never shuts the layer off: a Fig. 9 scenario
        # would silently run as a plain one.  FaultEvent rejects it too.
        with pytest.raises(ValueError, match="end_cycle"):
            LayerShutoffEvent(layer=3, start_cycle=start, end_cycle=end)


class TestDCCEngagement:
    """Regression for the shared-slew unit bug (satellite of the
    telemetry PR): with 0.02 W per decision the k3 = 20 W/V DCC needed
    ~630 decisions to reach its DAC full scale, so during a sustained
    layer shutoff the compensation never arrived.  The per-actuator
    ``slew_dcc_w`` restores it."""

    BASE = dict(
        cycles=1500, warmup_cycles=200, seed=7,
        shutoff=LayerShutoffEvent(layer=3, start_cycle=0),
    )

    @pytest.fixture(scope="class")
    def commanded_w(self):
        """Total commanded DCC power, from the *uncompensated* run's
        overvoltage on the shutoff layer: min(k3*(V - Vnom), DAC max)
        per SM.  (The compensated run closes the loop and pulls the
        voltage back to ~1 V, so the error must be read open-loop.)"""
        off = run_cosim(
            "heartwall",
            CosimConfig(
                actuation=WeightedActuation(w1=1.0, w2=0.0, w3=0.0),
                **self.BASE,
            ),
        )
        cfg = ControllerConfig()
        dac_max = WeightedActuation().dac.max_power_w
        v_late = off.sm_voltages[-600:, 12:16].mean(axis=0)
        per_sm = np.minimum(
            np.maximum(v_late - cfg.v_nominal, 0.0) * cfg.k3, dac_max
        )
        assert per_sm.sum() > 1.0  # the scenario must demand real power
        return float(per_sm.sum())

    def test_dcc_reaches_half_of_commanded_power(self, commanded_w):
        on = run_cosim(
            "heartwall",
            CosimConfig(
                actuation=WeightedActuation(w1=1.0, w2=0.0, w3=1.0),
                **self.BASE,
            ),
        )
        assert on.mean_dcc_power_w >= 0.5 * commanded_w
        # And the loop actually closes: the shutoff layer's overvoltage
        # is pulled back near nominal.
        assert on.sm_voltages[-600:, 12:16].mean() < 1.05


class TestCosimTelemetry:
    @pytest.fixture(scope="class")
    def recorded(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(run_id="test")
        result = run_cosim(
            "hotspot",
            CosimConfig(cycles=400, warmup_cycles=100),
            telemetry=tele,
        )
        return tele, result

    def test_stage_times_sum_to_wall(self, recorded):
        """The per-stage split must account for the run: stage sum
        within 10% of the recorder's wall clock (the residual stages
        ``setup``/``loop_other``/``finalize`` close the gap)."""
        tele, _ = recorded
        wall = tele.elapsed_s
        stage_sum = sum(tele.timings.values())
        assert wall > 0
        assert abs(stage_sum - wall) / wall <= 0.10

    def test_stage_names(self, recorded):
        tele, _ = recorded
        for stage in ("setup", "gpu_model", "transient_solve",
                      "controller", "record", "loop_other", "finalize"):
            assert stage in tele.timings

    def test_work_counters(self, recorded):
        tele, result = recorded
        total = 400 + 100
        assert tele.counters["cycles"] == 400
        assert tele.counters["solver_steps"] == total * 2  # substeps
        assert tele.counters["solver_factorizations"] == 1
        assert tele.counters["instructions"] == result.instructions
        assert "controller_decisions_made" in tele.counters
        assert "controller_slew_saturated_dcc" in tele.counters

    def test_channels_cover_recorded_window(self, recorded):
        tele, _ = recorded
        for name in ("min_sm_voltage_v", "total_power_w", "dcc_power_w",
                     "worst_layer_imbalance_w"):
            chan = tele.channels[name]
            assert chan.offered == 400
            assert len(chan) > 0

    def test_dcc_channel_integrates_to_mean(self, recorded):
        """The per-cycle boost channel is consistent with the surviving
        scalar: its time average equals mean_dcc_power_w (no decimation
        at 400 offers under the 4096 default capacity)."""
        tele, result = recorded
        chan = tele.channels["dcc_power_w"]
        assert chan.stride == 1
        assert np.mean(chan.values) == pytest.approx(
            result.mean_dcc_power_w, abs=1e-12
        )

    def test_worst_layer_imbalance_channel_nonnegative(self, recorded):
        tele, _ = recorded
        values = np.asarray(tele.channels["worst_layer_imbalance_w"].values)
        assert np.all(values >= 0.0)
        # hotspot's jittery issue keeps the layers from perfect balance.
        assert values.max() > 0.0

    def test_noise_section_attached(self, recorded):
        """The observatory report rides the manifest as the ``noise``
        section, with a closing ledger and the compare KPIs."""
        tele, result = recorded
        noise = tele.sections["noise"]
        assert noise["benchmark"] == "hotspot"
        assert len(noise["bands"]) == 3
        assert noise["ledger"]["closure_rel_error"] <= 0.01
        assert noise["summary"]["pde"] == pytest.approx(
            result.efficiency().pde
        )

    def test_too_short_run_skips_noise_section(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(run_id="short")
        run_cosim(
            "hotspot", CosimConfig(cycles=6, warmup_cycles=1),
            telemetry=tele,
        )
        assert "noise" not in tele.sections
        assert any(
            e["kind"] == "noise_report_skipped" for e in tele.events
        )

    def test_headline_metrics_match_result(self, recorded):
        tele, result = recorded
        assert tele.metrics["min_voltage_v"] == result.min_voltage
        assert tele.metrics["throughput_ipc"] == result.throughput()

    def test_events_bracket_the_run(self, recorded):
        tele, _ = recorded
        kinds = [e["kind"] for e in tele.events]
        assert kinds[0] == "cosim_start"
        assert kinds[-1] == "cosim_done"

    def test_disabled_recorder_records_nothing(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(enabled=False)
        run_cosim(
            "hotspot",
            CosimConfig(cycles=40, warmup_cycles=10),
            telemetry=tele,
        )
        assert tele.timings == {}
        assert tele.counters == {}

    def test_result_identical_with_and_without_telemetry(self):
        from repro.telemetry import Telemetry

        cfg = CosimConfig(cycles=120, warmup_cycles=20, seed=11)
        plain = run_cosim("hotspot", cfg)
        traced = run_cosim("hotspot", cfg, telemetry=Telemetry())
        assert np.array_equal(plain.sm_voltages, traced.sm_voltages)
        assert plain.instructions == traced.instructions
        assert plain.throttled_cycles == traced.throttled_cycles


class TestPDSConfigs:
    def test_four_rows(self):
        assert len(PDS_CONFIGS) == 4

    def test_cross_layer_smaller_than_circuit_only(self):
        circuit = PDS_CONFIGS[PDSKind.VS_CIRCUIT_ONLY]
        cross = PDS_CONFIGS[PDSKind.VS_CROSS_LAYER]
        assert cross.cr_ivr_area_mm2 < 0.2 * circuit.cr_ivr_area_mm2
        assert cross.has_controller
        assert not circuit.has_controller

    def test_paper_anchor_metadata(self):
        assert PDS_CONFIGS[PDSKind.CONVENTIONAL_VRM].paper_pde == 0.80
        assert PDS_CONFIGS[PDSKind.VS_CROSS_LAYER].paper_pde == 0.923
