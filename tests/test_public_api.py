"""Smoke tests of the package's public surface."""

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_configs_exported(self):
        assert repro.DEFAULT_CONFIG.gpu.num_sms == 16

    def test_quick_cosim(self):
        result = repro.quick_cosim(benchmark="heartwall", cycles=300)
        assert result.num_cycles == 300
        assert "heartwall" in result.summary()
        assert 0.5 < result.min_voltage <= result.max_voltage < 2.0


class TestSubpackageSurfaces:
    def test_pdn_exports(self):
        from repro.pdn import (
            AreaModel,
            ImpedanceAnalyzer,
            build_stacked_pdn,
        )

        assert callable(build_stacked_pdn)

    def test_core_exports(self):
        from repro.core import (
            StackedGridModel,
            VSAwareHypervisor,
            VoltageSmoothingController,
            control_latency_cycles,
        )

        assert control_latency_cycles() == 60

    def test_sim_exports(self):
        from repro.sim import (
            PDS_CONFIGS,
            run_cosim,
            run_dfs_experiment,
        )

        assert len(PDS_CONFIGS) == 4

    def test_analysis_exports(self):
        from repro.analysis import (
            format_table,
            imbalance_spectrum,
            noise_box_stats,
        )

        assert callable(format_table)

    def test_workloads_exports(self):
        from repro.workloads import BENCHMARK_NAMES, PowerTrace

        assert len(BENCHMARK_NAMES) == 12

    def test_circuits_exports(self):
        from repro.circuits import SolverStats, TransientSolver

        assert SolverStats().steps == 0

    def test_telemetry_exports(self):
        from repro.telemetry import (
            MetricChannel,
            Telemetry,
            load_manifest,
            render_manifest,
            to_jsonable,
            write_run,
        )

        assert callable(write_run)
        assert Telemetry().enabled
