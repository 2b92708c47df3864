"""Loud-fallback contract of the native library (repro.native).

A failed build must never silently degrade a campaign to the NumPy
paths: the first failure warns (once), every consumer landing on a
NumPy path is counted, and a co-simulation run with telemetry — serial
or batched — carries the count as the ``native.backend_fallback``
counter.  ``REPRO_CBUILD=fail`` (behind ``forced_fallback``) forces the
failure deterministically.
"""

import warnings

import pytest

from repro import native
from repro.gpu import GPU, KernelSpec
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    last_batch_solver_info,
    run_cosim,
    run_cosim_batch,
)
from repro.telemetry import Telemetry
from tests.conftest import forced_fallback

CONFIG = CosimConfig(cycles=40, warmup_cycles=10, seed=1)


@pytest.fixture
def forced_failure():
    with forced_fallback():
        yield


def _fallback_warnings(caught):
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "falling back" in str(w.message)
    ]


class TestForcedFailure:
    def test_forced_build_failure_returns_none(self, forced_failure):
        assert native.load() is None
        assert native.fallback_count() == 1

    def test_first_failure_warns_once(self, forced_failure):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            native.load()
            native.load()
        assert len(_fallback_warnings(caught)) == 1
        # ... but every consumer landing on the slow path is counted.
        assert native.fallback_count() == 2

    def test_reset_rearms_the_warning(self, forced_failure):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            native.load()
        native.reset()
        assert native.fallback_count() == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            native.load()
        assert _fallback_warnings(caught)

    @pytest.mark.native
    def test_missing_dgetrs_capsule_fails_the_load(self, monkeypatch):
        native.reset()
        monkeypatch.setitem(native._DGETRS, "ptr", None)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert native.load() is None
            assert native.fallback_count() == 1
            assert "dgetrs" in str(_fallback_warnings(caught)[0].message)
        finally:
            native.reset()


class TestBackendSelection:
    @pytest.mark.native
    def test_every_layer_shares_the_one_library(self):
        lib = native.load()
        gpu = GPU(KernelSpec("one-lib", body_length=40), vectorized=True)
        assert gpu.engine.backend == "c" and gpu.engine._clib is lib
        run_cosim_batch([CosimLane("hotspot", CONFIG)])
        info = last_batch_solver_info()
        assert info["backend"] == "c"
        assert info["fused_cycles"] == CONFIG.warmup_cycles + CONFIG.cycles

    def test_forced_failure_lands_on_numpy_backend(self, forced_failure):
        gpu = GPU(KernelSpec("np-lib", body_length=40), vectorized=True)
        assert gpu.engine.backend == "numpy"
        results = run_cosim_batch([CosimLane("hotspot", CONFIG)])
        assert len(results) == 1 and not results[0].diverged
        info = last_batch_solver_info()
        assert info["backend"] == "numpy"
        assert info["fused_cycles"] == 0


class TestCosimTelemetry:
    def test_fallback_count_lands_in_run_telemetry(self, forced_failure):
        tele = Telemetry(run_id="fallback-test")
        result = run_cosim("hotspot", CONFIG, telemetry=tele)
        assert not result.diverged
        assert tele.counters.get(native.COUNTER, 0) >= 1

    def test_fallback_count_lands_in_batch_telemetry(self, forced_failure):
        """Regression: a batched run used to report no fallback when the
        GPU engine fell back, and its solver info still read compiled."""
        tele = Telemetry(run_id="batch-fallback-test")
        results = run_cosim_batch(
            [CosimLane("hotspot", CONFIG), CosimLane("bfs", CONFIG)],
            telemetry=tele,
        )
        assert not any(r.diverged for r in results)
        assert tele.counters.get(native.COUNTER, 0) >= 1
        info = last_batch_solver_info()
        assert info["backend"] == "numpy" and info["fused_cycles"] == 0
