"""Tests for the PowerTrace container."""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.workloads.traces import PowerTrace


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    return PowerTrace(rng.uniform(2.0, 6.0, (100, 16)), name="rand")


class TestValidation:
    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            PowerTrace(np.ones(16))

    def test_rejects_negative_power(self):
        data = np.ones((4, 16))
        data[2, 3] = -0.1
        with pytest.raises(ValueError, match="negative"):
            PowerTrace(data)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            PowerTrace(np.ones((4, 16)), frequency_hz=0.0)


class TestProperties:
    def test_shape_accessors(self, trace):
        assert trace.num_cycles == 100
        assert trace.num_sms == 16
        assert trace.duration_s == pytest.approx(100 / 700e6)
        assert trace.dt == pytest.approx(1 / 700e6)

    def test_total_power_sums_sms(self, trace):
        assert np.allclose(trace.total_power, trace.data.sum(axis=1))

    def test_layer_powers_shape(self, trace):
        layers = trace.layer_powers()
        assert layers.shape == (100, 4)
        assert np.allclose(layers.sum(axis=1), trace.total_power)

    def test_layer_powers_validates_stack(self, trace):
        with pytest.raises(ValueError, match="SMs"):
            trace.layer_powers(StackConfig(num_layers=2, num_columns=2))

    def test_sm_currents(self, trace):
        currents = trace.sm_currents(sm_voltage=2.0)
        assert np.allclose(currents, trace.data / 2.0)
        with pytest.raises(ValueError):
            trace.sm_currents(0.0)

    def test_window(self, trace):
        sub = trace.window(10, 20)
        assert sub.num_cycles == 10
        assert np.array_equal(sub.data, trace.data[10:20])

    def test_window_validation(self, trace):
        with pytest.raises(ValueError):
            trace.window(20, 10)

    def test_imbalance_consistent_with_shuffle(self, trace):
        frac = trace.imbalance_fraction()
        assert frac == pytest.approx(
            trace.shuffle_power_w() / trace.mean_power_w, rel=1e-9
        )


class TestSerialization:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = PowerTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.frequency_hz == trace.frequency_hz
        assert np.array_equal(loaded.data, trace.data)
