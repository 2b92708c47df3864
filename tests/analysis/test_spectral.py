"""Tests for spectral analysis of power/noise traces."""

import numpy as np
import pytest

from repro.analysis.spectral import (
    band_power,
    dominant_frequency,
    imbalance_series,
    imbalance_spectrum,
    low_frequency_fraction,
    power_spectrum,
)
from tests.oracles.spectral_reference import imbalance_series_reference

FS = 700e6


def sine(freq, cycles=4096, amplitude=1.0, offset=0.0):
    # Snap to the FFT bin grid so amplitudes are leakage-free.
    freq = round(freq * cycles / FS) * FS / cycles
    t = np.arange(cycles) / FS
    return offset + amplitude * np.sin(2 * np.pi * freq * t)


class TestPowerSpectrum:
    def test_pure_tone_recovered(self):
        freqs, amps = power_spectrum(sine(50e6, amplitude=2.0), FS)
        peak = freqs[np.argmax(amps)]
        assert peak == pytest.approx(50e6, rel=0.01)
        assert amps.max() == pytest.approx(2.0, rel=0.05)

    def test_dc_removed(self):
        freqs, amps = power_spectrum(sine(50e6, offset=10.0), FS)
        # No huge DC leakage; the tone still dominates.
        assert freqs[np.argmax(amps)] == pytest.approx(50e6, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_spectrum(np.ones((4, 4)), FS)
        with pytest.raises(ValueError):
            power_spectrum(np.ones(2), FS)
        with pytest.raises(ValueError):
            power_spectrum(np.ones(100), 0.0)


class TestBandPower:
    def test_tone_inside_band(self):
        signal = sine(50e6, amplitude=2.0)
        rms = band_power(signal, FS, 40e6, 60e6)
        assert rms == pytest.approx(2.0 / np.sqrt(2), rel=0.05)

    def test_tone_outside_band(self):
        signal = sine(50e6)
        assert band_power(signal, FS, 100e6, 200e6) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            band_power(sine(1e6), FS, 10e6, 5e6)


class TestDominantFrequency:
    def test_strongest_tone_wins(self):
        signal = sine(30e6, amplitude=1.0) + sine(90e6, amplitude=3.0)
        assert dominant_frequency(signal, FS) == pytest.approx(90e6, rel=0.02)


class TestImbalanceSpectrum:
    def test_components_separable(self):
        # Global tone at 10 MHz on all SMs; residual tone at 2 MHz on one
        # column's bottom SM only.
        cycles = 4096
        t = np.arange(cycles) / FS
        data = np.full((cycles, 16), 4.0)
        data += np.sin(2 * np.pi * 10e6 * t)[:, None]  # global
        residual_wave = 0.5 * np.sin(2 * np.pi * 2e6 * t)
        data[:, 0] += residual_wave
        spectra = imbalance_spectrum(data, FS)
        g_freqs, g_amps = spectra["global"]
        r_freqs, r_amps = spectra["residual"]
        assert g_freqs[np.argmax(g_amps)] == pytest.approx(10e6, rel=0.05)
        assert r_freqs[np.argmax(r_amps)] == pytest.approx(2e6, rel=0.05)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            imbalance_spectrum(np.ones((100, 8)), FS)


class TestImbalanceSeriesVectorization:
    """The vectorized series must match the retained per-cycle
    reference loop *bit for bit* (acceptance criterion; the perf floor
    lives in ``benchmarks/test_perf_spectral.py``)."""

    def test_bit_for_bit_on_random_matrix(self):
        rng = np.random.default_rng(17)
        power = rng.uniform(0.0, 8.0, (2048, 16))
        fast = imbalance_series(power)
        slow = imbalance_series_reference(power)
        assert set(fast) == set(slow) == {"global", "stack", "residual"}
        for name in fast:
            assert np.array_equal(fast[name], slow[name]), name

    def test_bit_for_bit_on_adversarial_values(self):
        # Mixed magnitudes stress summation-order sensitivity.
        rng = np.random.default_rng(3)
        power = np.abs(rng.lognormal(mean=0.0, sigma=3.0, size=(500, 16)))
        fast = imbalance_series(power)
        slow = imbalance_series_reference(power)
        for name in fast:
            assert np.array_equal(fast[name], slow[name]), name

    def test_single_cycle_row_vector(self):
        power = np.arange(16.0)
        fast = imbalance_series(power)
        slow = imbalance_series_reference(power)
        for name in fast:
            assert np.array_equal(fast[name], slow[name])
            assert fast[name].shape == (1,)

    def test_components_reconstruct_first_sm(self):
        rng = np.random.default_rng(9)
        power = rng.uniform(0.0, 8.0, (64, 16))
        series = imbalance_series(power)
        recon = (
            series["global"] + series["stack"] + series["residual"]
        )
        assert np.allclose(recon, power[:, 0])


class TestLowFrequencyFraction:
    def test_low_tone_scores_high(self):
        assert low_frequency_fraction(sine(1e6), FS, 5e6) > 0.95

    def test_high_tone_scores_low(self):
        assert low_frequency_fraction(sine(100e6), FS, 5e6) < 0.05

    def test_flat_signal_zero(self):
        assert low_frequency_fraction(np.full(1000, 3.0), FS, 5e6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            low_frequency_fraction(sine(1e6), FS, 0.0)

    def test_sustained_imbalance_is_low_frequency(self):
        """The architectural opportunity: *sustained* imbalance (the
        kind the controller must handle — a layer-shutoff-style step)
        concentrates its spectral energy at low frequency, unlike
        per-cycle issue noise."""
        step = np.concatenate([np.full(2048, 4.0), np.full(2048, 1.5)])
        assert low_frequency_fraction(step, FS, 5e6) > 0.9
        # Per-cycle issue noise, by contrast, is broadband.
        rng = np.random.default_rng(3)
        noise = rng.normal(4.0, 1.0, 4096)
        assert low_frequency_fraction(noise, FS, 5e6) < 0.1