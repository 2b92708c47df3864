"""Spectral analysis of power traces and supply noise.

The paper's whole design rests on a frequency division of labor: the
CR-IVRs suppress high-frequency noise, the architectural controller the
low-to-middle band, and the effective impedance profile says which is
which.  This module provides the measurement side of that argument:

* :func:`power_spectrum` — one-sided amplitude spectrum of a signal;
* :func:`band_power` — RMS content of a signal inside a frequency band
  (:func:`band_powers` for several bands from one spectrum);
* :func:`imbalance_spectrum` — the spectrum of the *residual* current
  component specifically (the one with the dangerous impedance);
* :func:`dominant_frequency` — where a workload concentrates its
  current activity (used to cross-check against the impedance peaks).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import StackConfig


def power_spectrum(
    signal: np.ndarray, sample_rate_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectrum (frequencies, amplitudes).

    The DC term is removed; amplitudes are per-component sinusoid
    amplitudes (2 |X_k| / N).
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if signal.size < 4:
        raise ValueError("need at least 4 samples")
    if sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    centred = signal - signal.mean()
    spectrum = np.fft.rfft(centred)
    freqs = np.fft.rfftfreq(signal.size, 1.0 / sample_rate_hz)
    amplitudes = 2.0 * np.abs(spectrum) / signal.size
    return freqs[1:], amplitudes[1:]


def band_power(
    signal: np.ndarray,
    sample_rate_hz: float,
    low_hz: float,
    high_hz: float,
) -> float:
    """RMS amplitude of the signal's content within [low, high] Hz."""
    return band_powers(signal, sample_rate_hz, [(low_hz, high_hz)])[0]


def band_powers(
    signal: np.ndarray,
    sample_rate_hz: float,
    bands: Sequence[Tuple[float, float]],
) -> List[float]:
    """:func:`band_power` of each ``(low_hz, high_hz)`` band, from one
    spectrum of the signal."""
    for low_hz, high_hz in bands:
        if not 0 <= low_hz < high_hz:
            raise ValueError("need 0 <= low < high")
    freqs, amplitudes = power_spectrum(signal, sample_rate_hz)
    powers = []
    for low_hz, high_hz in bands:
        mask = (freqs >= low_hz) & (freqs <= high_hz)
        if not np.any(mask):
            powers.append(0.0)
        else:
            powers.append(float(np.sqrt(0.5 * np.sum(amplitudes[mask] ** 2))))
    return powers


def dominant_frequency(signal: np.ndarray, sample_rate_hz: float) -> float:
    """Frequency of the largest non-DC spectral component."""
    freqs, amplitudes = power_spectrum(signal, sample_rate_hz)
    return float(freqs[int(np.argmax(amplitudes))])


def imbalance_series(
    per_sm_power: np.ndarray,
    stack: StackConfig = StackConfig(),
) -> Dict[str, np.ndarray]:
    """Representative per-cycle series of each imbalance component.

    Decomposes every cycle's per-SM power into the three orthogonal
    components of Section III-B and takes a representative scalar for
    each: the global mean; the first column's stack deviation; the
    first SM's residual.  Vectorized over cycles, but each scalar is
    produced by the same reduction (order and operand count) that
    :func:`repro.pdn.impedance.decompose_currents` applies per frame,
    so the output matches the per-cycle reference loop the test suite
    keeps (``tests/oracles/spectral_reference.py``) bit for bit.
    """
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    if per_sm_power.shape[1] != stack.num_sms:
        raise ValueError(
            f"expected {stack.num_sms} SM columns, got {per_sm_power.shape[1]}"
        )
    grid = per_sm_power.reshape(
        per_sm_power.shape[0], stack.num_layers, stack.num_columns
    )
    # g[0]: the all-SM mean (flat contiguous reduction per cycle).
    global_series = per_sm_power.mean(axis=1)
    # st[0]: column-0 mean minus the global mean.
    column0_mean = grid[:, :, 0].mean(axis=1)
    stack_series = column0_mean - global_series
    # r[0] in decompose_currents is (grid - global_part) - stack_part;
    # mirror that two-subtraction order for exact agreement.
    residual_series = (grid[:, 0, 0] - global_series) - stack_series
    return {
        "global": global_series,
        "stack": stack_series,
        "residual": residual_series,
    }


def imbalance_spectrum(
    per_sm_power: np.ndarray,
    sample_rate_hz: float,
    stack: StackConfig = StackConfig(),
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Spectra of the global / stack / residual current components.

    The :func:`imbalance_series` scalars of every cycle, spectrum-ized —
    showing *where in frequency* each kind of imbalance lives for a
    workload.
    """
    series = imbalance_series(per_sm_power, stack)
    return {
        name: power_spectrum(values, sample_rate_hz)
        for name, values in series.items()
    }


def low_frequency_fraction(
    signal: np.ndarray,
    sample_rate_hz: float,
    cutoff_hz: float,
) -> float:
    """Share of the signal's AC energy below ``cutoff_hz``.

    The paper's architectural opportunity in one number: the residual
    imbalance component concentrates its energy at low frequency, where
    a hundreds-of-cycles controller can reach it.
    """
    if cutoff_hz <= 0:
        raise ValueError("cutoff must be positive")
    freqs, amplitudes = power_spectrum(signal, sample_rate_hz)
    total = float(np.sum(amplitudes**2))
    if total == 0.0:
        return 0.0
    low = float(np.sum(amplitudes[freqs <= cutoff_hz] ** 2))
    return low / total
