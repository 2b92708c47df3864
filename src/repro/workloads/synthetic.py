"""Synthetic current stimuli for worst-case reliability experiments.

These generators produce per-SM *current* functions of time (amps) for
driving the PDN directly, bypassing the GPU timing model — the
open-loop runs that validate the impedance analysis in the time domain
(the resonance-search ablation and ``tests/pdn/test_open_loop.py``).
Fig. 9's worst imbalance is a co-sim ``LayerShutoffEvent`` instead, and
Fig. 10 reads the analytic ``AreaModel``.

Each generator returns ``f(t) -> np.ndarray of shape (num_sms,)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import PowerConfig, StackConfig

CurrentPattern = Callable[[float], np.ndarray]


def _steady(stack: StackConfig, power: PowerConfig, activity: float) -> np.ndarray:
    """Per-SM current at an activity level (fraction of dynamic peak)."""
    if not 0.0 <= activity <= 1.0:
        raise ValueError(f"activity must be in [0,1], got {activity}")
    watts = power.sm_leakage_power_w + activity * power.sm_dynamic_peak_w
    return np.full(stack.num_sms, watts / stack.sm_voltage)


def layer_shutoff_currents(
    shutoff_time_s: float,
    layer: int = 3,
    activity: float = 0.8,
    stack: StackConfig = StackConfig(),
    power: PowerConfig = PowerConfig(),
    recovery_time_s: float = float("inf"),
) -> CurrentPattern:
    """Fig. 9's worst-imbalance event: one layer drops to leakage.

    All SMs run at ``activity`` until ``shutoff_time_s``; then every SM
    in ``layer`` collapses to leakage-only draw (optionally recovering at
    ``recovery_time_s``), creating the extreme sustained stack imbalance.
    """
    if shutoff_time_s < 0:
        raise ValueError("shutoff time cannot be negative")
    base = _steady(stack, power, activity)
    off = base.copy()
    leak = power.sm_leakage_power_w / stack.sm_voltage
    for sm in stack.sms_in_layer(layer):
        off[sm] = leak

    def pattern(t: float) -> np.ndarray:
        if shutoff_time_s <= t < recovery_time_s:
            return off
        return base

    return pattern


def step_currents(
    step_time_s: float,
    before_activity: float = 0.2,
    after_activity: float = 1.0,
    stack: StackConfig = StackConfig(),
    power: PowerConfig = PowerConfig(),
) -> CurrentPattern:
    """Global load step: every SM jumps between two activity levels."""
    lo = _steady(stack, power, before_activity)
    hi = _steady(stack, power, after_activity)

    def pattern(t: float) -> np.ndarray:
        return hi if t >= step_time_s else lo

    return pattern


def resonance_currents(
    frequency_hz: float,
    low_activity: float = 0.2,
    high_activity: float = 1.0,
    stack: StackConfig = StackConfig(),
    power: PowerConfig = PowerConfig(),
) -> CurrentPattern:
    """Square-wave global load at ``frequency_hz``.

    Driving this at the PDN's resonance frequency produces the classic
    worst-case dI/dt noise of conventional (single-layer) analysis.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    lo = _steady(stack, power, low_activity)
    hi = _steady(stack, power, high_activity)
    period = 1.0 / frequency_hz

    def pattern(t: float) -> np.ndarray:
        return hi if (t % period) < period / 2 else lo

    return pattern


def worst_case_residual_currents(
    frequency_hz: float,
    sm: int = 0,
    amplitude_a: float = 2.0,
    activity: float = 0.5,
    stack: StackConfig = StackConfig(),
    power: PowerConfig = PowerConfig(),
) -> CurrentPattern:
    """Concentrated residual-component stimulus at one SM.

    Adds a square-wave residual pattern (the imbalance component with the
    highest effective impedance) of ``amplitude_a`` on top of a balanced
    baseline — the stimulus combination Section III-B identifies as
    generating the worst-case supply noise.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    if amplitude_a < 0:
        raise ValueError("amplitude cannot be negative")
    base = _steady(stack, power, activity)
    layer, column = stack.layer_column(sm)
    residual = np.zeros(stack.num_sms)
    for other in stack.sms_in_column(column):
        residual[other] = -amplitude_a / (stack.num_layers - 1)
    residual[sm] = amplitude_a
    period = 1.0 / frequency_hz

    def pattern(t: float) -> np.ndarray:
        if (t % period) < period / 2:
            return base + residual
        return base

    return pattern
