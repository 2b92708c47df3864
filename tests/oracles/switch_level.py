"""Switch-level simulation of the charge-recycling SC ladder.

The main library models the CR-IVR by its *averaged* equivalent — a
difference conductance ``g = f_sw * C_fly`` (see
:mod:`repro.pdn.cr_ivr`).  This module simulates the same ladder at the
switch level: discrete two-phase operation of every flying capacitor,
explicit charge sharing with the layer decoupling capacitors, and the
resulting output ripple.  It exists to *validate the averaging*, so it
lives with the test oracles (``tests/pdn/test_switch_level.py``):

* the equalization rate of an initial layer-voltage imbalance matches
  the averaged model's ``g / C`` prediction;
* the charge-transfer (intrinsic SC) loss matches the averaged
  conductance's ``g * dV^2`` dissipation;
* the ripple amplitude scales as predicted with switching frequency —
  the quantity that sets the ``f_sw``/``C_fly`` design trade-off.

The simulator is intentionally idealized (zero switch resistance, hard
charge sharing) — the textbook slow-switching limit in which the
averaged model is exact, which is what makes the comparison a clean
validation rather than a second calibration problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class SwitchLevelLadder:
    """A stack of ``num_layers`` layer capacitors with flying caps.

    State: per-layer voltages (across each layer's decap) and per-flying-
    capacitor voltages.  Each simulation step advances half a switching
    period: odd phases connect flying cap ``i`` across layer ``i+1``,
    even phases across layer ``i`` (the charge-recycling shuffle).

    Per-layer load/supply currents are applied between switching events
    as linear charge drain on the layer capacitors.
    """

    num_layers: int = 4
    layer_capacitance_f: float = 256e-9
    flying_capacitance_f: float = 26e-9
    switching_frequency_hz: float = 50e6
    initial_layer_voltage: float = 1.0

    def __post_init__(self) -> None:
        if self.num_layers < 2:
            raise ValueError("need at least two layers")
        if min(
            self.layer_capacitance_f,
            self.flying_capacitance_f,
            self.switching_frequency_hz,
        ) <= 0:
            raise ValueError("capacitances and frequency must be positive")
        self.layer_voltages = np.full(
            self.num_layers, float(self.initial_layer_voltage)
        )
        # One flying cap per adjacent layer pair, pre-charged to nominal.
        self.flying_voltages = np.full(
            self.num_layers - 1, float(self.initial_layer_voltage)
        )
        self.phase = 0
        self.transferred_charge_c = 0.0
        self.dissipated_energy_j = 0.0

    # ------------------------------------------------------------------
    @property
    def half_period_s(self) -> float:
        return 0.5 / self.switching_frequency_hz

    @property
    def averaged_conductance_s(self) -> float:
        """The equivalent conductance the averaged model would use."""
        return self.switching_frequency_hz * self.flying_capacitance_f

    def _share(self, layer: int, cap: int) -> None:
        """Hard charge sharing of flying cap ``cap`` with ``layer``."""
        c_layer = self.layer_capacitance_f
        c_fly = self.flying_capacitance_f
        v_layer = self.layer_voltages[layer]
        v_fly = self.flying_voltages[cap]
        v_final = (c_layer * v_layer + c_fly * v_fly) / (c_layer + c_fly)
        moved = c_fly * (v_final - v_fly)
        # Energy lost to the (implicit) switch resistance in hard sharing:
        # E = 0.5 * Cs * dV^2 with Cs the series combination.
        series_c = c_layer * c_fly / (c_layer + c_fly)
        self.dissipated_energy_j += 0.5 * series_c * (v_layer - v_fly) ** 2
        self.transferred_charge_c += abs(moved)
        self.layer_voltages[layer] = v_final
        self.flying_voltages[cap] = v_final

    def step(self, layer_currents_a: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance one half switching period; return layer voltages.

        ``layer_currents_a`` drains each layer's capacitor linearly over
        the half period (positive = load draw; negative = supply).
        """
        if layer_currents_a is not None:
            currents = np.asarray(layer_currents_a, dtype=float)
            if currents.shape != (self.num_layers,):
                raise ValueError(
                    f"expected {self.num_layers} layer currents"
                )
            self.layer_voltages -= (
                currents * self.half_period_s / self.layer_capacitance_f
            )
        # Alternate flying-cap positions: phase 0 connects cap i to
        # layer i, phase 1 to layer i+1.
        for cap in range(self.num_layers - 1):
            layer = cap + (self.phase % 2)
            self._share(layer, cap)
        self.phase += 1
        return self.layer_voltages.copy()

    def run(
        self,
        num_half_periods: int,
        layer_currents_a: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Simulate; returns layer voltages per half period (T/2 grid)."""
        if num_half_periods <= 0:
            raise ValueError("need at least one half period")
        history = np.empty((num_half_periods, self.num_layers))
        for k in range(num_half_periods):
            history[k] = self.step(layer_currents_a)
        return history

    # ------------------------------------------------------------------
    def spread(self) -> float:
        """Current max-min layer-voltage imbalance."""
        return float(self.layer_voltages.max() - self.layer_voltages.min())

    def equalization_rate_prediction(self) -> float:
        """Averaged-model decay rate (1/s) of a two-layer imbalance."""
        return self.averaged_conductance_s / self.layer_capacitance_f


def ripple_amplitude(
    load_current_a: float,
    flying_capacitance_f: float,
    switching_frequency_hz: float,
) -> float:
    """First-order output ripple of the SC stage: dV = I / (f * C).

    The design trade-off behind the CR-IVR area model: for a given
    imbalance current, higher ``f * C`` (more area or faster switching)
    means proportionally less ripple.
    """
    if min(flying_capacitance_f, switching_frequency_hz) <= 0:
        raise ValueError("capacitance and frequency must be positive")
    if load_current_a < 0:
        raise ValueError("current cannot be negative")
    return load_current_a / (switching_frequency_hz * flying_capacitance_f)
