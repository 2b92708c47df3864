"""Power delivery efficiency (PDE) accounting — Fig. 8 and Table III.

Each PDS configuration turns a useful load power into a board-side input
power through a different chain of losses:

* **conventional VRM**: board VRM conversion loss (``1 - eta_vrm``) plus
  I^2 R loss at the full core current (power crosses the PDN at ~1 V);
* **single-layer IVR**: smaller PDN loss (power crosses at ~2 V) plus
  on-chip conversion loss plus a light board front-end stage;
* **voltage stacking**: *no* conversion stage, PDN loss at a quarter of
  the current, but the CR-IVRs dissipate a slice of whatever power they
  shuffle between imbalanced layers, plus quiescent bias, level-shifter
  interfaces and (cross-layer only) the smoothing controller.

The stacked configurations take the *shuffled power* from the workload's
actual layer imbalance (:func:`layer_shuffle_power`) which is what makes
PDE vary across benchmarks in Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.config import StackConfig
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Where the board-side input power went (all watts)."""

    useful_power: float
    conversion_loss: float
    pdn_loss: float
    regulator_loss: float  # IVR / CR-IVR internal dissipation
    other_loss: float  # controller, quiescent bias, level shifters

    def __post_init__(self) -> None:
        if self.useful_power <= 0:
            raise ValueError(
                f"useful power must be positive, got {self.useful_power}"
            )
        for label in ("conversion_loss", "pdn_loss", "regulator_loss", "other_loss"):
            if getattr(self, label) < -1e-12:
                raise ValueError(f"{label} must be non-negative")

    @property
    def input_power(self) -> float:
        return (
            self.useful_power
            + self.conversion_loss
            + self.pdn_loss
            + self.regulator_loss
            + self.other_loss
        )

    @property
    def total_loss(self) -> float:
        return self.input_power - self.useful_power

    @property
    def pde(self) -> float:
        """Power delivery efficiency: useful / board input."""
        return self.useful_power / self.input_power

    def fractions(self) -> Dict[str, float]:
        """Normalized breakdown (sums to 1), as plotted in Fig. 8."""
        total = self.input_power
        return {
            "useful": self.useful_power / total,
            "conversion": self.conversion_loss / total,
            "pdn": self.pdn_loss / total,
            "regulator": self.regulator_loss / total,
            "other": self.other_loss / total,
        }


# ---------------------------------------------------------------------------
# Per-configuration analytic models
# ---------------------------------------------------------------------------
def pde_conventional(
    load_power_w: float,
    core_voltage: float = 1.0,
    params: PDNParameters = DEFAULT_PDN,
) -> EfficiencyBreakdown:
    """Conventional single-layer PDS with a board VRM (Table III row 1)."""
    _check_load(load_power_w)
    current = load_power_w / core_voltage
    pdn_loss = current**2 * params.series_resistance
    after_vrm = load_power_w + pdn_loss
    input_power = after_vrm / params.vrm_efficiency
    return EfficiencyBreakdown(
        useful_power=load_power_w,
        conversion_loss=input_power - after_vrm,
        pdn_loss=pdn_loss,
        regulator_loss=0.0,
        other_loss=0.0,
    )


def pde_single_ivr(
    load_power_w: float,
    params: PDNParameters = DEFAULT_PDN,
) -> EfficiencyBreakdown:
    """Single-layer PDS with an on-chip SC IVR (Table III row 2).

    Power crosses the PDN at ``params.ivr_input_voltage`` and is
    converted at the point of load by the IVR.
    """
    _check_load(load_power_w)
    chip_input = load_power_w / params.ivr_efficiency
    current = chip_input / params.ivr_input_voltage
    pdn_loss = current**2 * params.series_resistance
    before_front = chip_input + pdn_loss
    input_power = before_front / params.board_front_efficiency
    return EfficiencyBreakdown(
        useful_power=load_power_w,
        conversion_loss=input_power - before_front,
        pdn_loss=pdn_loss,
        regulator_loss=chip_input - load_power_w,
        other_loss=0.0,
    )


def pde_voltage_stacked(
    load_power_w: float,
    shuffled_power_w: float,
    stack: StackConfig = StackConfig(),
    params: PDNParameters = DEFAULT_PDN,
    controller_power_w: float = 0.0,
) -> EfficiencyBreakdown:
    """Voltage-stacked PDS (Table III rows 3-4).

    ``shuffled_power_w`` is the average power the CR-IVRs move between
    layers (from :func:`layer_shuffle_power`); ``controller_power_w`` is
    zero for the circuit-only configuration and the synthesized
    controller power for the cross-layer one.
    """
    _check_load(load_power_w)
    if shuffled_power_w < 0:
        raise ValueError(f"shuffled power must be non-negative, got {shuffled_power_w}")
    current = load_power_w / stack.board_voltage
    pdn_loss = current**2 * params.series_resistance
    eta = params.cr_shuffle_efficiency
    regulator_loss = shuffled_power_w * (1.0 - eta) / eta
    other = (
        params.cr_quiescent_power
        + params.level_shifter_overhead * load_power_w
        + controller_power_w
    )
    return EfficiencyBreakdown(
        useful_power=load_power_w,
        conversion_loss=0.0,
        pdn_loss=pdn_loss,
        regulator_loss=regulator_loss,
        other_loss=other,
    )


# ---------------------------------------------------------------------------
# Workload-derived imbalance
# ---------------------------------------------------------------------------
def layer_shuffle_power(
    per_sm_power: np.ndarray, stack: StackConfig = StackConfig()
) -> float:
    """Average power the CR-IVRs must shuffle for a workload trace.

    ``per_sm_power`` has shape ``(cycles, num_sms)`` (watts, flat SM
    order).  At each instant the series stack forces one common current,
    so layers above the mean layer power must have their excess charge
    recycled downward: the shuffled power is
    ``sum_l max(0, P_l - mean_layer_power)`` averaged over time.
    """
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    if per_sm_power.shape[1] != stack.num_sms:
        raise ValueError(
            f"expected {stack.num_sms} SM columns, got {per_sm_power.shape[1]}"
        )
    # Column by column, each sum in index order: NumPy adds a row
    # shorter than eight in that order too, so these are the bits of its
    # row reductions (NaN payloads and signed zeros included), at a
    # fraction of their cost on a trace's short rows.
    columns = stack.num_columns
    layers = [
        _ordered_sum(
            per_sm_power[:, layer * columns + column]
            for column in range(columns)
        )
        for layer in range(stack.num_layers)
    ]
    mean_layer = _ordered_sum(layers) / stack.num_layers
    excess = _ordered_sum(
        np.clip(layer - mean_layer, 0.0, None) for layer in layers
    )
    return float(excess.mean())


def _ordered_sum(arrays) -> np.ndarray:
    """``((a0 + a1) + a2) + ...`` of equal-shape arrays."""
    arrays = iter(arrays)
    total = next(arrays)
    for arr in arrays:
        total = total + arr
    return total


def imbalance_fraction(
    per_sm_power: np.ndarray, stack: StackConfig = StackConfig()
) -> float:
    """Shuffled power as a fraction of total delivered power.

    The paper observes this is "usually less than 20 % of the layer
    power" for SPMD workloads — the key reason voltage stacking wins.
    """
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    total = float(per_sm_power.sum(axis=1).mean())
    if total <= 0:
        raise ValueError("total power must be positive")
    return layer_shuffle_power(per_sm_power, stack) / total


def _check_load(load_power_w: float) -> None:
    if load_power_w <= 0:
        raise ValueError(f"load power must be positive, got {load_power_w}")
