"""Per-SM power trace container.

A :class:`PowerTrace` is the interchange format between the GPU timing
model and the PDN analysis: a ``(cycles, num_sms)`` array of watts at a
fixed clock, with helpers for layer aggregation, imbalance statistics
and (de)serialization.  Traces let expensive GPU simulations run once
and feed many PDN experiments (the paper's trace-driven methodology).

Every trace comes from the one co-sim loop: a circuit-only lane of
:func:`repro.sim.cosim.run_cosim_batch` (``use_controller=False``, no
faults, no shutoff), whose ``result.power_trace`` is the GPU's own
waveform, since nothing from the PDN reaches the GPU in such a lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.config import StackConfig
from repro.pdn.efficiency import imbalance_fraction, layer_shuffle_power


@dataclass
class PowerTrace:
    """A per-SM power waveform sampled every clock cycle."""

    data: np.ndarray  # (cycles, num_sms) watts
    frequency_hz: float = 700e6
    name: str = "trace"

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError(f"trace must be 2-D, got shape {self.data.shape}")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if np.any(self.data < 0):
            raise ValueError("power cannot be negative")

    # ------------------------------------------------------------------
    @property
    def num_cycles(self) -> int:
        return self.data.shape[0]

    @property
    def num_sms(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_cycles / self.frequency_hz

    @property
    def dt(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def total_power(self) -> np.ndarray:
        """Chip power per cycle (sum over SMs)."""
        return self.data.sum(axis=1)

    @property
    def mean_power_w(self) -> float:
        return float(self.total_power.mean())

    def layer_powers(self, stack: StackConfig = StackConfig()) -> np.ndarray:
        """Per-layer power, shape (cycles, num_layers)."""
        if self.num_sms != stack.num_sms:
            raise ValueError(
                f"trace has {self.num_sms} SMs, stack expects {stack.num_sms}"
            )
        return self.data.reshape(
            self.num_cycles, stack.num_layers, stack.num_columns
        ).sum(axis=2)

    def sm_currents(self, sm_voltage: float = 1.0) -> np.ndarray:
        """Per-SM current assuming each SM sees ``sm_voltage``."""
        if sm_voltage <= 0:
            raise ValueError("sm_voltage must be positive")
        return self.data / sm_voltage

    def shuffle_power_w(self, stack: StackConfig = StackConfig()) -> float:
        return layer_shuffle_power(self.data, stack)

    def imbalance_fraction(self, stack: StackConfig = StackConfig()) -> float:
        return imbalance_fraction(self.data, stack)

    def window(self, start: int, stop: int) -> "PowerTrace":
        """Sub-trace over the cycle range [start, stop)."""
        if not 0 <= start < stop <= self.num_cycles:
            raise ValueError(f"bad window [{start}, {stop})")
        return PowerTrace(self.data[start:stop], self.frequency_hz, self.name)

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Serialize to a compressed ``.npz``."""
        np.savez_compressed(
            Path(path),
            data=self.data,
            frequency_hz=self.frequency_hz,
            name=np.array(self.name),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PowerTrace":
        with np.load(Path(path), allow_pickle=False) as archive:
            return cls(
                data=archive["data"],
                frequency_hz=float(archive["frequency_hz"]),
                name=str(archive["name"]),
            )
