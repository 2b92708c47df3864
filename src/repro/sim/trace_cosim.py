"""Open-loop PDN simulation driven by a synthetic current pattern.

Drives the stacked PDN with per-SM currents given as a function of
time, without the GPU timing model or the controller.  Used where the
paper's methodology is open loop: time-domain validation of the
impedance analysis (resonance search, residual vs global droop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters


@dataclass
class TraceCosimResult:
    """Waveforms from an open-loop current-pattern run."""

    sm_voltages: np.ndarray  # (steps, num_sms)
    supply_current: np.ndarray  # (steps,)

    @property
    def min_voltage(self) -> float:
        return float(self.sm_voltages.min())


def run_current_pattern(
    pattern,
    duration_s: float,
    cr_ivr_area_mm2: float = 105.8,
    stack: StackConfig = StackConfig(),
    params: PDNParameters = DEFAULT_PDN,
    dt_s: float = 1.0 / 1.4e9,
    settle_s: float = 0.5e-6,
) -> TraceCosimResult:
    """Drive the stacked PDN with a synthetic current pattern.

    ``pattern(t) -> per-SM amps`` is one of the generators in
    :mod:`repro.workloads.synthetic` (layer shutoff, resonance square
    wave, ...).  Used by impedance validation: sweeping a resonance
    pattern's frequency and finding the empirical worst-droop frequency
    must land on the AC analysis's peak.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    pdn = build_stacked_pdn(
        stack=stack, params=params, cr_ivr_area_mm2=cr_ivr_area_mm2
    )
    solver = TransientSolver(pdn.circuit, dt=dt_s)
    first = np.asarray(pattern(0.0), dtype=float)
    if first.shape != (stack.num_sms,):
        raise ValueError(
            f"pattern gives {first.shape} currents, the stack has "
            f"{stack.num_sms} SMs"
        )
    pdn.set_sm_currents(first)
    solver.initialize_dc()
    for _ in range(int(settle_s / dt_s)):
        pdn.set_sm_currents(np.asarray(pattern(solver.time), dtype=float))
        solver.step()

    num = stack.num_sms
    top_idx = np.empty(num, dtype=int)
    bot_idx = np.empty(num, dtype=int)
    bot_is_ground = np.zeros(num, dtype=bool)
    for sm in range(num):
        top, bottom = pdn.sm_terminals(sm)
        top_idx[sm] = solver.structure.node(top)
        if bottom == "0":
            bot_is_ground[sm] = True
            bot_idx[sm] = 0
        else:
            bot_idx[sm] = solver.structure.node(bottom)

    steps = int(duration_s / dt_s)
    voltages = np.empty((steps, num))
    supply = np.empty(steps)
    start_time = solver.time
    for k in range(steps):
        t = solver.time - start_time
        pdn.set_sm_currents(np.asarray(pattern(t), dtype=float))
        node_v = solver.step()
        bottoms = np.where(bot_is_ground, 0.0, node_v[bot_idx])
        voltages[k] = node_v[top_idx] - bottoms
        supply[k] = solver.vsource_current("vdd")
    return TraceCosimResult(voltages, supply)
