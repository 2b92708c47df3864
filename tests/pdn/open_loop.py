"""Open-loop PDN runs: B synthetic current stimuli as B batch-solver lanes.

The paper checks its effective-impedance analysis (Section III-B) by
driving the stacked PDN open loop, without the GPU timing model or the
controller: a resonance search over square-wave frequencies, and a
residual stimulus against a global one.  :func:`run_open_loop` drives
each stimulus on its own netlist, and one
:class:`~repro.circuits.BatchTransientSolver` steps them all, so a sweep
is one batch.  The figure suite (``benchmarks/test_ablation_resonance_search.py``)
and ``tests/pdn/test_open_loop.py`` import it from here.

Each lane is the serial run it replaced, bit for bit: the DC point at
``pattern(0.0)``, ``int(settle_s / dt_s)`` settle steps, then
``int(duration_s / dt_s)`` recorded steps, with ``pattern(t)`` written
into the lane's current row before every step.  ``t`` is the solver
clock, accumulated ``t + dt`` per step from 0, and measured from the
settle's end once recording starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.circuits import BatchTransientSolver, TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import SUPPLY_SOURCE, build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters

Pattern = Callable[[float], np.ndarray]


@dataclass
class OpenLoopResult:
    """Waveforms of one open-loop lane."""

    sm_voltages: np.ndarray  # (steps, num_sms)
    supply_current: np.ndarray  # (steps,)

    @property
    def min_voltage(self) -> float:
        return float(self.sm_voltages.min())


def run_open_loop(
    patterns: Sequence[Pattern],
    duration_s: float,
    cr_ivr_area_mm2: float = 105.8,
    stack: StackConfig = StackConfig(),
    params: PDNParameters = DEFAULT_PDN,
    dt_s: float = 1.0 / 1.4e9,
    settle_s: float = 0.5e-6,
) -> List[OpenLoopResult]:
    """Drive the stacked PDN with each ``pattern(t) -> per-SM amps``.

    The patterns are the generators of :mod:`repro.workloads.synthetic`
    (layer shutoff, resonance square wave, residual square wave) or any
    callable of the same shape.  Returns one result per pattern, in
    order.
    """
    base = np.zeros((len(patterns), stack.num_sms))
    solvers = []
    for row, pattern in zip(base, patterns):
        pdn = build_stacked_pdn(
            stack=stack, params=params, cr_ivr_area_mm2=cr_ivr_area_mm2
        )
        pdn.bind_current_buffer(row)
        row[:] = pattern(0.0)
        solver = TransientSolver(pdn.circuit, dt=dt_s)
        solver.initialize_dc()
        solvers.append(solver)
    batch = BatchTransientSolver(solvers, shared_current_base=base)

    # SM k's voltage is V(top) - V(bottom); a bottom on ground reads 0.
    structure = solvers[0].structure
    top = np.empty(stack.num_sms, dtype=int)
    bottom = np.zeros(stack.num_sms, dtype=int)
    grounded = np.zeros(stack.num_sms, dtype=bool)
    for sm in range(stack.num_sms):
        top_node, bottom_node = pdn.sm_terminals(sm)
        top[sm] = structure.node(top_node)
        if bottom_node == "0":
            grounded[sm] = True
        else:
            bottom[sm] = structure.node(bottom_node)

    def step(t: float) -> np.ndarray:
        for row, pattern in zip(base, patterns):
            row[:] = pattern(t)
        return batch.step()

    time = 0.0
    for _ in range(int(settle_s / dt_s)):
        step(time)
        time = time + dt_s

    steps = int(duration_s / dt_s)
    voltages = np.empty((len(patterns), steps, stack.num_sms))
    supply = np.empty((len(patterns), steps))
    start = time
    for k in range(steps):
        node_v = step(time - start)
        time = time + dt_s
        voltages[:, k] = node_v[:, top] - np.where(
            grounded, 0.0, node_v[:, bottom]
        )
        batch.vsource_currents(SUPPLY_SOURCE, out=supply[:, k])
    return [OpenLoopResult(v, i) for v, i in zip(voltages, supply)]
