"""The per-cycle imbalance decomposition, kept as a bit-identity oracle.

``repro.analysis.spectral.imbalance_series`` vectorizes this loop over
cycles; ``tests/analysis/test_spectral.py`` and
``benchmarks/test_perf_spectral.py`` compare the two bit for bit.  The
body below is the former ``spectral._imbalance_series_reference``
verbatim.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import StackConfig
from repro.pdn.impedance import decompose_currents


def imbalance_series_reference(
    per_sm_power: np.ndarray,
    stack: StackConfig = StackConfig(),
) -> Dict[str, np.ndarray]:
    """Per-cycle reference loop behind ``imbalance_series``.

    Calls ``decompose_currents`` once per cycle.
    """
    per_sm_power = np.atleast_2d(np.asarray(per_sm_power, dtype=float))
    if per_sm_power.shape[1] != stack.num_sms:
        raise ValueError(
            f"expected {stack.num_sms} SM columns, got {per_sm_power.shape[1]}"
        )
    cycles = per_sm_power.shape[0]
    global_series = np.empty(cycles)
    stack_series = np.empty(cycles)
    residual_series = np.empty(cycles)
    for k in range(cycles):
        g, st, r = decompose_currents(
            per_sm_power[k], stack.num_layers, stack.num_columns
        )
        global_series[k] = g[0]
        stack_series[k] = st[0]
        residual_series[k] = r[0]
    return {
        "global": global_series,
        "stack": stack_series,
        "residual": residual_series,
    }
