"""The per-element transient step, kept as the solver's bit-identity oracle.

``TransientSolver`` steps through precomputed scatter/gather index maps
(one ``bincount`` per step).  This module keeps the loop those maps
replaced: the RHS is assembled source by source and element by element,
solved with ``scipy.linalg.lu_solve``, and the companion state updated
one element at a time.  The shipped step emits its RHS accumulation in
this loop's execution order, so the two agree bit for bit.

The bodies below are the former ``TransientSolver._step_naive`` and
``_fast_rhs`` verbatim.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_solve

from repro.circuits import TransientSolver


def _across(solution: np.ndarray, pos, neg) -> float:
    vp = solution[pos] if pos is not None else 0.0
    vn = solution[neg] if neg is not None else 0.0
    return float(vp - vn)


class NaiveTransientSolver(TransientSolver):
    """A :class:`TransientSolver` whose ``step`` is the reference loop."""

    def _fast_rhs(self, t: float) -> np.ndarray:
        """RHS from independent sources using the cached index maps."""
        rhs = np.zeros(self.structure.size, dtype=float)
        for source, pos, neg in zip(self._current_sources, self._cs_pos, self._cs_neg):
            current = source.current_at(t)
            if pos is not None:
                rhs[pos] -= current
            if neg is not None:
                rhs[neg] += current
        for row, source in self._vs_rows:
            rhs[row] = source.voltage_at(t)
        return rhs

    def step(self) -> np.ndarray:
        self.stats.steps += 1
        t_next = self.time + self.dt
        rhs = self._fast_rhs(t_next)

        ieq_cap = self._g_cap * self._cap_v + self._cap_i
        for (p, n), ieq in zip(self._cap_nodes, ieq_cap):
            if p is not None:
                rhs[p] += ieq
            if n is not None:
                rhs[n] -= ieq

        ieq_ind = self._ind_i + self._g_ind * self._ind_v
        for (p, n), ieq in zip(self._ind_nodes, ieq_ind):
            if p is not None:
                rhs[p] -= ieq
            if n is not None:
                rhs[n] += ieq

        solution = lu_solve(self._lu, rhs)
        self._last_rhs = rhs

        for k, (p, n) in enumerate(self._cap_nodes):
            v_new = _across(solution, p, n)
            self._cap_i[k] = self._g_cap[k] * v_new - ieq_cap[k]
            self._cap_v[k] = v_new
        for k, (p, n) in enumerate(self._ind_nodes):
            v_new = _across(solution, p, n)
            self._ind_i[k] = self._g_ind[k] * v_new + ieq_ind[k]
            self._ind_v[k] = v_new

        self.time = t_next
        self.solution = solution
        return solution[: self.structure.num_nodes]
