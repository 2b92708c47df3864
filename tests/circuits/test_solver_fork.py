"""``TransientSolver.fork``: lanes over one shared circuit and LU.

A fork shares what its steps only read (circuit, MNA structure, matrix,
LU, index maps) and owns everything a step, a step-size change or a
refactorization writes, so it must step byte-equal to a solver built
from scratch, and nothing one fork does may reach its template or a
sibling.  ``rebind_sources`` moves only the calling solver's current
gather.
"""

import numpy as np
import pytest

from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn

DT = 1.0 / 1400e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS


def _solver(area=105.8, currents=None):
    """A PDN solver at its DC operating point, as the co-sim builds it
    (at ``currents``, or the nominal draw on every SM)."""
    pdn = build_stacked_pdn(cr_ivr_area_mm2=area)
    solver = TransientSolver(pdn.circuit, dt=DT)
    pdn.set_sm_currents(
        np.full(NUM_SMS, NOMINAL_A) if currents is None else currents
    )
    solver.initialize_dc()
    return solver


def _state(solver):
    return [
        np.array(a).tobytes() for a in (
            solver._react_v, solver._react_i, solver._react_g,
            solver.solution, solver._matrix, solver._lu[0], solver._lu[1],
        )
    ] + [solver.time, solver.dt]


def _drive(solver, currents, steps):
    out = []
    for k in range(steps):
        currents[:] = NOMINAL_A * (0.5 + 0.05 * ((k * 7) % 11))
        out.append(solver.step().copy())
    return np.array(out)


class TestFork:
    def test_fork_steps_like_a_solver_built_from_scratch(self):
        """Same waveforms, state and stats as a freshly built lane."""
        template = _solver()
        mine = np.full(NUM_SMS, NOMINAL_A)
        fork = template.fork(mine)
        fresh = _solver()
        theirs = fresh._cs_batches[0][0]
        assert _state(fork) == _state(fresh)
        assert fork.stats == fresh.stats
        got, want = _drive(fork, mine, 40), _drive(fresh, theirs, 40)
        assert got.tobytes() == want.tobytes()
        assert _state(fork) == _state(fresh)
        assert fork.stats == fresh.stats

    def test_nothing_a_fork_does_reaches_its_template_or_a_sibling(self):
        """Steps, a step-size change, a refactorization and poisoned
        state on one fork leave the template and a sibling alone."""
        template = _solver()
        before = _state(template)
        a = template.fork(np.full(NUM_SMS, NOMINAL_A))
        b = template.fork(np.full(NUM_SMS, NOMINAL_A))
        sibling = _state(b)
        _drive(a, a._cs_batches[0][0], 5)
        a.set_dt(DT / 4)
        a.refactor()
        a._react_v[:] = np.nan
        a._react_g[:] = np.nan
        a.solution[:] = np.nan
        a._vals[:] = np.nan
        a._vs_values[:] = np.nan
        a.stats.steps += 100
        assert _state(template) == before
        assert _state(b) == sibling
        assert template.stats.steps == b.stats.steps == 0
        assert b._matrix is template._matrix and b._lu is template._lu

    def test_fork_is_not_batch_owned(self):
        template = _solver()
        assert template.fork(np.zeros(NUM_SMS))._batch_owner is None

    @pytest.mark.parametrize("area", [0.0, 105.8])
    def test_fork_dc_point_comes_from_its_own_currents(self, area):
        """A fork's ``initialize_dc()`` solves at the currents in its own
        buffer, bit-equal to a solver over its own netlist at them, and
        leaves the template's operating point alone."""
        template = _solver(area)
        before = _state(template)
        row = NOMINAL_A * np.linspace(0.25, 1.75, NUM_SMS)
        fork = template.fork(row)
        fork.initialize_dc()
        assert _state(fork) == _state(_solver(area, row))
        assert _state(template) == before


class TestRebindSources:
    def test_rebinding_moves_only_this_solvers_gather(self):
        template = _solver()
        first = np.full(NUM_SMS, NOMINAL_A)
        second = np.full(NUM_SMS, 2 * NOMINAL_A)
        a, b = template.fork(first), template.fork(first.copy())
        a.rebind_sources(second)
        assert a._cs_batches[0][0] is second
        assert b._cs_batches[0][0] is not second
        # The circuit's sources keep the template's buffer.
        source = template._current_sources[0]
        assert source.batch is template._cs_batches[0][0]
        # Driven by the same currents, the rebound fork follows them.
        c = template.fork(second.copy())
        assert _drive(a, second, 10).tobytes() == _drive(
            c, c._cs_batches[0][0], 10
        ).tobytes()

    def test_rebound_dc_point_comes_from_the_new_buffer(self):
        row = NOMINAL_A * np.linspace(1.75, 0.25, NUM_SMS)
        solver = _solver()
        solver.rebind_sources(row)
        solver.initialize_dc()
        assert _state(solver) == _state(_solver(currents=row))

    def test_wrong_shape_is_rejected(self):
        solver = _solver()
        with pytest.raises(ValueError, match="shape"):
            solver.rebind_sources(np.zeros(NUM_SMS + 1))
