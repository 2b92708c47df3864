"""Loud-fallback contract of the batched transient solver.

``BatchTransientSolver.step_n`` runs its compiled kernel from the native
library (:mod:`repro.native`).  When that library fails to build, every
eligible batch solver must land on its NumPy batch step loudly: the
first failure warns (once), each solver landing there is counted, and
``native.reset`` rearms the warning.  ``forced_fallback`` forces the
failure deterministically.
"""

import warnings

import numpy as np
import pytest

from repro import native
from repro.circuits import BatchTransientSolver
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN
from tests.conftest import forced_fallback

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms


@pytest.fixture
def forced_failure():
    with forced_fallback():
        yield


def _eligible_batch(n_lanes=2):
    """A batch solver whose circuit qualifies for the compiled kernel."""
    currents = np.zeros((n_lanes, NUM_SMS))
    solvers = []
    for i in range(n_lanes):
        pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
        pdn.bind_current_buffer(currents[i])
        solvers.append(TransientSolver(pdn.circuit, dt=DT))
    return BatchTransientSolver(solvers, shared_current_base=currents)


def _fallback_warnings(caught):
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "falling back" in str(w.message)
    ]


class TestForcedFailure:
    def test_forced_build_failure_returns_none(self, forced_failure):
        batch = _eligible_batch()
        assert batch.active_backend == "numpy"
        assert batch._clib is None
        assert native.fallback_count() == 1
        # The NumPy batch step still runs.
        assert np.all(np.isfinite(batch.step_n(2)))

    def test_first_failure_warns_once(self, forced_failure):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _eligible_batch().active_backend == "numpy"
            assert _eligible_batch().active_backend == "numpy"
        assert len(_fallback_warnings(caught)) == 1
        # ... but every solver landing on the slow path is counted.
        assert native.fallback_count() == 2

    def test_reset_rearms_the_warning(self, forced_failure):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert _eligible_batch().active_backend == "numpy"
        native.reset()
        assert native.fallback_count() == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _eligible_batch().active_backend == "numpy"
        assert _fallback_warnings(caught)
        assert native.fallback_count() == 1
