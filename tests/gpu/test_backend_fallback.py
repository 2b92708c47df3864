"""Loud-fallback contract of the vectorized GPU engine.

The engine's step kernel lives in the native library
(:mod:`repro.native`).  When that library fails to build, every
vectorized engine must land on its NumPy step loudly: the first failure
warns (once), each engine landing there is counted, and
``native.reset`` rearms the warning.  ``forced_fallback`` forces the
failure deterministically.
"""

import warnings

import pytest

from repro import native
from repro.gpu import GPU, KernelSpec
from tests.conftest import forced_fallback


@pytest.fixture
def forced_failure():
    with forced_fallback():
        yield


def _engine(name):
    return GPU(KernelSpec(name, body_length=40), vectorized=True).engine


def _fallback_warnings(caught):
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "falling back" in str(w.message)
    ]


class TestForcedFailure:
    def test_forced_build_failure_returns_none(self, forced_failure):
        engine = _engine("fail-none")
        assert engine._clib is None
        assert engine.backend == "numpy"
        assert native.fallback_count() == 1

    def test_first_failure_warns_once(self, forced_failure):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _engine("warn-a").backend == "numpy"
            assert _engine("warn-b").backend == "numpy"
        assert len(_fallback_warnings(caught)) == 1
        # ... but every engine landing on the slow path is counted.
        assert native.fallback_count() == 2

    def test_reset_rearms_the_warning(self, forced_failure):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert _engine("rearm-a").backend == "numpy"
        native.reset()
        assert native.fallback_count() == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _engine("rearm-b").backend == "numpy"
        assert _fallback_warnings(caught)
        assert native.fallback_count() == 1
