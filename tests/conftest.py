"""Shared fixtures: deterministic runtime-chaos activation, and the one
seam between the compiled and the NumPy paths.

The chaos harness (:mod:`repro.faults.chaos`) is process-global by
design (hook sites cannot thread a handle through the simulation
stack), so tests must never leak an active plan into their neighbours.
``chaos_plan`` activates a plan for one test body and guarantees
deactivation afterwards, pass or fail.

Whether the native library (:mod:`repro.native`) loaded is the only
compiled-or-NumPy decision.  :func:`forced_fallback` runs a body as if
it had failed to build, so every object created inside takes its NumPy
path; tests marked ``native`` (they assert compiled execution) skip
when the library is unavailable, e.g. under ``REPRO_CBUILD=fail``.
"""

import os
import warnings
from contextlib import contextmanager

import pytest

from repro import native
from repro.faults import chaos as chaos_module


@contextmanager
def forced_fallback():
    """Run the body with the native library forced unavailable.

    GPU engines, batch solvers and co-sim batches created inside take
    their NumPy paths.  The library's cached load and fallback
    accounting are reset on entry and exit, so the body counts its own
    fallbacks and neighbours reload the library.
    """
    saved = os.environ.get(native.CBUILD_ENV)
    os.environ[native.CBUILD_ENV] = "fail"
    native.reset()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "native library unavailable", RuntimeWarning
            )
            yield
    finally:
        if saved is None:
            del os.environ[native.CBUILD_ENV]
        else:
            os.environ[native.CBUILD_ENV] = saved
        native.reset()


def pytest_runtest_setup(item):
    if item.get_closest_marker("native") is not None and native.load() is None:
        pytest.skip("native library unavailable")


@pytest.fixture
def chaos_plan():
    """Activate a :class:`~repro.faults.chaos.ChaosPlan` for this test.

    Usage::

        monkey = chaos_plan(ChaosPlan("name", [ChaosEvent(...)]))

    The plan stays active until the test ends; the fixture deactivates
    it on teardown so no chaos escapes the test.
    """

    def _activate(plan):
        return chaos_module.activate(plan)

    yield _activate
    chaos_module.deactivate()


@pytest.fixture(autouse=True)
def _no_chaos_leak():
    """Backstop: any test that activates chaos directly still cleans up."""
    yield
    chaos_module.deactivate()
