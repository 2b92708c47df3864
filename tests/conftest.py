"""Shared fixtures: deterministic runtime-chaos activation.

The chaos harness (:mod:`repro.faults.chaos`) is process-global by
design (hook sites cannot thread a handle through the simulation
stack), so tests must never leak an active plan into their neighbours.
``chaos_plan`` activates a plan for one test body and guarantees
deactivation afterwards, pass or fail.
"""

import pytest

from repro.faults import chaos as chaos_module


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
