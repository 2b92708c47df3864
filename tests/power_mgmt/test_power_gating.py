"""Tests for the Warped-Gates power gating controller.

The controller drives one SM through its per-SM surface.  Each gating
behaviour runs on two SMs: SM 0 of an engine GPU stepped whole
(``gpu.step()``, the production path; :class:`TestGatingBehaviour`) and
a standalone per-object oracle SM
(:class:`TestGatingBehaviourOnTheOracle`).
"""

import pytest

from repro.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import UNIT_ORDER, KernelSpec
from repro.power_mgmt.power_gating import (
    PowerGatingConfig,
    WarpedGatesController,
)
from tests.oracles.per_object_gpu import (
    GatingAwareScheduler,
    PerRequestMemory,
    StreamingMultiprocessor,
)

ALU_ONLY = KernelSpec(
    "alu_only", mix={InstructionClass.FALU: 1.0}, body_length=400,
    dependence=0.2,
)
MIXED = KernelSpec(
    "mixed",
    mix={InstructionClass.FALU: 0.7, InstructionClass.LOAD: 0.3},
    body_length=300,
)


class EngineSM:
    """SM 0 of an engine GPU; a step advances the whole GPU."""

    def __init__(self, spec, seed=0, miss_ratio=0.0, gating_aware=False):
        self.gpu = GPU(spec, seed=seed, miss_ratio=miss_ratio,
                       gating_aware_scheduler=gating_aware)
        self.sm = self.gpu.sms[0]

    def step(self, cycle):
        self.gpu.step()


class OracleSM:
    """A standalone per-object oracle SM."""

    def __init__(self, spec, seed=0, miss_ratio=0.0, gating_aware=False):
        self.sm = StreamingMultiprocessor(
            0, spec, PerRequestMemory(miss_ratio=miss_ratio, seed=seed), seed=seed,
            scheduler=GatingAwareScheduler() if gating_aware else None,
        )

    def step(self, cycle):
        self.sm.step(cycle)


def run_with_pg(harness, controller, cycles):
    for cycle in range(cycles):
        controller.step(cycle)
        harness.step(cycle)


class TestConfig:
    def test_defaults_valid(self):
        PowerGatingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"idle_detect_cycles": 0},
            {"break_even_cycles": 0},
            {"blackout_cycles": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PowerGatingConfig(**kwargs)


class TestGatingBehaviour:
    """On SM 0 of an engine GPU."""

    harness = EngineSM

    def test_idle_units_get_gated(self):
        h = self.harness(ALU_ONLY, seed=1)
        pg = WarpedGatesController(h.sm)
        run_with_pg(h, pg, 300)
        # SFU and LSU never used by an ALU-only kernel: both gated.
        assert ExecUnit.SFU in h.sm.gated_units
        assert ExecUnit.LSU in h.sm.gated_units
        assert pg.stats.gating_events >= 2

    def test_alu_not_gateable_by_default(self):
        h = self.harness(ALU_ONLY, seed=2)
        pg = WarpedGatesController(h.sm)
        run_with_pg(h, pg, 300)
        assert ExecUnit.ALU not in h.sm.gated_units

    def test_gated_cycles_accumulate(self):
        h = self.harness(ALU_ONLY, seed=3)
        pg = WarpedGatesController(h.sm)
        run_with_pg(h, pg, 500)
        assert pg.stats.gated_cycles[ExecUnit.SFU] > 300

    def test_demand_wakes_unit_after_blackout(self):
        h = self.harness(MIXED, seed=4)
        pg = WarpedGatesController(h.sm)
        run_with_pg(h, pg, 1500)
        # LSU is in demand: it must not be permanently gated and loads
        # must keep flowing.
        assert h.sm.stats.instructions_issued > 500

    def test_gating_saves_energy(self):
        h = self.harness(ALU_ONLY, seed=5)
        pg = WarpedGatesController(h.sm)
        run_with_pg(h, pg, 800)
        saved = pg.leakage_energy_saved_j(sm_leakage_w=1.2)
        assert saved > 0

    def test_energy_accounting_validates(self):
        pg = WarpedGatesController(self.harness(ALU_ONLY).sm)
        with pytest.raises(ValueError):
            pg.leakage_energy_saved_j(sm_leakage_w=0.0)


class TestGatingBehaviourOnTheOracle(TestGatingBehaviour):
    """The same behaviours on a standalone per-object oracle SM."""

    harness = OracleSM


class TestGATESIntegration:
    def test_scheduler_active_units_updated(self):
        """The controller writes the units it leaves on into the oracle
        scheduler's ``active_units`` and the engine's active row alike."""
        oracle = OracleSM(ALU_ONLY, seed=6, gating_aware=True)
        engine = EngineSM(ALU_ONLY, seed=6, gating_aware=True)
        for h in (oracle, engine):
            run_with_pg(h, WarpedGatesController(h.sm), 300)
        active = oracle.sm.scheduler.active_units
        assert ExecUnit.SFU not in active
        assert ExecUnit.ALU in active
        assert engine.gpu.engine._active[0].tolist() == [
            unit in active for unit in UNIT_ORDER
        ]
