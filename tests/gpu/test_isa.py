"""Unit tests for the instruction set definitions."""

import pytest

from repro.gpu.isa import (
    ENERGY,
    LATENCY,
    UNIT_FOR_CLASS,
    ExecUnit,
    InstructionClass,
)
from tests.oracles.per_object_gpu import FAKE_INSTRUCTION, Instruction


class TestCoverage:
    def test_every_class_has_unit_latency_energy(self):
        for cls in InstructionClass:
            assert cls in UNIT_FOR_CLASS
            assert cls in LATENCY
            assert cls in ENERGY

    def test_energies_positive_nanojoule_scale(self):
        for cls, energy in ENERGY.items():
            assert 0 < energy < 20e-9, cls

    def test_memory_ops_use_lsu(self):
        assert UNIT_FOR_CLASS[InstructionClass.LOAD] is ExecUnit.LSU
        assert UNIT_FOR_CLASS[InstructionClass.STORE] is ExecUnit.LSU

    def test_transcendentals_use_sfu(self):
        assert UNIT_FOR_CLASS[InstructionClass.SFU] is ExecUnit.SFU


class TestInstruction:
    def test_properties_delegate_to_tables(self):
        i = Instruction(InstructionClass.FMA, dest=3, srcs=(1, 2))
        assert i.unit is ExecUnit.ALU
        assert i.latency == LATENCY[InstructionClass.FMA]
        assert i.energy == ENERGY[InstructionClass.FMA]

    def test_fake_instruction_has_no_dest(self):
        assert FAKE_INSTRUCTION.dest == -1
        assert FAKE_INSTRUCTION.srcs == ()

    def test_fake_energy_mimics_alu_op(self):
        # FII must draw real power to be an effective actuator.
        assert ENERGY[InstructionClass.FAKE] == pytest.approx(
            ENERGY[InstructionClass.FALU]
        )
