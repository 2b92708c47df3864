"""Tests for the PDN netlist builders."""

import numpy as np
import pytest

from repro.circuits import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import (
    build_conventional_pdn,
    build_stacked_pdn,
    sm_node,
    tap_node,
)


class TestStackedTopology:
    def test_default_has_16_sm_sources(self):
        pdn = build_stacked_pdn()
        assert len(pdn.sm_sources) == 16

    def test_sm_terminals_follow_layer_indexing(self):
        pdn = build_stacked_pdn()
        # Bottom layer SM 0: between boundary 1 and boundary 0 of column 0.
        assert pdn.sm_terminals(0) == (tap_node(1, 0), tap_node(0, 0))
        # Top layer, last column (SM 15): boundaries 4 and 3 of column 3.
        assert pdn.sm_terminals(15) == (tap_node(4, 3), tap_node(3, 3))

    def test_cr_ivr_attached_when_area_positive(self):
        pdn = build_stacked_pdn(cr_ivr_area_mm2=100.0)
        assert pdn.cr_ivr is not None
        # 4 columns x 3 interior boundaries = 12 stamps.
        names = [e.name for e in pdn.circuit if e.name.startswith("crivr")]
        assert len(names) == 12

    def test_no_cr_ivr_by_default(self):
        pdn = build_stacked_pdn()
        assert pdn.cr_ivr is None
        assert not any(e.name.startswith("crivr") for e in pdn.circuit)

    @pytest.mark.parametrize("area", [-5.0, -1e-9, np.nan, np.inf, -np.inf])
    def test_rejects_negative_or_non_finite_area(self, area):
        """Such an area used to build a stack without a CR-IVR."""
        with pytest.raises(ValueError, match="cr_ivr_area_mm2"):
            build_stacked_pdn(cr_ivr_area_mm2=area)

    def test_zero_area_means_no_cr_ivr(self):
        assert build_stacked_pdn(cr_ivr_area_mm2=0.0).cr_ivr is None

    def test_load_conductance_optional(self):
        with_g = build_stacked_pdn(include_load_conductance=True)
        without_g = build_stacked_pdn(include_load_conductance=False)
        assert any(e.name.startswith("g_sm") for e in with_g.circuit)
        assert not any(e.name.startswith("g_sm") for e in without_g.circuit)

    def test_two_layer_stack_supported(self):
        stack = StackConfig(num_layers=2, num_columns=2, board_voltage=2.0)
        pdn = build_stacked_pdn(stack=stack)
        assert len(pdn.sm_sources) == 4
        assert pdn.sm_terminals(3) == (tap_node(2, 1), tap_node(1, 1))


class TestCurrentBuffer:
    def test_builder_binds_shared_buffer(self):
        pdn = build_stacked_pdn()
        assert pdn.sm_current_values is not None
        assert pdn.sm_current_values.shape == (16,)
        for k, source in enumerate(pdn.sm_sources):
            assert source.batch is pdn.sm_current_values
            assert source.batch_index == k

    def test_set_sm_currents_is_one_write(self):
        pdn = build_stacked_pdn()
        amps = np.linspace(0.5, 2.0, 16)
        pdn.set_sm_currents(amps)
        assert np.array_equal(pdn.sm_current_values, amps)
        for k, source in enumerate(pdn.sm_sources):
            assert source.current_at(0.0) == amps[k]

    def test_conventional_pdn_also_bound(self):
        pdn = build_conventional_pdn()
        assert pdn.sm_current_values is not None
        pdn.set_sm_currents(np.full(16, 1.5))
        assert all(s.current_at(0.0) == 1.5 for s in pdn.sm_sources)

    def test_unbound_fallback_uses_override(self):
        pdn = build_stacked_pdn()
        pdn.sm_current_values = None
        for source in pdn.sm_sources:
            source.batch = None
        pdn.set_sm_currents(np.full(16, 2.5))
        assert all(s.override == 2.5 for s in pdn.sm_sources)


class TestStackedDCBehaviour:
    def test_balanced_load_divides_supply_evenly(self):
        pdn = build_stacked_pdn()
        solver = TransientSolver(pdn.circuit, dt=1e-10)
        pdn.set_sm_currents(np.full(16, 5.0))
        solver.initialize_dc()
        voltages = [pdn.sm_voltage(solver, sm) for sm in range(16)]
        # Balanced currents: every SM sits near board_voltage / 4.
        assert all(abs(v - 4.1 / 4) < 0.02 for v in voltages)

    def test_imbalanced_layer_droops_without_cr_ivr(self):
        pdn = build_stacked_pdn()
        solver = TransientSolver(pdn.circuit, dt=1e-10)
        currents = np.full(16, 5.0)
        currents[0:4] = 7.0  # bottom layer draws more
        pdn.set_sm_currents(currents)
        solver.initialize_dc()
        bottom = pdn.sm_voltage(solver, 0)
        top = pdn.sm_voltage(solver, 12)
        assert bottom < 1.0 < top  # hungry layer starves, light layer rises

    def test_cr_ivr_restores_imbalanced_layer(self):
        currents = np.full(16, 5.0)
        currents[0:4] = 7.0
        droops = {}
        for area in (0.0, 900.0):
            pdn = build_stacked_pdn(cr_ivr_area_mm2=area)
            solver = TransientSolver(pdn.circuit, dt=1e-10)
            pdn.set_sm_currents(currents)
            solver.initialize_dc()
            droops[area] = 4.1 / 4 - pdn.sm_voltage(solver, 0)
        assert droops[900.0] < 0.3 * droops[0.0]

    def test_supply_current_measured(self):
        pdn = build_stacked_pdn()
        solver = TransientSolver(pdn.circuit, dt=1e-10)
        pdn.set_sm_currents(np.full(16, 4.0))
        solver.initialize_dc()
        # Series stack: board current ~ one layer's total (4 SMs x 4 A)
        # plus the load-conductance draw.
        i_in = solver.vsource_current("vdd")
        assert 15.0 < i_in < 25.0


class TestConventionalTopology:
    def test_has_per_sm_nodes_and_sources(self):
        pdn = build_conventional_pdn()
        assert len(pdn.sm_sources) == 16
        assert sm_node(0) in pdn.record_nodes()

    def test_rejects_nonpositive_sm_count(self):
        with pytest.raises(ValueError):
            build_conventional_pdn(num_sms=0)

    def test_dc_rail_near_supply(self):
        pdn = build_conventional_pdn()
        solver = TransientSolver(pdn.circuit, dt=1e-10)
        pdn.set_sm_currents(np.full(16, 5.0))
        solver.initialize_dc()
        v = pdn.sm_voltage(solver, 5)
        # 80 A through ~1 mohm: tens of millivolts of IR drop.
        assert 0.85 < v < 1.0

    def test_board_supplies_full_current(self):
        pdn = build_conventional_pdn()
        solver = TransientSolver(pdn.circuit, dt=1e-10)
        pdn.set_sm_currents(np.full(16, 5.0))
        solver.initialize_dc()
        # All 16 SM currents flow through the single rail.
        assert solver.vsource_current("vdd") > 16 * 5.0 * 0.95

    def test_grid_links_couple_neighbours(self):
        pdn = build_conventional_pdn()
        names = {e.name for e in pdn.circuit}
        assert "r_link_h0" in names
        assert "r_link_v0" in names
        # Last column has no rightward link.
        assert "r_link_h3" not in names
