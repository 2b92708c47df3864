"""Netlist builders for the PDS configurations (Fig. 1c of the paper).

Two physical netlists are built:

* :func:`build_stacked_pdn` — the 4x4 voltage-stacked PDN: a single
  high-voltage board supply, package and C4 parasitics, four stack
  columns of four series SM layers each, horizontal on-chip grid links
  at every layer boundary, per-SM decap/ESR and small-signal load
  conductance, and (optionally) the distributed CR-IVR.
* :func:`build_conventional_pdn` — the single-layer baseline: one low
  supply rail feeding all 16 SMs in parallel through per-SM C4 branches
  and an on-chip grid.

Both return a handle object exposing the SM current sources (overridden
every cycle by the co-simulator) and node-naming helpers so analyses can
read per-SM voltages without knowing the naming scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.circuits import Circuit, CurrentSource
from repro.circuits.transient import TransientResult, TransientSolver
from repro.config import StackConfig
from repro.pdn.cr_ivr import CRIVRDesign
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters

SUPPLY_SOURCE = "vdd"


def tap_node(boundary: int, column: int) -> str:
    """Name of the stacked-grid tap at ``boundary`` (0 = ground side)."""
    return f"t{boundary}_{column}"


def sm_node(sm: int) -> str:
    """Name of SM ``sm``'s local rail node in the conventional netlist."""
    return f"sm{sm}"


@dataclass
class StackedPDN:
    """Handle to a built voltage-stacked PDN."""

    circuit: Circuit
    stack: StackConfig
    params: PDNParameters
    cr_ivr: Optional[CRIVRDesign]
    sm_sources: List[CurrentSource] = field(default_factory=list)
    # Shared batch buffer the SM sources read from (bound by the
    # builder); set_sm_currents() is one vectorized write into it.
    sm_current_values: Optional[np.ndarray] = None

    def sm_terminals(self, sm: int) -> tuple:
        """(top node, bottom node) of SM ``sm`` (flat index, layer 0 bottom)."""
        layer, column = self.stack.layer_column(sm)
        return tap_node(layer + 1, column), tap_node(layer, column)

    def sm_voltage(self, solver: TransientSolver, sm: int) -> float:
        top, bottom = self.sm_terminals(sm)
        return solver.node_voltage(top) - solver.node_voltage(bottom)

    def sm_waveform(self, result: TransientResult, sm: int):
        top, bottom = self.sm_terminals(sm)
        return result.differential(top, bottom)

    def tap_columns(self) -> List[List[str]]:
        """Tap node names per column, ground side first (for CR-IVR attach)."""
        return [
            [tap_node(b, c) for b in range(self.stack.num_layers + 1)]
            for c in range(self.stack.num_columns)
        ]

    def bind_current_buffer(
        self, buffer: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bind every SM source to a shared amps buffer.

        After binding, :meth:`set_sm_currents` is a single NumPy copy and
        the transient solver gathers all SM draws with one fancy-indexed
        read per step.  Called by the builder; safe to call again after
        appending sources.

        ``buffer`` re-binds the sources to an externally owned
        ``(num_sms,)`` array instead of allocating one — the batched
        co-simulator passes row i of its ``(B, num_sms)`` current array
        so ``sm_current_values`` gains a batch axis one level up.
        Re-binding must happen *before* a :class:`TransientSolver` is
        constructed on :attr:`circuit` (the solver caches the bound
        buffer in its gather maps).
        """
        if buffer is None:
            buffer = np.zeros(len(self.sm_sources), dtype=float)
        elif buffer.shape != (len(self.sm_sources),):
            raise ValueError(
                f"current buffer must have shape ({len(self.sm_sources)},), "
                f"got {buffer.shape}"
            )
        self.sm_current_values = buffer
        for k, source in enumerate(self.sm_sources):
            source.bind_batch(self.sm_current_values, k)
        return self.sm_current_values

    def set_sm_currents(self, currents) -> None:
        """Set every SM current source (amps, flat SM order)."""
        if self.sm_current_values is not None:
            self.sm_current_values[:] = currents
            return
        for source, amps in zip(self.sm_sources, currents):
            source.override = float(amps)

    def record_nodes(self) -> List[str]:
        """All tap nodes — the minimal set needed to read SM voltages."""
        return [
            tap_node(b, c)
            for b in range(self.stack.num_layers + 1)
            for c in range(self.stack.num_columns)
        ]


@dataclass
class ConventionalPDN:
    """Handle to a built conventional single-layer PDN."""

    circuit: Circuit
    num_sms: int
    params: PDNParameters
    sm_sources: List[CurrentSource] = field(default_factory=list)
    sm_current_values: Optional[np.ndarray] = None

    def sm_voltage(self, solver: TransientSolver, sm: int) -> float:
        return solver.node_voltage(sm_node(sm))

    def sm_waveform(self, result: TransientResult, sm: int):
        return result.voltage(sm_node(sm))

    def bind_current_buffer(
        self, buffer: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bind every SM source to a shared amps buffer.

        ``buffer`` re-binds to an externally owned ``(num_sms,)`` array
        (e.g. one batch lane's row); see
        :meth:`StackedPDN.bind_current_buffer`.
        """
        if buffer is None:
            buffer = np.zeros(len(self.sm_sources), dtype=float)
        elif buffer.shape != (len(self.sm_sources),):
            raise ValueError(
                f"current buffer must have shape ({len(self.sm_sources)},), "
                f"got {buffer.shape}"
            )
        self.sm_current_values = buffer
        for k, source in enumerate(self.sm_sources):
            source.bind_batch(self.sm_current_values, k)
        return self.sm_current_values

    def set_sm_currents(self, currents) -> None:
        if self.sm_current_values is not None:
            self.sm_current_values[:] = currents
            return
        for source, amps in zip(self.sm_sources, currents):
            source.override = float(amps)

    def record_nodes(self) -> List[str]:
        return [sm_node(k) for k in range(self.num_sms)]


# ---------------------------------------------------------------------------
# Voltage-stacked netlist
# ---------------------------------------------------------------------------
def check_cr_ivr_area(area_mm2: float) -> None:
    """A CR-IVR area is a finite, non-negative mm² (0: no CR-IVR)."""
    if not (math.isfinite(area_mm2) and area_mm2 >= 0):
        raise ValueError(f"cr_ivr_area_mm2 must be finite, >= 0: {area_mm2}")


def build_stacked_pdn(
    stack: StackConfig = StackConfig(),
    params: PDNParameters = DEFAULT_PDN,
    cr_ivr_area_mm2: float = 0.0,
    include_load_conductance: bool = True,
) -> StackedPDN:
    """Construct the 4x4 voltage-stacked PDN of Fig. 1(c).

    ``cr_ivr_area_mm2`` sizes the distributed CR-IVR (0 disables it).
    ``include_load_conductance`` stamps each SM's small-signal conductance
    (``params.sm_conductance``); disable to study the pure passive grid.
    """
    check_cr_ivr_area(cr_ivr_area_mm2)
    ckt = Circuit("stacked_pdn")
    ckt.add_voltage_source(SUPPLY_SOURCE, "board", "0", stack.board_voltage)
    ckt.add_resistor("r_board", "board", "pkg_in", params.board_resistance)
    ckt.add_resistor("r_pkg", "pkg_in", "pkg_l", params.package_resistance)
    ckt.add_inductor("l_pkg", "pkg_l", "chip_vdd", params.package_inductance)
    ckt.add_inductor("l_gnd", "chip_vss", "gnd_r", params.ground_return_inductance)
    ckt.add_resistor("r_gnd", "gnd_r", "0", params.ground_return_resistance)

    top = stack.num_layers
    for column in range(stack.num_columns):
        # Supply-side and ground-side C4 bump groups, one per column.
        ckt.add_resistor(
            f"r_c4t_{column}", "chip_vdd", f"c4t_{column}", params.c4_resistance
        )
        ckt.add_inductor(
            f"l_c4t_{column}", f"c4t_{column}", tap_node(top, column),
            params.c4_inductance,
        )
        ckt.add_inductor(
            f"l_c4b_{column}", tap_node(0, column), f"c4b_{column}",
            params.c4_inductance,
        )
        ckt.add_resistor(
            f"r_c4b_{column}", f"c4b_{column}", "chip_vss", params.c4_resistance
        )

    # Horizontal grid links at every boundary, including both rails.
    for boundary in range(top + 1):
        for column in range(stack.num_columns - 1):
            ckt.add_resistor(
                f"r_link_b{boundary}_c{column}",
                tap_node(boundary, column),
                tap_node(boundary, column + 1),
                params.link_resistance,
            )

    pdn = StackedPDN(ckt, stack, params, cr_ivr=None)

    # Per-SM load, decap and small-signal conductance.
    nominal_current = 0.0  # overridden by the driver before use
    for layer in range(stack.num_layers):
        for column in range(stack.num_columns):
            sm = stack.sm_index(layer, column)
            top_node = tap_node(layer + 1, column)
            bot_node = tap_node(layer, column)
            source = ckt.add_current_source(
                f"i_sm{sm}", top_node, bot_node, nominal_current
            )
            pdn.sm_sources.append(source)
            ckt.add_capacitor(
                f"c_sm{sm}", top_node, f"dcap{sm}", params.sm_decap,
                v0=stack.sm_voltage,
            )
            ckt.add_resistor(
                f"resr_sm{sm}", f"dcap{sm}", bot_node, params.sm_decap_esr
            )
            if include_load_conductance and params.sm_conductance > 0:
                ckt.add_resistor(
                    f"g_sm{sm}", top_node, bot_node, 1.0 / params.sm_conductance
                )

    if cr_ivr_area_mm2 > 0:
        design = CRIVRDesign(cr_ivr_area_mm2, params, stack)
        design.attach(ckt, pdn.tap_columns())
        pdn.cr_ivr = design

    pdn.bind_current_buffer()
    return pdn


# ---------------------------------------------------------------------------
# Conventional single-layer netlist
# ---------------------------------------------------------------------------
def build_conventional_pdn(
    num_sms: int = 16,
    supply_voltage: float = 1.0,
    params: PDNParameters = DEFAULT_PDN,
    include_load_conductance: bool = True,
    grid_columns: int = 4,
) -> ConventionalPDN:
    """Construct the conventional single-layer PDN baseline.

    All SMs hang in parallel off one rail: board source -> package ->
    per-SM C4 branch -> SM node, with the SM nodes meshed into a
    ``grid_columns``-wide grid by link resistances.
    """
    if num_sms <= 0:
        raise ValueError(f"num_sms must be positive, got {num_sms}")
    ckt = Circuit("conventional_pdn")
    ckt.add_voltage_source(SUPPLY_SOURCE, "board", "0", supply_voltage)
    ckt.add_resistor("r_board", "board", "pkg_in", params.board_resistance)
    ckt.add_resistor("r_pkg", "pkg_in", "pkg_l", params.package_resistance)
    ckt.add_inductor("l_pkg", "pkg_l", "chip_vdd", params.package_inductance)
    ckt.add_inductor("l_gnd", "chip_vss", "gnd_r", params.ground_return_inductance)
    ckt.add_resistor("r_gnd", "gnd_r", "0", params.ground_return_resistance)

    pdn = ConventionalPDN(ckt, num_sms, params)
    for sm in range(num_sms):
        node = sm_node(sm)
        ckt.add_resistor(f"r_c4_{sm}", "chip_vdd", f"c4_{sm}", params.c4_resistance)
        ckt.add_inductor(f"l_c4_{sm}", f"c4_{sm}", node, params.c4_inductance)
        source = ckt.add_current_source(f"i_sm{sm}", node, "chip_vss", 0.0)
        pdn.sm_sources.append(source)
        ckt.add_capacitor(
            f"c_sm{sm}", node, f"dcap{sm}", params.sm_decap, v0=supply_voltage
        )
        ckt.add_resistor(f"resr_sm{sm}", f"dcap{sm}", "chip_vss", params.sm_decap_esr)
        if include_load_conductance and params.sm_conductance > 0:
            ckt.add_resistor(f"g_sm{sm}", node, "chip_vss", 1.0 / params.sm_conductance)

    # Mesh the SM nodes into a grid (row-major, grid_columns wide).
    rows = (num_sms + grid_columns - 1) // grid_columns
    for row in range(rows):
        for col in range(grid_columns):
            sm = row * grid_columns + col
            if sm >= num_sms:
                continue
            right = sm + 1
            below = sm + grid_columns
            if col + 1 < grid_columns and right < num_sms:
                ckt.add_resistor(
                    f"r_link_h{sm}", sm_node(sm), sm_node(right),
                    params.link_resistance,
                )
            if below < num_sms:
                ckt.add_resistor(
                    f"r_link_v{sm}", sm_node(sm), sm_node(below),
                    params.link_resistance,
                )
    pdn.bind_current_buffer()
    return pdn
