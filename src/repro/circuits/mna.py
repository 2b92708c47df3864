"""Modified nodal analysis (MNA) matrix assembly.

Unknown vector layout: the first ``num_nodes`` entries are node voltages
(in :class:`~repro.circuits.netlist.Circuit` index order), followed by one
branch current per ideal voltage source.

Inductors never get branch rows here: the transient solver replaces them
with Norton companion models and the AC solver stamps their admittance
``1/(j*omega*L)``.  This keeps the system small and — because AC sweeps in
this library start well above DC — never singular.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.circuits.elements import (
    Capacitor,
    CurrentSource,
    DifferenceConductance,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuits.netlist import Circuit


class MNAStructure:
    """Index bookkeeping for a circuit's MNA system."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.num_nodes = circuit.num_nodes
        self.vsources: List[VoltageSource] = circuit.elements_of_type(VoltageSource)  # type: ignore[assignment]
        self.branch_index: Dict[str, int] = {
            vs.name: self.num_nodes + k for k, vs in enumerate(self.vsources)
        }
        self.size = self.num_nodes + len(self.vsources)

    # ------------------------------------------------------------------
    def node(self, name: str):
        """Matrix index of node ``name`` (``None`` for ground)."""
        return self.circuit.node_index(name)

    def stamp_conductance(
        self, matrix: np.ndarray, pos, neg, g: complex
    ) -> None:
        """Stamp a conductance ``g`` between node indices ``pos``/``neg``.

        Either index may be ``None`` (ground).
        """
        if pos is not None:
            matrix[pos, pos] += g
        if neg is not None:
            matrix[neg, neg] += g
        if pos is not None and neg is not None:
            matrix[pos, neg] -= g
            matrix[neg, pos] -= g

    def stamp_difference_conductance(
        self, matrix: np.ndarray, element: DifferenceConductance
    ) -> None:
        """Stamp ``g * w w^T`` over the element's node indices.

        Ground entries (index ``None``) are skipped — their row/column is
        eliminated by the reference-node convention.
        """
        indices = [self.node(n) for n in element.nodes]
        g = element.conductance
        for i, wi in zip(indices, element.weights):
            if i is None:
                continue
            for j, wj in zip(indices, element.weights):
                if j is None:
                    continue
                matrix[i, j] += g * wi * wj

    def stamp_vsource_rows(self, matrix: np.ndarray) -> None:
        """Stamp the +-1 incidence pattern for every ideal voltage source."""
        for vs in self.vsources:
            b = self.branch_index[vs.name]
            p = self.node(vs.node_pos)
            n = self.node(vs.node_neg)
            if p is not None:
                matrix[p, b] += 1.0
                matrix[b, p] += 1.0
            if n is not None:
                matrix[n, b] -= 1.0
                matrix[b, n] -= 1.0

    # ------------------------------------------------------------------
    def assemble_resistive(self) -> np.ndarray:
        """Real MNA matrix with resistors and voltage-source rows only.

        Capacitor/inductor companion terms are added on top of a copy of
        this matrix by the transient solver.
        """
        matrix = np.zeros((self.size, self.size), dtype=float)
        for r in self.circuit.elements_of_type(Resistor):
            self.stamp_conductance(
                matrix, self.node(r.node_pos), self.node(r.node_neg), r.conductance  # type: ignore[union-attr]
            )
        for d in self.circuit.elements_of_type(DifferenceConductance):
            self.stamp_difference_conductance(matrix, d)  # type: ignore[arg-type]
        self.stamp_vsource_rows(matrix)
        return matrix

    def assemble_complex(self, omega: float) -> np.ndarray:
        """Complex MNA matrix at angular frequency ``omega`` (rad/s)."""
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        matrix = np.zeros((self.size, self.size), dtype=complex)
        for r in self.circuit.elements_of_type(Resistor):
            self.stamp_conductance(
                matrix, self.node(r.node_pos), self.node(r.node_neg), r.conductance  # type: ignore[union-attr]
            )
        for c in self.circuit.elements_of_type(Capacitor):
            self.stamp_conductance(
                matrix,
                self.node(c.node_pos),
                self.node(c.node_neg),
                1j * omega * c.capacitance,  # type: ignore[union-attr]
            )
        for ind in self.circuit.elements_of_type(Inductor):
            self.stamp_conductance(
                matrix,
                self.node(ind.node_pos),
                self.node(ind.node_neg),
                1.0 / (1j * omega * ind.inductance),  # type: ignore[union-attr]
            )
        for d in self.circuit.elements_of_type(DifferenceConductance):
            self.stamp_difference_conductance(matrix, d)  # type: ignore[arg-type]
        self.stamp_vsource_rows(matrix.view())
        return matrix

    # ------------------------------------------------------------------
    def rhs_sources(self, t: float, currents: Sequence[float]) -> np.ndarray:
        """Real RHS from independent sources: the current sources' amps
        ``currents`` (in circuit order, as the solver gathers them) and
        the voltage sources evaluated at time ``t``."""
        rhs = np.zeros(self.size, dtype=float)
        sources = self.circuit.elements_of_type(CurrentSource)
        for cs, current in zip(sources, currents):
            p = self.node(cs.node_pos)
            n = self.node(cs.node_neg)
            if p is not None:
                rhs[p] -= current
            if n is not None:
                rhs[n] += current
        for vs in self.vsources:
            rhs[self.branch_index[vs.name]] = vs.voltage_at(t)
        return rhs

    def rhs_phasor(self, injections: Dict[str, complex]) -> np.ndarray:
        """Complex RHS for AC analysis.

        ``injections`` maps node name -> phasor current *injected into*
        that node (the usual driving-point convention).  Voltage-source
        phasors are zero: supplies are AC ground, exactly how SPICE treats
        a DC source during ``.AC``.
        """
        rhs = np.zeros(self.size, dtype=complex)
        for node, amps in injections.items():
            idx = self.node(node)
            if idx is None:
                raise ValueError("cannot inject AC current into ground")
            rhs[idx] += amps
        return rhs
