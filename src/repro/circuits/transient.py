"""Fixed-step trapezoidal transient solver.

The circuit is linear and the step size is fixed, so the MNA matrix —
including the trapezoidal companion conductances ``2C/h`` and ``h/2L`` —
is constant.  It is assembled and LU-factorized once; each step only
rebuilds the right-hand side and back-substitutes, which keeps long
co-simulations (hundreds of thousands of steps) cheap.

Per-step work is fully vectorized: reactive companion currents, their
scatter into the RHS, current-source gathers and companion-state updates
are all precomputed integer-index NumPy operations (one ``bincount``
over scatter arrays, fancy-indexed gathers), so a step costs a handful
of array ops plus one back-substitution regardless of element count.
The original per-element Python loops are the test suite's reference
(``tests/oracles/naive_solver.py``); the two agree bit for bit.

The solver exposes two usage styles:

* :meth:`TransientSolver.run` — simulate an interval, return waveforms.
* :meth:`TransientSolver.step` — advance one step; used by the GPU/PDN
  co-simulator, which overrides SM current sources between steps.

:class:`BatchTransientSolver` steps B same-topology lanes in lock-step,
only through the native library's compiled kernel (``_solverc.c``);
B serial :class:`TransientSolver` runs are its reference.
"""

from __future__ import annotations

import copy
import ctypes
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

from repro import native
from repro.circuits._solverc import MAX_UNKNOWNS, CShardLU, CSolverState
from repro.circuits.elements import Capacitor, Inductor
from repro.circuits.mna import MNAStructure
from repro.circuits.netlist import Circuit


@dataclass
class SolverStats:
    """Cheap always-on work counters for telemetry.

    Plain integer increments on the hot path (negligible next to a
    back-substitution); wall-clock attribution of solve time is done by
    the caller's phase timers (see ``repro.telemetry``).
    """

    steps: int = 0  # trapezoidal steps taken
    factorizations: int = 0  # LU factorizations of the MNA matrix
    dc_solves: int = 0  # operating-point solves


class TransientResult:
    """Recorded waveforms from a transient run."""

    def __init__(self, times: np.ndarray, nodes: List[str], voltages: np.ndarray):
        self.times = times
        self.nodes = nodes
        self._index = {name: k for k, name in enumerate(nodes)}
        self.voltages = voltages  # shape (num_steps, num_recorded_nodes)

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of ``node``; ground returns zeros."""
        if node == "0":
            return np.zeros_like(self.times)
        return self.voltages[:, self._index[node]]

    def differential(self, pos: str, neg: str) -> np.ndarray:
        """Waveform of V(pos) - V(neg)."""
        return self.voltage(pos) - self.voltage(neg)


def _terminal_gather_arrays(
    node_pairs: Sequence[Tuple[Optional[int], Optional[int]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Safe-index + mask arrays for a vectorized ``V(pos) - V(neg)``.

    Ground terminals (index ``None``) gather index 0 and are masked out,
    so ``sol[pos]*pm - sol[neg]*nm`` equals the per-element loop exactly.
    """
    pos = np.array([p if p is not None else 0 for p, _ in node_pairs], dtype=int)
    neg = np.array([n if n is not None else 0 for _, n in node_pairs], dtype=int)
    pos_mask = np.array(
        [1.0 if p is not None else 0.0 for p, _ in node_pairs], dtype=float
    )
    neg_mask = np.array(
        [1.0 if n is not None else 0.0 for _, n in node_pairs], dtype=float
    )
    return pos, neg, pos_mask, neg_mask


class TransientSolver:
    """Trapezoidal integrator over a fixed-topology linear circuit."""

    # Conductance used to treat inductors as shorts in the DC solve.
    _DC_SHORT_SIEMENS = 1e9

    # Rebound by BatchTransientSolver when it adopts this lane; a class
    # default keeps the ownership check a plain attribute read on the
    # (far more common) un-batched hot path.
    _batch_owner = None

    def __init__(self, circuit: Circuit, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.circuit = circuit
        self.dt = dt
        self.structure = MNAStructure(circuit)
        self.capacitors: List[Capacitor] = circuit.elements_of_type(Capacitor)  # type: ignore[assignment]
        self.inductors: List[Inductor] = circuit.elements_of_type(Inductor)  # type: ignore[assignment]

        self._cap_nodes = [
            (self.structure.node(c.node_pos), self.structure.node(c.node_neg))
            for c in self.capacitors
        ]
        self._ind_nodes = [
            (self.structure.node(l.node_pos), self.structure.node(l.node_neg))
            for l in self.inductors
        ]
        num_cap = len(self.capacitors)
        num_ind = len(self.inductors)
        self._num_cap = num_cap
        self._num_ind = num_ind

        # Reactive elements share one companion form: the equivalent
        # injection is ieq = g*v + i for both, and the post-solve current
        # update is i' = g*v' + s*ieq with s = -1 (capacitor) / +1
        # (inductor).  State is therefore held in combined arrays, with
        # per-kind views kept for restamping and external queries.
        self._react_g = np.concatenate([
            np.array([2.0 * c.capacitance / dt for c in self.capacitors], dtype=float),
            np.array([dt / (2.0 * l.inductance) for l in self.inductors], dtype=float),
        ])
        self._react_sign = np.concatenate([
            np.full(num_cap, -1.0), np.full(num_ind, 1.0)
        ])
        self._g_cap = self._react_g[:num_cap]
        self._g_ind = self._react_g[num_cap:]

        matrix = self.structure.assemble_resistive()
        for (p, n), g in zip(self._cap_nodes, self._g_cap):
            self.structure.stamp_conductance(matrix, p, n, g)
        for (p, n), g in zip(self._ind_nodes, self._g_ind):
            self.structure.stamp_conductance(matrix, p, n, g)
        self.stats = SolverStats()
        # The assembled matrix is retained so the guard rail can compute
        # a residual ``A x - b`` for forensics on detected divergence.
        self._matrix = matrix
        self._lu = lu_factor(matrix)
        self.stats.factorizations += 1
        # The step calls LAPACK ``getrs`` directly — the same
        # routine ``scipy.linalg.lu_solve`` wraps (bit-identical result),
        # minus per-call validation that would dominate small systems.
        # It is the bit-identity reference of the batch kernel's own
        # substitution (_solverc.c).
        self._getrs = get_lapack_funcs(("getrs",), (self._lu[0],))[0]

        # Fast-path caches for per-step RHS assembly (the inner loop of
        # long co-simulations): current-source handles and index maps.
        from repro.circuits.elements import CurrentSource, VoltageSource

        self._current_sources = self.circuit.elements_of_type(CurrentSource)
        self._cs_pos = [self.structure.node(s.node_pos) for s in self._current_sources]
        self._cs_neg = [self.structure.node(s.node_neg) for s in self._current_sources]
        self._vs_rows = [
            (self.structure.branch_index[v.name], v)
            for v in self.structure.vsources
        ]

        self._build_scatter_arrays()

        # Dynamic state: voltage across / current through each reactive
        # element (views into the combined arrays).
        self._react_v = np.concatenate([
            np.array([c.v0 for c in self.capacitors], dtype=float),
            np.zeros(num_ind),
        ])
        self._react_i = np.concatenate([
            np.zeros(num_cap),
            np.array([l.i0 for l in self.inductors], dtype=float),
        ])
        self._cap_v = self._react_v[:num_cap]
        self._ind_v = self._react_v[num_cap:]
        self._cap_i = self._react_i[:num_cap]
        self._ind_i = self._react_i[num_cap:]

        self.time = 0.0
        self.solution = np.zeros(self.structure.size, dtype=float)
        # Most recent step's RHS (reference, not a copy) — consumed by
        # SolverGuard to compute a residual when a step goes bad.
        self._last_rhs: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Precomputed index machinery for the step
    # ------------------------------------------------------------------
    def _build_scatter_arrays(self) -> None:
        """Integer scatter/gather indices driving the step.

        One concatenated value vector per step holds
        ``[ieq_cap | ieq_ind | i_source]``; a single ``bincount`` with
        precomputed ``(rhs_index, gain, value_index)`` triples scatters
        every companion/source contribution into the RHS at once.
        """
        num_cap = self._num_cap
        num_ind = self._num_ind
        num_cs = len(self._current_sources)
        self._vals = np.zeros(num_cap + num_ind + num_cs, dtype=float)
        self._cs_offset = num_cap + num_ind

        idx: List[int] = []
        gain: List[float] = []
        src: List[int] = []

        def scatter(slot: int, pos, neg, pos_gain: float) -> None:
            if pos is not None:
                idx.append(pos)
                gain.append(pos_gain)
                src.append(slot)
            if neg is not None:
                idx.append(neg)
                gain.append(-pos_gain)
                src.append(slot)

        # Capacitor Norton current flows into the positive node
        # (rhs[p] += ieq); the inductor's flows out (rhs[p] -= ieq); an
        # independent source draws current off its positive node.
        # Triples are emitted in the reference path's execution order
        # (sources, capacitors, inductors) so ``bincount`` accumulates
        # each node in the same sequence and the result is bit-identical.
        for k, (p, n) in enumerate(zip(self._cs_pos, self._cs_neg)):
            scatter(self._cs_offset + k, p, n, -1.0)
        for k, (p, n) in enumerate(self._cap_nodes):
            scatter(k, p, n, +1.0)
        for k, (p, n) in enumerate(self._ind_nodes):
            scatter(num_cap + k, p, n, -1.0)

        self._scatter_idx = np.array(idx, dtype=np.intp)
        self._scatter_gain = np.array(gain, dtype=float)
        self._scatter_src = np.array(src, dtype=np.intp)

        # Terminal gathers for the post-solve companion-state update.
        self._react_pos, self._react_neg, self._react_pos_mask, self._react_neg_mask = (
            _terminal_gather_arrays(self._cap_nodes + self._ind_nodes)
        )

        self._build_cs_gathers()

        # Voltage-source rows: constants preloaded, callables looped.
        self._vs_row_idx = np.array([row for row, _ in self._vs_rows], dtype=np.intp)
        self._vs_values = np.array(
            [0.0 if callable(v.value) else float(v.value) for _, v in self._vs_rows],
            dtype=float,
        )
        self._vs_callable = [
            (slot, source)
            for slot, (_, source) in enumerate(self._vs_rows)
            if callable(source.value)
        ]

    def _build_cs_gathers(self) -> None:
        """Current-source value gathers.

        Batch-bound sources (the co-sim writes their amps into a shared
        NumPy buffer) are fetched with one fancy-indexed read per
        buffer; everything else — constants, waveform callables,
        override-driven sources — goes through the per-source
        ``current_at`` loop, exactly as before.
        """
        by_buffer: Dict[int, Tuple[object, List[int], List[int]]] = {}
        plain: List[Tuple[int, object]] = []
        for k, source in enumerate(self._current_sources):
            buffer = getattr(source, "batch", None)
            if buffer is not None:
                key = id(buffer)
                if key not in by_buffer:
                    by_buffer[key] = (buffer, [], [])
                by_buffer[key][1].append(self._cs_offset + k)
                by_buffer[key][2].append(source.batch_index)
            else:
                plain.append((self._cs_offset + k, source))
        self._cs_batches = [
            (buffer, np.array(slots, dtype=np.intp), np.array(gidx, dtype=np.intp))
            for buffer, slots, gidx in by_buffer.values()
        ]
        self._cs_plain = plain

    # ------------------------------------------------------------------
    # Mid-run topology-preserving refactorization
    # ------------------------------------------------------------------
    def refactor(self) -> None:
        """Re-read element values and re-factorize the MNA matrix.

        Element *values* (resistances, difference conductances) may be
        mutated between steps — fault injection uses this to model
        CR-IVR phase loss or parasitic drift mid-run — as long as the
        topology (nodes, element set) is unchanged.  Reactive state
        (capacitor voltages, inductor currents) carries across, so the
        transient continues from the pre-fault operating point.
        """
        matrix = self.structure.assemble_resistive()
        for (p, n), g in zip(self._cap_nodes, self._g_cap):
            self.structure.stamp_conductance(matrix, p, n, g)
        for (p, n), g in zip(self._ind_nodes, self._g_ind):
            self.structure.stamp_conductance(matrix, p, n, g)
        self._matrix = matrix
        self._lu = lu_factor(matrix)
        self.stats.factorizations += 1
        self._getrs = get_lapack_funcs(("getrs",), (self._lu[0],))[0]
        owner = getattr(self, "_batch_owner", None)
        if owner is not None:
            owner._lanes_dirty = True

    def set_dt(self, dt: float) -> None:
        """Change the step size mid-run and restamp the companion matrix.

        The trapezoidal companion conductances (``2C/h``, ``h/2L``) are
        dt-dependent, so a new step size requires recomputing them and
        re-factorizing.  Gains are written *in place* so batch row views
        (:class:`BatchTransientSolver`) stay attached.  Reactive state
        carries across — this is how :class:`SolverGuard` retries a
        misbehaving interval at a finer resolution.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self._g_cap[:] = [2.0 * c.capacitance / dt for c in self.capacitors]
        self._g_ind[:] = [dt / (2.0 * l.inductance) for l in self.inductors]
        self.refactor()

    def rebind_sources(self, buffer: np.ndarray) -> None:
        """Gather the bound current sources from ``buffer`` instead.

        Only this solver's gather map moves: the circuit's sources keep
        their own binding, so solvers sharing one circuit
        (:meth:`fork`) bind independently.  ``buffer`` must be shaped
        like the one bound at construction.  Lane quarantine moves a
        surviving lane onto its row of a freshly compacted batch array
        this way.
        """
        if len(self._cs_batches) != 1:
            raise ValueError(
                "rebind_sources needs exactly one bound current buffer, "
                f"found {len(self._cs_batches)}"
            )
        bound, slots, gidx = self._cs_batches[0]
        if np.shape(buffer) != np.shape(bound):
            raise ValueError(
                f"current buffer must have shape {np.shape(bound)}, got "
                f"{np.shape(buffer)}"
            )
        self._cs_batches = [(buffer, slots, gidx)]

    def fork(self, current_buffer: np.ndarray) -> "TransientSolver":
        """A solver over this one's circuit and LU, from a copy of its state.

        The fork shares what its steps only read: the circuit and MNA
        structure, the assembled matrix, its LU factors and the index
        maps.  It owns what a step, :meth:`set_dt`, :meth:`refactor` or
        a batch writes: reactive state, solution, time, companion
        gains, RHS scratch and stats (which start from this solver's:
        its LU and operating point are this solver's work), and it
        gathers the bound current sources from ``current_buffer``
        (:meth:`rebind_sources`).  Its refactorization or new step size
        rebinds its own matrix and LU and leaves this solver's, and
        every other fork's, alone.  The element values stay shared: a
        solver whose netlist changes mid-run needs a circuit of its own.
        """
        lane = copy.copy(self)
        lane.__dict__.pop("_batch_owner", None)
        nc = self._num_cap
        lane._react_g = self._react_g.copy()
        lane._g_cap = lane._react_g[:nc]
        lane._g_ind = lane._react_g[nc:]
        lane._react_v = self._react_v.copy()
        lane._react_i = self._react_i.copy()
        lane._cap_v = lane._react_v[:nc]
        lane._ind_v = lane._react_v[nc:]
        lane._cap_i = lane._react_i[:nc]
        lane._ind_i = lane._react_i[nc:]
        lane.solution = self.solution.copy()
        lane._vals = np.zeros_like(self._vals)
        lane._vs_values = self._vs_values.copy()
        lane.stats = replace(self.stats)
        lane._last_rhs = None
        lane.rebind_sources(current_buffer)
        return lane

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize_dc(self, t: float = 0.0) -> np.ndarray:
        """Start from the DC operating point with sources held at time ``t``.

        Capacitors are open, inductors are (near-)shorts.  The computed
        node voltages seed capacitor voltages, and inductor currents are
        read from the short-circuit branch currents.  Bound current
        sources are read through this solver's own gathers, so a
        :meth:`fork` or :meth:`rebind_sources` solver starts from the
        currents in its own buffer, not the circuit's.
        """
        size = self.structure.size
        matrix = self.structure.assemble_resistive()
        for (p, n) in self._ind_nodes:
            self.structure.stamp_conductance(matrix, p, n, self._DC_SHORT_SIEMENS)
        vals = self._vals
        for slot, source in self._cs_plain:
            vals[slot] = source.current_at(t)
        for buffer, slots, gidx in self._cs_batches:
            vals[slots] = np.asarray(buffer)[gidx]
        rhs = self.structure.rhs_sources(t, vals[self._cs_offset:])
        solution = np.linalg.solve(matrix, rhs)
        self.stats.dc_solves += 1

        self.solution = np.zeros(size)
        self.solution[:] = solution
        self.time = t
        # Vectorized V(pos)-V(neg) over all reactive terminals at once.
        across = (
            solution[self._react_pos] * self._react_pos_mask
            - solution[self._react_neg] * self._react_neg_mask
        )
        self._react_v[: self._num_cap] = across[: self._num_cap]
        self._react_v[self._num_cap :] = 0.0
        self._react_i[: self._num_cap] = 0.0
        self._react_i[self._num_cap :] = (
            self._DC_SHORT_SIEMENS * across[self._num_cap :]
        )
        return solution[: self.structure.num_nodes]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance one trapezoidal step; return node voltages at the new time."""
        return self.step_n(1)

    def step_n(self, n: int) -> np.ndarray:
        """Advance ``n`` trapezoidal steps; return the final node voltages.

        Bit-identical to ``n`` calls of :meth:`step`.  The per-step
        Python overhead (method dispatch, attribute lookups) is hoisted
        out of the loop, and the RHS scatter is one ``bincount``
        (which, like ``np.add.at``, accumulates weights in input order,
        so the per-index float summation sequence is the reference
        loop's).  This is the guard's clean-path stepping: the fusion
        pays for the guard's snapshot/scan bookkeeping (see
        ``benchmarks/test_perf_guard``).

        A multi-step call defers to a per-step loop when ``step`` has
        been instance-patched (fault hooks and tests wrap
        ``solver.step``, and call the original, which lands here with
        ``n == 1``; a fused path must not bypass them).
        """
        if n > 1 and "step" in self.__dict__:
            node_v = None
            for _ in range(n):
                node_v = self.step()
            return node_v
        stats = self.stats
        dt = self.dt
        vals = self._vals
        cs_offset = self._cs_offset
        react_g = self._react_g
        react_v = self._react_v
        react_i = self._react_i
        cs_plain = self._cs_plain
        cs_batches = self._cs_batches
        vs_callable = self._vs_callable
        vs_values = self._vs_values
        vs_row_idx = self._vs_row_idx
        scatter_idx = self._scatter_idx
        scatter_gain = self._scatter_gain
        scatter_src = self._scatter_src
        react_pos = self._react_pos
        react_neg = self._react_neg
        react_pos_mask = self._react_pos_mask
        react_neg_mask = self._react_neg_mask
        react_sign = self._react_sign
        getrs = self._getrs
        lu, piv = self._lu
        size = self.structure.size
        num_nodes = self.structure.num_nodes
        bincount = np.bincount
        asarray = np.asarray

        solution = self.solution
        for _ in range(n):
            stats.steps += 1
            t_next = self.time + dt

            ieq = react_g * react_v + react_i
            vals[:cs_offset] = ieq
            for slot, source in cs_plain:
                vals[slot] = source.current_at(t_next)
            for buffer, slots, gidx in cs_batches:
                vals[slots] = asarray(buffer)[gidx]

            rhs = bincount(
                scatter_idx,
                weights=scatter_gain * vals[scatter_src],
                minlength=size,
            )
            if vs_callable:
                for slot, source in vs_callable:
                    vs_values[slot] = source.voltage_at(t_next)
            rhs[vs_row_idx] = vs_values

            solution, _info = getrs(lu, piv, rhs)
            self._last_rhs = rhs

            v_new = (
                solution[react_pos] * react_pos_mask
                - solution[react_neg] * react_neg_mask
            )
            react_i[:] = react_g * v_new + react_sign * ieq
            react_v[:] = v_new

            self.time = t_next
            self.solution = solution
        return solution[:num_nodes]

    def node_voltage(self, node: str) -> float:
        """Voltage of ``node`` at the current solver time."""
        idx = self.structure.node(node)
        if idx is None:
            return 0.0
        return float(self.solution[idx])

    def vsource_current(self, name: str) -> float:
        """Current delivered by voltage source ``name`` into the circuit.

        Positive when the source pushes current out of its positive
        terminal — i.e. when it supplies power.  (The raw MNA branch
        variable has the opposite sign convention and is negated here.)
        """
        try:
            branch = self.structure.branch_index[name]
        except KeyError:
            raise KeyError(f"no voltage source named {name!r}")
        return -float(self.solution[branch])

    def inductor_current(self, name: str) -> float:
        """Current through inductor ``name`` at the current solver time."""
        for k, ind in enumerate(self.inductors):
            if ind.name == name:
                return float(self._ind_i[k])
        raise KeyError(f"no inductor named {name!r}")

    # ------------------------------------------------------------------
    # Whole-interval convenience runner
    # ------------------------------------------------------------------
    def run(
        self,
        duration: float,
        record: Optional[Sequence[str]] = None,
        initialize: bool = True,
    ) -> TransientResult:
        """Simulate ``duration`` seconds and record node waveforms.

        ``record`` selects node names to store (default: all non-ground
        nodes).  The initial point (t = start) is included in the result.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if initialize:
            self.initialize_dc(self.time)

        nodes = list(record) if record is not None else self.circuit.nodes
        indices = [self.structure.node(n) for n in nodes]
        num_steps = int(round(duration / self.dt))
        times = self.time + self.dt * np.arange(num_steps + 1)
        voltages = np.zeros((num_steps + 1, len(nodes)), dtype=float)
        voltages[0] = [
            self.solution[i] if i is not None else 0.0 for i in indices
        ]
        for step in range(1, num_steps + 1):
            solution = self.step()
            voltages[step] = [
                solution[i] if i is not None else 0.0 for i in indices
            ]
        return TransientResult(times, nodes, voltages)


def _column_rows(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The True entries of a square mask, column by column: per-column
    offsets (``size + 1``) into their row indices (ascending)."""
    cols, rows = np.nonzero(mask.T)
    ptr = np.zeros(mask.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=mask.shape[1]), out=ptr[1:])
    return ptr, rows.astype(np.int64)


class _SolverShard:
    """Lanes whose MNA matrices are value-identical, sharing one LU.

    The representative lane's factorization serves every member:
    ``lu_factor`` is deterministic, so value-identical matrices produce
    bit-identical LU blocks and solving any member against the shared
    block is bit-identical to solving against its own.  The kernel
    solves the members together, reading the F-ordered LU in place; the
    shard holds the pivots as one row permutation and the rows of each
    column's strict-lower and strict-upper nonzeros (a NaN counts as
    nonzero), the entries the kernel walks.
    """

    __slots__ = ("lanes", "lu", "perm", "l_ptr", "l_row", "u_ptr", "u_row")

    def __init__(
        self, lu: np.ndarray, piv: np.ndarray, lanes: Sequence[int]
    ) -> None:
        self.lanes = np.asarray(lanes, dtype=np.int64)
        self.lu = lu
        # getrs swaps row k with row piv[k] for k = 0, 1, ...; the
        # swaps compose into one gather.
        perm = list(range(lu.shape[0]))
        for k, p in enumerate(piv.tolist()):
            perm[k], perm[p] = perm[p], perm[k]
        self.perm = np.array(perm, dtype=np.int64)
        nonzero = lu != 0.0
        self.l_ptr, self.l_row = _column_rows(np.tril(nonzero, -1))
        self.u_ptr, self.u_row = _column_rows(np.triu(nonzero, 1))


class BatchTransientSolver:
    """Lock-stepped trapezoidal stepping of B same-topology solvers.

    The batched co-simulator advances B independent scenarios per GPU
    cycle.  Their circuits share one topology family — identical node
    sets, element sets and step size (the MNA *structure* and scatter
    index maps are equal) — while element *values* and per-lane fault
    refactorizations may differ.  Every step runs compiled, in the
    native library (:mod:`repro.native`): one call into ``_solverc.c``
    advances every lane ``n`` substeps — companion update, source
    gather, RHS scatter, voltage-source stamp, back-substitution and
    the reactive-state update — bit-identical to B serial
    :class:`TransientSolver` runs, the kernel's reference.  The
    back-substitution runs per shard of value-identical matrices
    (:class:`_SolverShard`): one shared ``lu_factor`` per shard, whose
    lanes the kernel substitutes together, eight at a time, with the
    operation sequence of the NRHS=1 ``getrs`` each serial lane calls
    (one ``fma`` per update, a division per diagonal, columns in
    order), walking only the LU's nonzeros.  A mid-run
    :meth:`TransientSolver.refactor` marks the lane map dirty, and the
    next step regroups: the refactored lane splits into its own shard
    and the surviving shard is untouched, so fault injection and guard
    recovery keep working unchanged.

    The kernel steps the co-sim's lane sets, and construction raises
    ``ValueError`` for any other: the system may have at most
    :data:`~repro.circuits._solverc.MAX_UNKNOWNS` (64) unknowns, past
    which BLAS's blocked ``trsv`` sums in another order (the co-sim's
    PDN has 51); ``shared_current_base`` must be a C-contiguous float64
    ``(B, num_sources)`` array whose row i is lane i's one bound current
    buffer (see ``StackedPDN.bind_current_buffer``); and no lane may
    have an unbound current source or a waveform-callable voltage
    source.

    Each lane's dynamic state (``_react_v`` / ``_react_i`` / ``solution``)
    is re-homed as a row view of the batch arrays, so per-lane reads
    (``vsource_current``, ``inductor_current``) stay coherent.  The
    lanes' ``time`` and ``stats.steps`` are mirrors of one shared batch
    clock that the kernel advances; call :meth:`fold_lanes` before
    reading them.  Do not call ``lane.step()`` directly while a batch
    owns the lanes.
    """

    def __init__(
        self,
        solvers: Sequence[TransientSolver],
        shared_current_base: Optional[np.ndarray] = None,
    ) -> None:
        self.solvers = list(solvers)
        if not self.solvers:
            raise ValueError("need at least one lane solver")
        first = self.solvers[0]
        if first.structure.size > MAX_UNKNOWNS:
            raise ValueError(
                f"the batch solver steps systems of at most {MAX_UNKNOWNS} "
                f"unknowns; this one has {first.structure.size}"
            )
        for s in self.solvers:
            if s.dt != first.dt:
                raise ValueError(
                    f"lanes must share dt: {s.dt} != {first.dt}"
                )
            if s.time != first.time:
                raise ValueError(
                    "lanes must be time-aligned before batching "
                    f"({s.time} != {first.time})"
                )
            if s.structure.size != first.structure.size:
                raise ValueError("lanes must share the MNA system size")
            for attr in (
                "_scatter_idx", "_scatter_gain", "_scatter_src",
                "_vs_row_idx", "_react_pos", "_react_neg",
                "_react_pos_mask", "_react_neg_mask", "_react_sign",
            ):
                if not np.array_equal(getattr(s, attr), getattr(first, attr)):
                    raise ValueError(
                        "lanes do not share a topology family "
                        f"(index map {attr} differs)"
                    )
        base, slots, gidx = self._check_sources(shared_current_base)
        self.dt = first.dt
        self.num_nodes = first.structure.num_nodes
        size = first.structure.size
        n_lanes = self._n_lanes = len(self.solvers)

        # Per-lane dynamic state re-homed as rows of batch arrays.
        # Companion gains are stacked per lane (fault refactorization
        # keeps them unchanged, but lanes may be built with different
        # element values).
        self._react_g_bt = np.stack([s._react_g for s in self.solvers])
        # Reactive v/i live in one contiguous (2, B, R) block so the
        # guard's per-cycle snapshot/rollback is a single copy.
        n_react = first._react_v.size
        self._n_react = n_react
        self._react_vi_bt = np.empty((2, n_lanes, n_react))
        self._react_v_bt = self._react_vi_bt[0]
        self._react_i_bt = self._react_vi_bt[1]
        self._react_v_bt[:] = [s._react_v for s in self.solvers]
        self._react_i_bt[:] = [s._react_i for s in self.solvers]
        self._sol_bt = np.stack([s.solution for s in self.solvers])
        self._vs_bt = np.stack([s._vs_values for s in self.solvers])
        for i, s in enumerate(self.solvers):
            nc = s._num_cap
            s._react_g = self._react_g_bt[i]
            s._g_cap = s._react_g[:nc]
            s._g_ind = s._react_g[nc:]
            s._react_v = self._react_v_bt[i]
            s._react_i = self._react_i_bt[i]
            s._cap_v = s._react_v[:nc]
            s._ind_v = s._react_v[nc:]
            s._cap_i = s._react_i[:nc]
            s._ind_i = s._react_i[nc:]
            s.solution = self._sol_bt[i]
            s._vs_values = self._vs_bt[i]
            s._batch_owner = self

        # The shared batch clock: ``_clock`` is [time, time at the start
        # of the last step] and ``_csteps`` counts the substeps taken.
        # Steps advance only these (one clock, not B lane updates);
        # fold_lanes() writes them into the lanes, and ``_folded`` holds
        # each lane's count at its last fold.
        self._clock = np.array([first.time, first.time])
        self._csteps = np.zeros(1, dtype=np.int64)
        self._folded = [0] * n_lanes
        self._stats_list = [s.stats for s in self.solvers]

        # The kernel's operands: lane-offset indices into the flattened
        # (B, ...) buffers, so every per-lane scatter and gather is one
        # flat loop.  Lanes never collide and within a lane the triple
        # order is the serial solver's (np.bincount accumulates in input
        # order), so each node sums its contributions in the same
        # sequence — hence every bit — as the serial scatter.
        n_vals = first._vals.size
        lane_off = np.arange(n_lanes, dtype=np.int64)[:, None]

        def flat(stride: int, idx: np.ndarray) -> np.ndarray:
            return (lane_off * stride + idx[None, :]).ravel()

        self._vals_bt = np.zeros((n_lanes, n_vals), dtype=float)
        self._rhs_bt = np.zeros((n_lanes, size), dtype=float)
        self._base = base
        self._scat_idx = flat(size, first._scatter_idx)
        self._scat_src = flat(n_vals, first._scatter_src)
        self._gain_flat = np.tile(first._scatter_gain, n_lanes)
        self._react_pos_flat = flat(size, first._react_pos)
        self._react_neg_flat = flat(size, first._react_neg)
        self._cs_dst = flat(n_vals, np.asarray(slots))
        self._cs_src = flat(base.shape[1], np.asarray(gidx))
        self._vs_rows = first._vs_row_idx.astype(np.int64)
        self._react_pos_mask = first._react_pos_mask
        self._react_neg_mask = first._react_neg_mask
        self._react_sign = first._react_sign
        self._branch_rows: Dict[str, int] = {}

        self._clib = native.load()
        # Shard map and the kernel's state struct (see _rebuild_lanes).
        # The refactor() hook invalidates them when a fault injector
        # re-factorizes any lane's matrix mid-run.
        self._lanes_dirty = True
        self._shards: List[_SolverShard] = []
        self._c_state_ptr = None
        self._c_refs: list = []
        # step_n_checked's (snap, limit_sq, snap address, limit address).
        self._checked_args: Optional[tuple] = None

    def _check_sources(self, shared_current_base):
        """The lane set's current base and its (slots, gidx) gather map.

        Raises ``ValueError`` unless the C kernel can step the lanes:
        every lane's current sources bound to its row of one
        C-contiguous float64 base, and no callable voltage source.
        """
        if shared_current_base is None:
            raise ValueError(
                "BatchTransientSolver needs shared_current_base, the "
                "(B, num_sources) array whose rows are the lanes' bound "
                "current buffers"
            )
        base = shared_current_base
        n_lanes = len(self.solvers)
        if (
            not isinstance(base, np.ndarray)
            or base.ndim != 2
            or base.shape[0] != n_lanes
            or base.dtype != np.float64
            or not base.flags.c_contiguous
        ):
            raise ValueError(
                "shared_current_base must be a C-contiguous float64 "
                f"array with one row per lane ({n_lanes})"
            )
        ref = None
        for i, s in enumerate(self.solvers):
            if s._cs_plain:
                raise ValueError(
                    f"lane {i}'s current source "
                    f"{s._cs_plain[0][1].name!r} is not bound to "
                    "shared_current_base"
                )
            if s._vs_callable:
                raise ValueError(
                    f"lane {i}'s voltage source {s._vs_callable[0][1].name!r} "
                    "is a waveform callable; the batch steps constant "
                    "voltage sources only"
                )
            if len(s._cs_batches) != 1:
                raise ValueError(
                    "shared_current_base requires exactly one bound "
                    "current buffer per lane"
                )
            buf, slots, gidx = s._cs_batches[0]
            if ref is None:
                ref = (slots, gidx)
            row = base[i]
            if (
                not isinstance(buf, np.ndarray)
                or (buf.ctypes.data, buf.shape, buf.strides, buf.dtype)
                != (row.ctypes.data, row.shape, row.strides, row.dtype)
                or not np.array_equal(slots, ref[0])
                or not np.array_equal(gidx, ref[1])
            ):
                raise ValueError(
                    f"lane {i}'s current buffer is not row {i} of "
                    "shared_current_base"
                )
        return base, ref[0], ref[1]

    # ------------------------------------------------------------------
    # Shard bookkeeping
    # ------------------------------------------------------------------
    def _rebuild_lanes(self) -> None:
        """Regroup lanes into shards of value-identical MNA matrices and
        rewire the C kernel's state struct to them.

        Runs lazily whenever ``_lanes_dirty`` — at construction and
        after any lane's :meth:`TransientSolver.refactor` (fault
        injection, guard recovery, ``set_dt``).  A refactored lane's
        matrix bytes change, so regrouping naturally splits it out of
        its old shard without touching the other members.  The struct
        holds raw addresses of each shard's lanes, LU block and column
        index and of the batch buffers; every referenced array is
        pinned in ``_c_refs`` for the struct's lifetime.
        """
        groups: Dict[bytes, List[int]] = {}
        for i, s in enumerate(self.solvers):
            groups.setdefault(s._matrix.tobytes(), []).append(i)
        self._shards = [
            _SolverShard(*self.solvers[lanes[0]]._lu, lanes)
            for lanes in groups.values()
        ]

        def ptr(arr: np.ndarray) -> int:
            return arr.ctypes.data

        shards = (CShardLU * len(self._shards))(*[
            CShardLU(
                n_lanes=sh.lanes.size,
                lanes=ptr(sh.lanes),
                lu=ptr(sh.lu),
                perm=ptr(sh.perm),
                l_ptr=ptr(sh.l_ptr),
                l_row=ptr(sh.l_row),
                u_ptr=ptr(sh.u_ptr),
                u_row=ptr(sh.u_row),
            )
            for sh in self._shards
        ])
        st = CSolverState(
            n_lanes=len(self.solvers),
            size=self._sol_bt.shape[1],
            n_vals=self._vals_bt.shape[1],
            n_react=self._n_react,
            n_scatter=self._scat_idx.size,
            n_cs=self._cs_dst.size,
            n_vs=self._vs_rows.size,
            n_shards=len(self._shards),
            shards=ctypes.addressof(shards),
            react_g=ptr(self._react_g_bt),
            react_v=ptr(self._react_v_bt),
            react_i=ptr(self._react_i_bt),
            react_sign=ptr(self._react_sign),
            pos_mask=ptr(self._react_pos_mask),
            neg_mask=ptr(self._react_neg_mask),
            react_pos=ptr(self._react_pos_flat),
            react_neg=ptr(self._react_neg_flat),
            vals=ptr(self._vals_bt),
            base=ptr(self._base),
            cs_dst=ptr(self._cs_dst),
            cs_src=ptr(self._cs_src),
            scat_idx=ptr(self._scat_idx),
            scat_src=ptr(self._scat_src),
            scat_gain=ptr(self._gain_flat),
            vs_rows=ptr(self._vs_rows),
            vs_vals=ptr(self._vs_bt),
            rhs=ptr(self._rhs_bt),
            sol=ptr(self._sol_bt),
        )
        self._c_refs = [shards, self._shards]
        self._c_state_ptr = ctypes.pointer(st)  # keeps st alive
        self._lanes_dirty = False

    def _c_pointer(self):
        """Pointer to the C kernel's state struct, rewired first when a
        lane refactorization dirtied the shard map."""
        if self._lanes_dirty:
            self._rebuild_lanes()
        return self._c_state_ptr

    @property
    def shard_count(self) -> int:
        """How many distinct LU factorizations the lane set shares."""
        if self._lanes_dirty:
            self._rebuild_lanes()
        return len(self._shards)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every lane one trapezoidal step: ``step_n(1)``."""
        return self.step_n(1)

    def step_n(self, n: int) -> np.ndarray:
        """Advance every lane ``n`` lock-stepped trapezoidal steps in one
        C call (see ``_solverc.c``).

        Returns the ``(B, num_nodes)`` node voltages at the new time (a
        view into batch state — copy before mutating).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self._clib.solver_step_n(self._c_pointer(), n)
        self._advance_clock(n)
        return self._sol_bt[:, : self.num_nodes]

    def step_n_checked(
        self, n: int, snap: np.ndarray, limit_sq: np.ndarray
    ) -> int:
        """:meth:`step_n` wrapped in :class:`BatchSolverGuard`'s clean path.

        Copies the reactive state into ``snap`` (shaped like the
        ``(2, B, n_react)`` reactive block) before stepping, then counts
        the lanes whose solution row fails the health proof
        ``x . x < limit_sq[lane]`` (NaN/Inf fail it).  The kernel does
        all three in one C call, so a clean guarded cycle costs what an
        unguarded one does.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        args = self._checked_args
        if args is None or args[0] is not snap or args[1] is not limit_sq:
            args = self._bind_checked_args(snap, limit_sq)
        bad = self._clib.solver_step_n_checked(
            self._c_pointer(), n, args[2], args[3]
        )
        self._advance_clock(n)
        return bad

    def _bind_checked_args(self, snap: np.ndarray, limit_sq: np.ndarray):
        """Validate and cache the raw addresses step_n_checked passes."""
        if (
            snap.shape != self._react_vi_bt.shape
            or limit_sq.shape != (self._n_lanes,)
            or snap.dtype != np.float64
            or limit_sq.dtype != np.float64
            or not snap.flags.c_contiguous
            or not limit_sq.flags.c_contiguous
        ):
            raise ValueError(
                "step_n_checked needs a C-contiguous float64 snapshot "
                f"shaped {self._react_vi_bt.shape} and ({self._n_lanes},) "
                "limits"
            )
        self._checked_args = (
            snap, limit_sq, snap.ctypes.data, limit_sq.ctypes.data
        )
        return self._checked_args

    def _advance_clock(self, n: int) -> None:
        """Bookkeeping after a C call of ``n`` substeps."""
        # The clock advances by the same sequential accumulation a
        # serial lane performs (t += dt, n times), keeping every
        # recovered-lane/time comparison bit-aligned.
        clock = self._clock
        t = float(clock[0])
        clock[1] = t
        dt = self.dt
        for _ in range(n):
            t = t + dt
        clock[0] = t
        self._csteps[0] += n

    def fold_lanes(self, rows: Optional[Sequence[int]] = None) -> None:
        """Write the batch clock back into the lanes (``rows``, or all).

        Each lane behind on the batch's steps gets the clock's time and
        the substeps it has not yet counted in ``stats.steps``.
        """
        n = int(self._csteps[0])
        folded = self._folded
        t = None
        for i in range(self._n_lanes) if rows is None else rows:
            pending = n - folded[i]
            if pending:
                if t is None:
                    t = float(self._clock[0])
                folded[i] = n
                self._stats_list[i].steps += pending
                self.solvers[i].time = t

    # ------------------------------------------------------------------
    def vsource_currents(
        self, name: str, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-lane current delivered by voltage source ``name`` (B,).

        ``out`` (any (B,) float view, strided ok) avoids the per-call
        temporary on the recording hot path.
        """
        row = self._branch_rows.get(name)
        if row is None:
            rows = set()
            for s in self.solvers:
                try:
                    rows.add(s.structure.branch_index[name])
                except KeyError:
                    raise KeyError(f"no voltage source named {name!r}")
            if len(rows) != 1:
                raise ValueError(
                    f"voltage source {name!r} maps to different branch "
                    "rows across lanes"
                )
            row = rows.pop()
            self._branch_rows[name] = row
        if out is not None:
            return np.negative(self._sol_bt[:, row], out=out)
        return -self._sol_bt[:, row]


class NumericalDivergence(RuntimeError):
    """A transient step diverged and every recovery stage failed.

    Carries the forensics a post-mortem needs: which cycle and lane blew
    up, the worst node and its value, the residual at first detection,
    and how many recoveries the guard had performed before giving up.
    ``run_cosim`` converts this into a structured ``diverged`` verdict
    instead of letting it crash a campaign.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str,
        time_s: float,
        cycle: Optional[int] = None,
        lane: Optional[int] = None,
        worst_node: Optional[str] = None,
        worst_node_index: Optional[int] = None,
        worst_value: Optional[float] = None,
        residual_norm: Optional[float] = None,
        recoveries: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.time_s = float(time_s)
        self.cycle = cycle
        self.lane = lane
        self.worst_node = worst_node
        self.worst_node_index = worst_node_index
        self.worst_value = worst_value
        self.residual_norm = residual_norm
        self.recoveries = dict(recoveries or {})

    def forensics(self) -> Dict[str, object]:
        """JSON-ready divergence record (drops None-valued fields)."""
        record: Dict[str, object] = {
            "message": str(self),
            "stage": self.stage,
            "time_s": self.time_s,
            "recoveries": dict(self.recoveries),
        }
        for key in ("cycle", "lane", "worst_node", "worst_node_index"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        for key in ("worst_value", "residual_norm"):
            value = getattr(self, key)
            if value is not None:
                record[key] = float(value)
        return record


# Exceptions a LAPACK/NumPy solve path can raise on bad numerics:
# LinAlgError from the dense DC solve, ValueError from check_finite
# guards inside scipy factorizations, FloatingPointError under strict
# np.errstate regimes.
_SOLVE_ERRORS = (np.linalg.LinAlgError, ValueError, FloatingPointError)

# Module-level binding: the guard's clean path runs every co-sim cycle
# and a global load beats an attribute chain there.
_dot = np.dot


class SolverGuard:
    """Numerical guard-rail around one lane's per-cycle substeps.

    Detection is one sum-of-squares proof per co-sim cycle:
    ``x . x < limit^2`` certifies every entry is inside the spike
    limit (NaN/Inf contaminate the dot and fail the comparison), and
    only suspicious cycles pay a per-entry extrema scan.  The clean
    hot path therefore costs two small state copies and one fused
    reduction — and it steps through :meth:`TransientSolver.step_n`,
    whose loop fusion pays for that bookkeeping (gated at 2% by
    ``benchmarks/test_perf_guard``).  On a bad cycle the guard
    restores the cycle-start snapshot and escalates:

    1. re-factorize the MNA matrix and redo the cycle;
    2. halve the step size (bounded, companion matrix restamped) and
       redo the cycle at finer resolution;
    3. raise :class:`NumericalDivergence` with forensics.

    Recovered cycles land back on the nominal time grid (the end time
    is recomputed with the clean path's exact accumulation sequence),
    so a recovery never skews later source-waveform evaluation.
    """

    DEFAULT_SPIKE_LIMIT_V = 1.0e3

    def __init__(
        self,
        solver: TransientSolver,
        spike_limit_v: float = DEFAULT_SPIKE_LIMIT_V,
        max_dt_halvings: int = 3,
        lane: Optional[int] = None,
    ) -> None:
        if spike_limit_v <= 0:
            raise ValueError(f"spike_limit_v must be positive, got {spike_limit_v}")
        if max_dt_halvings < 0:
            raise ValueError(f"max_dt_halvings must be >= 0, got {max_dt_halvings}")
        self.solver = solver
        self.spike_limit_v = float(spike_limit_v)
        self.max_dt_halvings = int(max_dt_halvings)
        self.lane = lane
        self.refactor_recoveries = 0
        self.dt_halving_recoveries = 0
        self.divergences = 0
        self._node_names: Optional[Dict[int, str]] = None
        # Preallocated cycle-start snapshot buffers: the clean path
        # runs every cycle of every default co-sim, so it must not
        # allocate.
        self._snap_v = np.empty_like(solver._react_v)
        self._snap_i = np.empty_like(solver._react_i)
        # ``x . x < limit^2`` proves ``max|x| < limit`` in one BLAS
        # call; the precise per-entry scan only runs when the cheap
        # proof fails (see ``step_cycle``).
        self._limit_sq = self.spike_limit_v * self.spike_limit_v

    def counters(self) -> Dict[str, int]:
        return {
            "refactor_recoveries": self.refactor_recoveries,
            "dt_halving_recoveries": self.dt_halving_recoveries,
            "divergences": self.divergences,
        }

    @property
    def recoveries(self) -> int:
        return self.refactor_recoveries + self.dt_halving_recoveries

    # -- detection -----------------------------------------------------
    def _healthy(self, solution: np.ndarray) -> bool:
        # Two temp-free reductions instead of ``abs(x).max()``; a
        # NaN-contaminated extremum compares False against the limit,
        # so the two comparisons cover non-finite values and runaway
        # spikes in either direction.
        limit = self.spike_limit_v
        return bool(solution.max() < limit) and bool(
            solution.min() > -limit
        )

    def _worst(self, solution: np.ndarray) -> Tuple[int, float]:
        bad = np.flatnonzero(~np.isfinite(solution))
        if bad.size:
            idx = int(bad[0])
        else:
            idx = int(np.argmax(np.abs(solution)))
        return idx, float(solution[idx])

    def _node_name(self, index: int) -> str:
        if self._node_names is None:
            structure = self.solver.structure
            names = {}
            for node in self.solver.circuit.nodes:
                pos = structure.node(node)
                if pos is not None:
                    names[pos] = node
            for vs_name, row in structure.branch_index.items():
                names[row] = f"branch:{vs_name}"
            self._node_names = names
        return self._node_names.get(index, f"unknown:{index}")

    def _residual_norm(self, rhs: Optional[np.ndarray]) -> Optional[float]:
        matrix = getattr(self.solver, "_matrix", None)
        if rhs is None or matrix is None:
            return None
        residual = matrix @ self.solver.solution - rhs
        return float(np.abs(residual).max())

    # -- recovery machinery --------------------------------------------
    def _restore(self, v0: np.ndarray, i0: np.ndarray, t0: float) -> None:
        solver = self.solver
        solver._react_v[:] = v0
        solver._react_i[:] = i0
        solver.time = t0

    def _reattach(self) -> None:
        """Re-home the solution row after serial redo under a batch owner.

        The serial step rebinds ``solver.solution`` to a fresh array;
        when a :class:`BatchTransientSolver` owns the lane, the batch's
        ``(B, size)`` block must get the values and the lane must go
        back to viewing its row.
        """
        solver = self.solver
        owner = getattr(solver, "_batch_owner", None)
        if owner is None:
            return
        if not np.shares_memory(solver.solution, owner._sol_bt):
            row = owner.solvers.index(solver)
            owner._sol_bt[row, :] = solver.solution
            solver.solution = owner._sol_bt[row]

    def _try_steps(self, count: int) -> Tuple[Optional[np.ndarray], Optional[BaseException]]:
        solver = self.solver
        node_v = None
        try:
            for _ in range(count):
                node_v = solver.step()
        except _SOLVE_ERRORS as exc:
            return node_v, exc
        return node_v, None

    # -- the guarded cycle ---------------------------------------------
    def step_cycle(
        self, substeps: int, cycle: Optional[int] = None
    ) -> np.ndarray:
        """Run one co-sim cycle (``substeps`` solver steps) under guard."""
        solver = self.solver
        self._snap_v[:] = solver._react_v
        self._snap_i[:] = solver._react_i
        t0 = solver.time
        try:
            node_v = solver.step_n(substeps)
        except _SOLVE_ERRORS as exc:
            return self._recover(substeps, cycle, t0, None, exc)
        # Cheap sufficient health proof: ``max(x)^2 <= x . x``, so a
        # sum of squares under ``limit^2`` certifies every entry is
        # inside the spike limit in one fused reduction (NaN/Inf
        # contaminate the dot and fail the comparison).  Only
        # suspicious cycles pay the per-entry extrema scan.
        solution = solver.solution
        if _dot(solution, solution) < self._limit_sq or self._healthy(solution):
            if solver._batch_owner is not None:
                self._reattach()
            return node_v
        return self._recover(substeps, cycle, t0, node_v, None)

    def _recover(
        self,
        substeps: int,
        cycle: Optional[int],
        t0: float,
        node_v: Optional[np.ndarray],
        err: Optional[BaseException],
    ) -> np.ndarray:
        """Escalating recovery for a cycle the fast path flagged."""
        solver = self.solver
        v0, i0 = self._snap_v, self._snap_i

        # Forensics at first detection, before any recovery clobbers
        # the diverged state.
        worst_idx, worst_val = self._worst(solver.solution)
        residual = self._residual_norm(getattr(solver, "_last_rhs", None))
        detect_error = err

        # Stage 1: refactorize (stale/poisoned LU, drifted element
        # values) and redo the cycle from the snapshot.
        self._restore(v0, i0, t0)
        try:
            solver.refactor()
        except _SOLVE_ERRORS:
            pass
        else:
            node_v, err = self._try_steps(substeps)
            if err is None and self._healthy(solver.solution):
                self.refactor_recoveries += 1
                self._reattach()
                return node_v

        # Stage 2: bounded substep halving.  The end time is rebuilt
        # with the clean path's exact accumulation (t += dt, substeps
        # times) so recovered lanes stay bit-aligned with the grid.
        dt0 = solver.dt
        t_end = t0
        for _ in range(substeps):
            t_end = t_end + dt0
        for halving in range(1, self.max_dt_halvings + 1):
            self._restore(v0, i0, t0)
            recovered = False
            try:
                solver.set_dt(dt0 / (2.0 ** halving))
                node_v, err = self._try_steps(substeps * (2 ** halving))
                recovered = err is None and self._healthy(solver.solution)
            except _SOLVE_ERRORS:
                recovered = False
            if solver.dt != dt0:
                try:
                    solver.set_dt(dt0)
                except _SOLVE_ERRORS:
                    break
            if recovered:
                solver.time = t_end
                self.dt_halving_recoveries += 1
                self._reattach()
                return node_v

        # Exhausted: leave the lane restored at the cycle boundary and
        # raise with the first-detection forensics.
        self._restore(v0, i0, t0)
        self.divergences += 1
        self._reattach()
        reason = (
            f"solve raised {type(detect_error).__name__}"
            if detect_error is not None
            else f"|V| at {self._node_name(worst_idx)} hit {worst_val!r}"
        )
        raise NumericalDivergence(
            f"transient step diverged at t={t0:.3e}s and survived no "
            f"recovery stage ({reason})",
            stage="exhausted",
            time_s=t0,
            cycle=cycle,
            lane=self.lane,
            worst_node=self._node_name(worst_idx),
            worst_node_index=worst_idx,
            worst_value=worst_val,
            residual_norm=residual,
            recoveries=self.counters(),
        )


class BatchSolverGuard:
    """Guard-rail over a :class:`BatchTransientSolver`'s fused cycle.

    The clean path is the fused batch step plus one per-lane peak scan.
    When lanes misbehave, only the offenders are rolled back to the
    cycle-start snapshot and re-run serially through their per-lane
    :class:`SolverGuard` (the serial step is bit-identical to the fused
    one, so healthy lanes are untouched and recovered lanes land on
    exactly the state a serial recovery would produce).  Lanes whose
    recovery ladder is exhausted are reported per-row so the co-sim can
    quarantine them and keep the survivors lock-stepped.
    """

    def __init__(
        self,
        batch: BatchTransientSolver,
        guards: Optional[Sequence[SolverGuard]] = None,
        spike_limit_v: float = SolverGuard.DEFAULT_SPIKE_LIMIT_V,
        max_dt_halvings: int = 3,
    ) -> None:
        self.batch = batch
        if guards is None:
            guards = [
                SolverGuard(
                    s,
                    spike_limit_v=spike_limit_v,
                    max_dt_halvings=max_dt_halvings,
                    lane=i,
                )
                for i, s in enumerate(batch.solvers)
            ]
        guards = list(guards)
        if len(guards) != len(batch.solvers):
            raise ValueError("need exactly one guard per lane")
        for guard, solver in zip(guards, batch.solvers):
            if guard.solver is not solver:
                raise ValueError("guard/lane pairing is misaligned")
        self.guards = guards
        self._limits = np.array([g.spike_limit_v for g in guards])
        # Preallocated buffers for the per-cycle snapshot and health
        # scan: the clean path must not allocate (B, size) temporaries.
        self._snap_vi = np.empty_like(batch._react_vi_bt)
        self._mx = np.empty(len(guards))
        self._mn = np.empty(len(guards))
        # Per-row bound of the cheap health proof (see SolverGuard:
        # ``x . x < limit^2`` implies no spike).
        self._limit_sq = self._limits * self._limits
        self._nodes = batch._sol_bt[:, : batch.num_nodes]

    def counters(self) -> Dict[str, int]:
        total = {
            "refactor_recoveries": 0,
            "dt_halving_recoveries": 0,
            "divergences": 0,
        }
        for guard in self.guards:
            for key, value in guard.counters().items():
                total[key] += value
        return total

    def step_cycle(
        self, substeps: int, cycle: Optional[int] = None
    ) -> Tuple[np.ndarray, Dict[int, NumericalDivergence]]:
        """Advance every lane one cycle; recover or report bad lanes.

        Returns ``(node_voltages, failures)`` where ``node_voltages``
        is the ``(B, num_nodes)`` block (recovered lanes included) and
        ``failures`` maps batch row -> :class:`NumericalDivergence` for
        lanes whose recovery ladder was exhausted.
        """
        if substeps <= 0:
            raise ValueError(f"substeps must be positive, got {substeps}")
        batch = self.batch
        # The step snapshots both reactive planes into ``snap`` (the
        # batch keeps v/i stacked in a single (2, B, R) block for this)
        # and counts the rows failing the cheap health proof: a sum of
        # squares under ``limit^2`` certifies every entry is inside the
        # spike limit (NaN/Inf contaminate the row's dot and fail).
        t0 = float(batch._clock[0])
        suspects = batch.step_n_checked(
            substeps, self._snap_vi, self._limit_sq
        )
        if not suspects:
            return self._nodes, {}
        return self._nodes, self.resolve(substeps, cycle, t0)

    def resolve(
        self, substeps: int, cycle: Optional[int], t0: float
    ) -> Dict[int, NumericalDivergence]:
        """Settle a stepped cycle whose cheap health proof flagged rows.

        ``t0`` is the cycle's start time.  Precise temp-free per-row
        extrema (NaN rows fail both compares) pick the truly bad rows;
        those are rolled back to the cycle-start snapshot and redone
        through their per-lane guard.  Returns the rows whose recovery
        ladder was exhausted.
        """
        batch = self.batch
        batch.fold_lanes()
        sol = batch._sol_bt
        sol.max(axis=1, out=self._mx)
        sol.min(axis=1, out=self._mn)
        healthy = (self._mx < self._limits) & (self._mn > -self._limits)
        if healthy.all():
            return {}
        bad_rows = np.flatnonzero(~healthy).tolist()
        # The fused attempt is discarded for these rows: uncount it, so
        # a redone lane's step count matches a serial guard's.
        for row in bad_rows:
            batch.solvers[row].stats.steps -= substeps
        return self._redo(bad_rows, substeps, cycle, t0)

    def _redo(
        self, rows, substeps: int, cycle: Optional[int], t0: float
    ) -> Dict[int, NumericalDivergence]:
        """Redo ``rows`` serially from the cycle-start snapshot."""
        batch = self.batch
        solvers = batch.solvers
        failures: Dict[int, NumericalDivergence] = {}
        v0, i0 = self._snap_vi[0], self._snap_vi[1]
        for row in rows:
            solver = solvers[row]
            solver._react_v[:] = v0[row]
            solver._react_i[:] = i0[row]
            solver.time = t0
            try:
                self.guards[row].step_cycle(substeps, cycle=cycle)
            except NumericalDivergence as exc:
                failures[row] = exc
        # Recovered lanes land on the nominal grid; so does the clock.
        t = t0
        for _ in range(substeps):
            t = t + batch.dt
        batch._clock[0] = t
        return failures
