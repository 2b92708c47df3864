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
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

from repro import native
from repro.circuits._solverc import CSolverState
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

    def rebind_sources(self) -> None:
        """Re-scan current sources' bound batch buffers.

        Lane quarantine re-binds a surviving PDN's current sources to a
        row of a freshly compacted batch array
        (``StackedPDN.bind_current_buffer``); this refreshes the cached
        buffer handles the step's gather reads from.
        """
        self._build_cs_gathers()

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize_dc(self, t: float = 0.0) -> np.ndarray:
        """Start from the DC operating point with sources held at time ``t``.

        Capacitors are open, inductors are (near-)shorts.  The computed
        node voltages seed capacitor voltages, and inductor currents are
        read from the short-circuit branch currents.
        """
        size = self.structure.size
        matrix = self.structure.assemble_resistive()
        for (p, n) in self._ind_nodes:
            self.structure.stamp_conductance(matrix, p, n, self._DC_SHORT_SIEMENS)
        rhs = self.structure.rhs_sources(t)
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


class _SolverShard:
    """Lanes whose MNA matrices are value-identical, sharing one LU.

    The representative lane's factorization serves every member:
    ``lu_factor`` is deterministic, so value-identical matrices produce
    bit-identical LU blocks and solving any member against the shared
    block is bit-identical to solving against its own.
    """

    __slots__ = ("getrs", "lu", "piv", "piv1")

    def __init__(self, getrs, lu: np.ndarray, piv: np.ndarray) -> None:
        self.getrs = getrs
        self.lu = lu
        self.piv = piv
        self.piv1: Optional[np.ndarray] = None  # 1-based int32, C kernel


class BatchTransientSolver:
    """Lock-stepped trapezoidal stepping of B same-topology solvers.

    The batched co-simulator advances B independent scenarios per GPU
    cycle.  Their circuits share one topology family — identical node
    sets, element sets and step size (the MNA *structure* and scatter
    index maps are equal) — while element *values*, source waveforms and
    per-lane fault refactorizations may differ.  This class fuses the
    per-step NumPy dispatch across lanes: companion currents, the RHS
    scatter (one flat-index ``bincount`` over all lanes) and the
    companion-state update run on ``(B, ...)`` arrays, while the LAPACK
    back-substitution runs per shard of value-identical matrices
    (:class:`_SolverShard`): one shared ``lu_factor`` per shard and
    per-lane NRHS=1 solves against it.  (A multi-RHS ``getrs`` over a
    shard's block reorders dot-product accumulation in a blocked BLAS
    ``trsm`` and breaks bit-identity against ``run_cosim``.)  A mid-run
    :meth:`TransientSolver.refactor` marks the lane map dirty, and the
    next step regroups: the refactored lane splits into its own shard
    and the surviving shard is untouched, so fault injection and guard
    recovery keep working unchanged.

    ``step_n`` and ``step_n_checked`` run compiled, in the native
    library (:mod:`repro.native`), whenever the circuit is eligible
    (one shared C-contiguous current base, no plain current sources, no
    callable voltage sources): the whole cycle's substeps — companion
    update, source gather, RHS scatter, voltage-source stamp, per-lane
    LAPACK back-substitution through the genuine ``dgetrs`` pointer,
    and the reactive-state update — run in one crossing into
    ``_solverc.c``.  Other batches step through the NumPy batch step
    (:meth:`step`), which is also the C kernel's bit-identity
    reference.

    Each lane's dynamic state (``_react_v`` / ``_react_i`` / ``solution``)
    is re-homed as a row view of the batch arrays, so per-lane reads
    (``vsource_current``, ``inductor_current``) stay coherent.  The
    lanes' ``time`` and ``stats.steps`` are mirrors of one shared batch
    clock that the compiled path advances; call :meth:`fold_lanes`
    before reading them.  Do not call ``lane.step()`` directly while a
    batch owns the lanes.

    ``shared_current_base`` is an optional ``(B, num_sources)`` array
    whose row i is lane i's bound current buffer (see
    ``StackedPDN.bind_current_buffer``); when given, all lanes' source
    currents are gathered with a single 2-D fancy-indexed read per step.
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
        self.dt = first.dt
        self.num_nodes = first.structure.num_nodes
        size = first.structure.size
        n_lanes = len(self.solvers)
        self._cs_offset = first._cs_offset

        # Per-lane dynamic state re-homed as rows of batch arrays.
        # Companion gains are stacked per lane (fault refactorization
        # keeps them unchanged, but lanes may be built with different
        # element values).
        self._react_g_bt = np.stack([s._react_g for s in self.solvers])
        # Reactive v/i live in one contiguous (2, B, R) block so the
        # guard's per-cycle snapshot/rollback is a single copy.
        n_react_first = first._react_v.size
        self._react_vi_bt = np.empty((2, n_lanes, n_react_first))
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

        # The shared batch clock: ``_clock`` is [time, time at the start
        # of the last compiled step] and ``_csteps`` counts the substeps
        # compiled steps took.  Compiled steps advance only these (one
        # clock, not B lane updates); fold_lanes() writes them into the
        # lanes, and ``_folded`` holds each lane's count at its last fold.
        self._clock = np.array([first.time, first.time])
        self._csteps = np.zeros(1, dtype=np.int64)
        self._folded = [0] * n_lanes
        self._stats_list = [s.stats for s in self.solvers]

        self._vals_bt = np.zeros((n_lanes, first._vals.size), dtype=float)
        self._size = size
        self._n_lanes = n_lanes
        self._flat_size = n_lanes * size
        # Flat-index scatter: view the (B, size) RHS as one vector and
        # offset each lane's scatter indices by its row start, so a
        # single bincount covers every lane.  Lanes never collide and
        # within a lane the triple order is unchanged (bincount, like
        # np.add.at, accumulates in input order), so the per-index
        # accumulation order — hence every bit — matches the serial
        # scatter.
        self._flat_idx = (
            np.arange(n_lanes, dtype=np.intp)[:, None] * size
            + first._scatter_idx[None, :]
        ).ravel()
        # Flat-view gather indices: the batch buffers are C-contiguous,
        # so every per-lane fancy gather collapses to one 1-D fancy
        # read over the flattened buffer — same elements, same order,
        # far fewer dispatches than a per-axis fancy index.
        n_vals = first._vals.size
        lane_off = np.arange(n_lanes, dtype=np.intp)[:, None]
        self._vals_flat = self._vals_bt.reshape(-1)
        self._scatter_src_flat = (
            lane_off * n_vals + first._scatter_src[None, :]
        ).ravel()
        self._gain_flat = np.tile(first._scatter_gain, n_lanes)
        self._sol_flat = self._sol_bt.reshape(-1)
        self._react_pos_flat = (
            lane_off * size + first._react_pos[None, :]
        ).ravel()
        self._react_neg_flat = (
            lane_off * size + first._react_neg[None, :]
        ).ravel()
        n_react = first._react_v.size
        self._n_react = n_react
        self._ieq_buf = np.empty((n_lanes, n_react))
        # Shard map and per-lane solve cache (see _rebuild_lanes).  The
        # refactor() hook below invalidates them when a fault injector
        # re-factorizes any lane's matrix mid-run.
        self._lanes_dirty = True
        self._lane_solve: list = []
        self._shards: List[_SolverShard] = []
        self._lane_shard: List[_SolverShard] = []
        for s in self.solvers:
            s._batch_owner = self
        self._scatter_gain = first._scatter_gain
        self._scatter_src = first._scatter_src
        self._vs_row_idx = first._vs_row_idx
        self._react_pos = first._react_pos
        self._react_neg = first._react_neg
        self._react_pos_mask = first._react_pos_mask
        self._react_neg_mask = first._react_neg_mask
        self._react_sign = first._react_sign
        self._has_vs_callable = any(s._vs_callable for s in self.solvers)
        self._has_cs_plain = any(s._cs_plain for s in self.solvers)
        self._branch_rows: Dict[str, int] = {}

        self._shared_cs = None
        if shared_current_base is not None:
            base = np.asarray(shared_current_base)
            if base.shape[0] != n_lanes:
                raise ValueError(
                    "shared_current_base must have one row per lane"
                )
            ref_batch = first._cs_batches
            if len(ref_batch) != 1:
                raise ValueError(
                    "shared_current_base requires exactly one bound "
                    "current buffer per lane"
                )
            _, ref_slots, ref_gidx = ref_batch[0]
            for i, s in enumerate(self.solvers):
                if len(s._cs_batches) != 1:
                    raise ValueError(
                        "shared_current_base requires exactly one bound "
                        "current buffer per lane"
                    )
                buf, slots, gidx = s._cs_batches[0]
                if (
                    not np.array_equal(slots, ref_slots)
                    or not np.array_equal(gidx, ref_gidx)
                    or np.asarray(buf).shape != (base.shape[1],)
                    or not np.shares_memory(buf, base[i])
                ):
                    raise ValueError(
                        f"lane {i}'s current buffer is not row {i} of "
                        "shared_current_base"
                    )
            self._shared_cs = (base, ref_slots, ref_gidx)
            # When the shared base is C-contiguous, both sides of the
            # gather flatten to views, so one 1-D fancy read/write
            # replaces the 2-D fancy gather (same elements, same
            # per-element copy — bit-identical, just fewer dispatches).
            if base.flags["C_CONTIGUOUS"]:
                n_vals = self._vals_bt.shape[1]
                lanes_idx = np.arange(n_lanes, dtype=np.intp)[:, None]
                self._cs_flat_dst = (
                    lanes_idx * n_vals + np.asarray(ref_slots)[None, :]
                ).ravel()
                self._cs_flat_src = (
                    lanes_idx * base.shape[1]
                    + np.asarray(ref_gidx)[None, :]
                ).ravel()
                self._vals_flat = self._vals_bt.reshape(-1)
                self._base_flat = base.reshape(-1)
            else:
                self._cs_flat_dst = None
        else:
            self._cs_flat_dst = None

        # Compiled-backend state (resolved lazily on the first step_n).
        self._backend: Optional[str] = None
        self._clib = None
        self._c_state = None
        self._c_state_ptr = None
        self._c_refs: list = []
        self._rhs_bt: Optional[np.ndarray] = None
        # step_n_checked's (snap, limit_sq, snap address, limit address).
        self._checked_args: Optional[tuple] = None
        # The fused C kernel handles exactly the co-sim configuration:
        # one shared C-contiguous current base, no plain (unbound)
        # current sources, no waveform-callable voltage sources.
        self._c_eligible = (
            self._cs_flat_dst is not None
            and not self._has_cs_plain
            and not self._has_vs_callable
        )

    # ------------------------------------------------------------------
    # Shard bookkeeping
    # ------------------------------------------------------------------
    def _rebuild_lanes(self) -> None:
        """Regroup lanes into shards of value-identical MNA matrices.

        Runs lazily whenever ``_lanes_dirty`` — at construction and
        after any lane's :meth:`TransientSolver.refactor` (fault
        injection, guard recovery, ``set_dt``).  A refactored lane's
        matrix bytes change, so regrouping naturally splits it out of
        its old shard without touching the other members.  Also drops
        any cached C-kernel state (the shard LU pointers it holds are
        stale).
        """
        sol = self._sol_bt
        shard_map: Dict[bytes, _SolverShard] = {}
        shards: List[_SolverShard] = []
        lane_entries: list = []
        lane_shard: List[_SolverShard] = []
        for i, s in enumerate(self.solvers):
            key = s._matrix.tobytes()
            shard = shard_map.get(key)
            if shard is None:
                lu, piv = s._lu
                shard = _SolverShard(s._getrs, lu, piv)
                shard_map[key] = shard
                shards.append(shard)
            # Per-lane solve entry against the *shard's* LU; the sixth
            # slot is the per-entry in-place verdict for the lane's
            # getrs wrapper, probed on its own first solve (a wrapper
            # that copies for one lane must never be assumed in-place
            # for another).
            lane_entries.append(
                [shard.getrs, shard.lu, shard.piv, sol[i], s, None]
            )
            lane_shard.append(shard)
        self._shards = shards
        self._lane_solve = lane_entries
        self._lane_shard = lane_shard
        self._lanes_dirty = False
        self._c_state = None
        self._c_state_ptr = None
        self._c_refs = []

    @property
    def shard_count(self) -> int:
        """How many distinct LU factorizations the lane set shares."""
        if self._lanes_dirty:
            self._rebuild_lanes()
        return len(self._shards)

    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every lane one trapezoidal step in lock-step.

        Returns the ``(B, num_nodes)`` node voltages at the new time (a
        view into batch state — copy before mutating).
        """
        self.fold_lanes()
        solvers = self.solvers
        t_next = solvers[0].time + self.dt

        vals = self._vals_bt
        ieq = self._ieq_buf
        np.multiply(self._react_g_bt, self._react_v_bt, out=ieq)
        ieq += self._react_i_bt
        vals[:, : self._cs_offset] = ieq
        if self._cs_flat_dst is not None:
            self._vals_flat[self._cs_flat_dst] = (
                self._base_flat[self._cs_flat_src]
            )
        elif self._shared_cs is not None:
            base, slots, gidx = self._shared_cs
            vals[:, slots] = base[:, gidx]
        else:
            for i, s in enumerate(solvers):
                for buffer, slots, gidx in s._cs_batches:
                    vals[i, slots] = np.asarray(buffer)[gidx]
        if self._has_cs_plain:
            for i, s in enumerate(solvers):
                for slot, source in s._cs_plain:
                    vals[i, slot] = source.current_at(t_next)

        upd = self._vals_flat[self._scatter_src_flat]
        upd *= self._gain_flat
        rhs = np.bincount(
            self._flat_idx, weights=upd, minlength=self._flat_size,
        ).reshape(self._n_lanes, self._size)
        if self._has_vs_callable:
            for s in solvers:
                for slot, source in s._vs_callable:
                    s._vs_values[slot] = source.voltage_at(t_next)
        rhs[:, self._vs_row_idx] = self._vs_bt

        # Back-substitute per shard: every lane solves against its
        # shard's shared LU (value-identical matrices factorize to
        # bit-identical LU blocks).  LAPACK dgetrs overwrites a
        # contiguous RHS when allowed to, skipping the copy-back; each
        # lane's first solve probes whether its wrapper really solved
        # in place (it copies when it must) and that lane alone falls
        # back to an explicit copy-back — the verdict is never assumed
        # across lanes or shards.
        sol = self._sol_bt
        sol[:] = rhs
        if self._lanes_dirty:
            self._rebuild_lanes()
        for entry in self._lane_solve:
            getrs_f, lu, piv, row, s, inplace = entry
            solution, _info = getrs_f(lu, piv, row, overwrite_b=True)
            if inplace is None:
                inplace = bool(np.shares_memory(solution, row))
                entry[5] = inplace
            if not inplace:
                row[:] = solution
            s.stats.steps += 1
            s.time = t_next

        n_react = self._n_react
        v_new = (
            self._sol_flat[self._react_pos_flat].reshape(-1, n_react)
            * self._react_pos_mask
            - self._sol_flat[self._react_neg_flat].reshape(-1, n_react)
            * self._react_neg_mask
        )
        self._react_i_bt[:] = (
            self._react_g_bt * v_new + self._react_sign * ieq
        )
        self._react_v_bt[:] = v_new
        self._clock[0] = t_next
        return sol[:, : self.num_nodes]

    # ------------------------------------------------------------------
    # Fused multi-substep stepping (compiled backend)
    # ------------------------------------------------------------------
    @property
    def active_backend(self) -> str:
        """``"c"`` or ``"numpy"`` — the backend ``step_n`` will run."""
        if self._backend is None:
            self._resolve_backend()
        return self._backend

    def _resolve_backend(self) -> None:
        """Pick the ``step_n`` backend once: C when the circuit
        configuration is eligible (loading the native library raises
        :class:`repro.native.NativeBuildError` when it is unavailable).

        Ineligible configurations (plain current sources, callable
        voltage sources, no shared current base) stay on the NumPy
        batch step without consulting the library — that is a modeling
        choice, not a degradation.
        """
        self._clib = native.load() if self._c_eligible else None
        self._backend = "numpy" if self._clib is None else "c"

    def _build_c_state(self) -> None:
        """Wire the C kernel's state struct to the batch buffers.

        Rebuilt whenever the shard map changes (lane refactorization) —
        the struct holds raw addresses of each lane's shard LU block
        and 1-based pivot vector.  Every referenced array is pinned in
        ``_c_refs`` for the struct's lifetime.
        """
        n_lanes = self._n_lanes
        size = self._size
        if self._rhs_bt is None:
            self._rhs_bt = np.zeros((n_lanes, size), dtype=float)
        base, _slots, _gidx = self._shared_cs

        def i64(arr: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(arr, dtype=np.int64)

        lu_addr = np.empty(n_lanes, dtype=np.int64)
        piv_addr = np.empty(n_lanes, dtype=np.int64)
        for i, shard in enumerate(self._lane_shard):
            if shard.piv1 is None:
                # scipy's lu_factor pivots are 0-based; the raw LAPACK
                # routine wants 1-based int32.
                shard.piv1 = (shard.piv + 1).astype(np.int32)
            lu_addr[i] = shard.lu.ctypes.data
            piv_addr[i] = shard.piv1.ctypes.data

        cs_dst = i64(self._cs_flat_dst)
        cs_src = i64(self._cs_flat_src)
        scat_idx = i64(self._flat_idx)
        scat_src = i64(self._scatter_src_flat)
        vs_rows = i64(self._vs_row_idx)
        react_pos = i64(self._react_pos_flat)
        react_neg = i64(self._react_neg_flat)

        def ptr(arr: np.ndarray) -> int:
            return arr.ctypes.data

        st = CSolverState(
            n_lanes=n_lanes,
            size=size,
            n_vals=self._vals_bt.shape[1],
            n_react=self._n_react,
            n_scatter=self._flat_idx.size,
            n_cs=cs_dst.size,
            n_vs=vs_rows.size,
            dgetrs=native.dgetrs_pointer(),
            lu_addr=ptr(lu_addr),
            piv_addr=ptr(piv_addr),
            react_g=ptr(self._react_g_bt),
            react_v=ptr(self._react_v_bt),
            react_i=ptr(self._react_i_bt),
            react_sign=ptr(self._react_sign),
            pos_mask=ptr(self._react_pos_mask),
            neg_mask=ptr(self._react_neg_mask),
            react_pos=ptr(react_pos),
            react_neg=ptr(react_neg),
            vals=ptr(self._vals_bt),
            base=ptr(base),
            cs_dst=ptr(cs_dst),
            cs_src=ptr(cs_src),
            scat_idx=ptr(scat_idx),
            scat_src=ptr(scat_src),
            scat_gain=ptr(self._gain_flat),
            vs_rows=ptr(vs_rows),
            vs_vals=ptr(self._vs_bt),
            rhs=ptr(self._rhs_bt),
            sol=ptr(self._sol_bt),
        )
        self._c_refs = [
            lu_addr, piv_addr, cs_dst, cs_src, scat_idx, scat_src,
            vs_rows, react_pos, react_neg,
            [shard.piv1 for shard in self._shards],
        ]
        self._c_state = st
        self._c_state_ptr = ctypes.pointer(st)

    def step_n(self, n: int) -> np.ndarray:
        """Advance every lane ``n`` lock-stepped trapezoidal steps.

        Bit-identical to ``n`` calls of :meth:`step` on either backend;
        the compiled path additionally fuses all ``n`` substeps into
        one C call (see ``_solverc.c``).  Defers to the per-step loop
        when ``step`` has been instance-patched (fault hooks and tests
        wrap ``batch.step``; a fused path must not bypass them).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if self._c_ready():
            self._c_finish(self._clib.solver_step_n(self._c_state_ptr, n), n)
            return self._sol_bt[:, : self.num_nodes]
        node_bt = None
        for _ in range(n):
            node_bt = self.step()
        return node_bt

    def step_n_checked(
        self, n: int, snap: np.ndarray, limit_sq: np.ndarray
    ) -> int:
        """:meth:`step_n` wrapped in :class:`BatchSolverGuard`'s clean path.

        Copies the reactive state into ``snap`` (shaped like the
        ``(2, B, n_react)`` reactive block) before stepping, then counts
        the lanes whose solution row fails the health proof
        ``x . x < limit_sq[lane]`` (NaN/Inf fail it).  The compiled
        backend does all three in one C call, so a clean guarded cycle
        costs what an unguarded one does.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if self._c_ready():
            args = self._checked_args
            if args is None or args[0] is not snap or args[1] is not limit_sq:
                args = self._bind_checked_args(snap, limit_sq)
            return self._c_finish(
                self._clib.solver_step_n_checked(
                    self._c_state_ptr, n, args[2], args[3]
                ),
                n,
            )
        np.copyto(snap, self._react_vi_bt)
        for _ in range(n):
            self.step()
        sol = self._sol_bt
        sq = np.einsum("ij,ij->i", sol, sol)
        return int(np.count_nonzero(~(sq < limit_sq)))

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

    def _c_ready(self) -> bool:
        """Whether the fused C path runs (building its state if so).

        It defers to the per-step loop when ``step`` has been
        instance-patched (fault hooks and tests wrap ``batch.step``; a
        fused path must not bypass them).
        """
        if self._backend is None:
            self._resolve_backend()
        if self._backend != "c" or "step" in self.__dict__:
            return False
        if self._lanes_dirty:
            self._rebuild_lanes()
        if self._c_state is None:
            self._build_c_state()
        return True

    def _c_finish(self, rc: int, n: int) -> int:
        """Bookkeeping after a fused C call of ``n`` substeps."""
        if rc < 0:
            raise RuntimeError(
                "C solver kernel: dgetrs rejected its arguments "
                f"on lane {-rc - 1}"
            )
        # The clock advances by the same sequential accumulation the
        # per-step path performs (t += dt, n times), keeping every
        # recovered-lane/time comparison bit-aligned.
        clock = self._clock
        t = float(clock[0])
        clock[1] = t
        dt = self.dt
        for _ in range(n):
            t = t + dt
        clock[0] = t
        self._csteps[0] += n
        return rc

    def fold_lanes(self, rows: Optional[Sequence[int]] = None) -> None:
        """Write the batch clock back into the lanes (``rows``, or all).

        Each lane behind on compiled steps gets the clock's time and the
        substeps it has not yet counted in ``stats.steps``.
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
        try:
            suspects = batch.step_n_checked(
                substeps, self._snap_vi, self._limit_sq
            )
        except _SOLVE_ERRORS:
            # The fused step died partway through a substep, so every
            # lane's state is suspect: roll them all back and redo each
            # serially (bit-identical to the fused path for lanes that
            # behave).
            batch._react_vi_bt[:] = self._snap_vi
            return self._nodes, self._redo(
                range(len(batch.solvers)), substeps, cycle, t0
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
