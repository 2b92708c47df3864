"""The coupled GPU / PDN / controller simulation loop.

Per GPU clock cycle:

1. the GPU timing model advances one cycle with whatever actuation is
   in force (issue widths, fake rates, DCC compensation) and emits each
   SM's power;
2. each SM's power becomes a load current ``I = P / V_sm`` on the PDN
   (the time-varying ideal-current-source convention), plus any DCC
   compensation power on its layer;
3. the transient solver advances the circuit by one clock period (in
   ``circuit_substeps`` trapezoidal steps for resonance accuracy);
4. the per-SM supply voltages feed the detectors and (cross-layer only)
   the Algorithm 1 controller, whose latency-delayed commands update
   the GPU's actuation for subsequent cycles.

One loop does this for B lock-stepped scenarios at once:
:func:`run_cosim_batch` runs it over a list of lanes, in groups of at
most :data:`LANE_GROUP`, and :func:`run_cosim` runs it with one.

:class:`LayerShutoffEvent` reproduces the paper's synthetic worst-case
imbalance (Fig. 9): at a chosen time a whole layer's SMs are forced to
stop issuing, dropping them to idle power while the rest of the stack
keeps running.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits import (
    BatchSolverGuard,
    BatchTransientSolver,
    SolverGuard,
    TransientSolver,
)
from repro.config import StackConfig, SystemConfig
from repro.faults import chaos
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)
from repro.core.prior_art import GlobalThrottleController
from repro.gpu.gpu import GPU
from repro.gpu.kernels import KernelSpec
from repro.pdn.builder import (
    StackedPDN, build_stacked_pdn, check_cr_ivr_area,
)
from repro.pdn.efficiency import (
    EfficiencyBreakdown,
    layer_shuffle_power,
    pde_voltage_stacked,
)
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters
from repro.sim._cyclec import (
    STAGE_GPU,
    STAGE_READOUT,
    STAGE_SOLVE,
    SUSPECT,
    CycleKernel,
)
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.traces import PowerTrace

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cost
    from repro.faults import FaultSchedule
    from repro.telemetry import Telemetry


#: An SM voltage outside [0, OUT_OF_RANGE_FACTOR * sm_voltage] is
#: physically impossible for a stacked layer (CosimResult.
#: out_of_range_cycles).
OUT_OF_RANGE_FACTOR = 2.0

#: Widest lane group :func:`run_cosim_batch` steps at once.  A wider
#: call runs as consecutive groups of near-equal size: the per-cycle
#: state of eight GPU engines stays in cache, while 128 engines'
#: outgrows a 2 MB L2 and the GPU stage slows per lane-cycle
#: (docs/performance.md, "Lane groups").
LANE_GROUP = 8

# Solver facts from this process's most recent run_cosim_batch — sweep
# workers thread the shard count into their heartbeat files for
# `repro top`.
_LAST_BATCH_SOLVER: Dict[str, object] = {}


def last_batch_solver_info() -> Dict[str, object]:
    """Solver backend/shard info from the most recent batch run.

    Returns a copy of ``{"backend": "c", "shards": int, "lanes": int,
    "fused_cycles": int}`` — ``shards`` summed over the call's lane
    groups, ``lanes`` the call's lane count and ``fused_cycles`` the
    loop cycles the longest-running group ran through the compiled
    cycle kernel (all of them, up to the cycle its last lane was
    quarantined) — or an empty dict until :func:`run_cosim_batch` has
    completed once in this process.
    """
    return dict(_LAST_BATCH_SOLVER)


@dataclass(frozen=True)
class LayerShutoffEvent:
    """Force a layer's SMs idle from ``start_cycle`` to ``end_cycle``."""

    layer: int = 3
    start_cycle: int = 2000
    end_cycle: int = 10**9

    def __post_init__(self) -> None:
        if self.end_cycle <= self.start_cycle:
            raise ValueError(
                f"LayerShutoffEvent: end_cycle ({self.end_cycle}) must be "
                f"after start_cycle ({self.start_cycle})"
            )

    def active(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle


@dataclass(frozen=True)
class CosimConfig:
    """Knobs of one co-simulation run."""

    cycles: int = 3000
    warmup_cycles: int = 200
    cr_ivr_area_mm2: float = 105.8  # the paper's 0.2x-die design point
    use_controller: bool = True
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    # Reliability default: DIWS + FII (Algorithm 1's paired actuation).
    # Performance studies override with DIWS-only or swept weights.
    actuation: Optional[WeightedActuation] = field(
        default_factory=lambda: WeightedActuation(w1=1.0, w2=1.0, w3=0.0)
    )
    circuit_substeps: int = 2
    seed: int = 1
    shutoff: Optional[LayerShutoffEvent] = None
    # Declarative cross-layer fault injection (repro.faults): a
    # FaultSchedule of timed circuit / architecture / system events,
    # threaded through the loop by a FaultInjector.  Event cycles use
    # the same convention as ``shutoff`` (0 = end of warmup).
    faults: Optional["FaultSchedule"] = None
    # Swap in a controller object for the lane: a fresh
    # VoltageSmoothingController, or the prior-art
    # GlobalThrottleController of the ablation.  Either runs as a lane
    # of the loop's controller bank; any other object, or one that has
    # already stepped, is rejected when the run is built.
    controller_object: Optional[object] = field(default=None, compare=False)
    # Numerical guard-rails (repro.circuits.SolverGuard): detect
    # non-finite / blown-up solves once per cycle and recover by
    # refactorizing, then substep halving, before declaring the run
    # diverged.  The clean-path check is bit-transparent (gated <=2% in
    # benchmarks/test_perf_guard.py); disable only for overhead
    # measurements.
    solver_guard: bool = True

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup cannot be negative")
        if self.warmup_cycles >= self.cycles:
            raise ValueError(
                f"warmup_cycles ({self.warmup_cycles}) must be smaller than "
                f"the measured window ({self.cycles} cycles): a warmup that "
                "long leaves (nearly) nothing to measure — every statistic "
                "would be dominated by settling transients or empty windows"
            )
        if self.circuit_substeps <= 0:
            raise ValueError("need at least one circuit substep")
        check_cr_ivr_area(self.cr_ivr_area_mm2)


class CosimResult:
    """Waveforms and statistics of one co-simulation."""

    def __init__(
        self,
        benchmark: str,
        power_trace: PowerTrace,
        sm_voltages: np.ndarray,
        supply_current: np.ndarray,
        stack: StackConfig,
        instructions: int,
        fake_instructions: int,
        throttled_cycles: int,
        controller_power_w: float,
        kernels_completed: int = 0,
        mean_dcc_power_w: float = 0.0,
    ) -> None:
        self.benchmark = benchmark
        self.power_trace = power_trace
        self.sm_voltages = sm_voltages  # (cycles, num_sms)
        self.supply_current = supply_current  # (cycles,)
        self.stack = stack
        self.instructions = instructions
        self.fake_instructions = fake_instructions
        self.throttled_cycles = throttled_cycles
        self.controller_power_w = controller_power_w
        self.kernels_completed = kernels_completed
        self.mean_dcc_power_w = mean_dcc_power_w
        self.kernel_durations: np.ndarray = np.array([])
        # Filled by run_cosim when a FaultSchedule was injected: the
        # manifest's ``faults`` section (events, counters, verdict).
        self.fault_report: Optional[Dict[str, object]] = None
        # The droop flight recorder that rode along, when one did
        # (always with telemetry, or passed explicitly): full-resolution
        # windows around every guardband onset / safe-state edge.
        self.flight = None
        # Structured verdict when the transient solve diverged and the
        # guard-rail ladder was exhausted (see SolverGuard): forensics
        # dict with cycle/stage/worst-node, plus truncated waveforms up
        # to the last good cycle.  None on a healthy run.
        self.divergence: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def num_cycles(self) -> int:
        return self.sm_voltages.shape[0]

    @property
    def out_of_range_cycles(self) -> int:
        """Recorded cycles in which some SM voltage is physically
        impossible: below 0 V or above ``OUT_OF_RANGE_FACTOR`` times the
        nominal layer voltage (a stack driven into gross imbalance)."""
        v = self.sm_voltages
        high = OUT_OF_RANGE_FACTOR * self.stack.sm_voltage
        return int(((v < 0.0) | (v > high)).any(axis=1).sum())

    @property
    def min_voltage(self) -> float:
        # Diverged runs may truncate to an empty window.
        if self.sm_voltages.size == 0:
            return float("nan")
        return float(self.sm_voltages.min())

    @property
    def max_voltage(self) -> float:
        if self.sm_voltages.size == 0:
            return float("nan")
        return float(self.sm_voltages.max())

    def voltage_percentiles(self, q) -> np.ndarray:
        """Noise-distribution percentiles over all SMs and cycles (Fig. 11)."""
        return np.percentile(self.sm_voltages, q)

    def worst_sm_voltage_trace(self) -> np.ndarray:
        """Per-cycle minimum SM voltage (Fig. 9's critical waveform)."""
        return self.sm_voltages.min(axis=1)

    @cached_property
    def mean_power_w(self) -> float:
        """Mean chip power over the recorded window (the trace's, summed
        once: a result's trace is final)."""
        return self.power_trace.mean_power_w

    def efficiency(
        self, params: PDNParameters = DEFAULT_PDN
    ) -> EfficiencyBreakdown:
        """PDE breakdown of this run, from the measured trace imbalance."""
        load = self.mean_power_w
        shuffle = layer_shuffle_power(self.power_trace.data, self.stack)
        return pde_voltage_stacked(
            load, shuffle, self.stack, params,
            controller_power_w=self.controller_power_w,
        )

    def throughput(self) -> float:
        """Real instructions per cycle across the GPU."""
        if self.num_cycles == 0:
            return 0.0
        return self.instructions / self.num_cycles

    def cycles_per_kernel(self) -> float:
        """Mean kernel completion time — the performance-penalty metric.

        Throttling that merely eats kernel-tail slack does not extend
        completion time; throttling on the critical SM does.  Requires
        at least one completed kernel in the measured window.
        """
        if len(self.kernel_durations) == 0:
            raise ValueError(
                "no kernel completed in the measurement window; run longer"
            )
        return float(np.mean(self.kernel_durations))

    def summary(self) -> str:
        eff = self.efficiency()
        # Short runs may finish zero kernels; the human-facing summary
        # degrades to "n/a" while cycles_per_kernel() keeps raising for
        # library callers that need the real number.
        try:
            kernel_time = f"{self.cycles_per_kernel():.0f} cycles/kernel"
        except ValueError:
            kernel_time = "cycles/kernel n/a"
        return (
            f"{self.benchmark}: {self.num_cycles} cycles, "
            f"mean power {self.mean_power_w:.1f} W, "
            f"PDE {eff.pde:.1%}, "
            f"V(min) {self.min_voltage:.3f} V, "
            f"throughput {self.throughput():.1f} instr/cycle, "
            f"{kernel_time}, "
            f"fakes {self.fake_instructions}"
        )


def run_cosim(
    benchmark: str = "hotspot",
    config: CosimConfig = CosimConfig(),
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    kernel: Optional[KernelSpec] = None,
    telemetry: Optional["Telemetry"] = None,
    flight=None,
) -> CosimResult:
    """Run one coupled GPU/PDN/controller simulation.

    ``benchmark`` picks a paper workload; pass ``kernel`` to run a
    custom :class:`KernelSpec` instead (with default memory behaviour).

    The run is the co-sim loop behind :func:`run_cosim_batch` stepping
    a single lane, byte-identical to the one-scenario serial loop the
    test suite keeps as its oracle.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) records the
    per-stage wall-clock split (GPU model / transient solve /
    controller), solver and controller work counters, decimated
    per-cycle voltage/power channels, and headline metrics.  ``None``
    (the default) leaves the hot loop on its untimed fast path.

    ``flight`` (a :class:`repro.telemetry.FlightRecorder`) rides the
    loop and captures full-resolution windows around guardband onsets
    and safe-state edges.  One is created automatically whenever
    telemetry is enabled; pass ``False`` to suppress that, or your own
    recorder to control the window geometry.  The finalized recorder is
    attached as ``result.flight``.

    A diverged solve yields a structured verdict in
    ``result.divergence`` (no ``lane`` key) with the waveforms truncated
    at the last good cycle.  Only untargeted chaos ``nan_poison`` events
    apply here; lane-targeted ones belong to batches.
    """
    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event("cosim_start", benchmark=benchmark, cycles=config.cycles,
                   warmup_cycles=config.warmup_cycles, seed=config.seed)
        if config.faults is not None:
            tele.event(
                "faults_armed", schedule=config.faults.name,
                num_events=len(config.faults), seed=config.faults.seed,
            )
    lane = CosimLane(benchmark, config, kernel)
    _check_controller_objects([lane])
    # None (a recorder only alongside telemetry) and False pass through.
    flights = flight if flight is None or flight is False else [flight]
    (ln,), _, _ = _simulate(
        [lane], system, params, tele, flights, serial=True,
    )
    result = ln.result
    if tele is not None:
        if result.flight is not None:
            tele.set_section("flight", result.flight.summary())
        with tele.timer("finalize"):
            _record_cosim_channels(tele, result, ln.dcc_trace)
            _record_cosim_telemetry(
                tele, config, result, ln.solver, ln.controller, guard=ln.guard
            )
    return result


def _record_cosim_channels(
    tele, result: CosimResult, dcc_applied_w: np.ndarray
) -> None:
    """Offer the recorded window to the decimated per-cycle channels.

    One offer per recorded cycle: the worst SM voltage, the total
    power, the DCC power applied that cycle, and the worst layer's
    excess over the mean layer power.
    """
    from repro.telemetry.flight import _row_mins

    stack = result.stack
    powers = result.power_trace.data
    layer_powers = powers.reshape(
        len(powers), stack.num_layers, stack.num_columns
    ).sum(axis=2)
    series = (
        # A minimum is exact in any order; the sums keep NumPy's.
        ("min_sm_voltage_v", _row_mins(result.sm_voltages)),
        ("total_power_w", powers.sum(axis=1)),
        ("dcc_power_w", dcc_applied_w[: len(powers)]),
        (
            "worst_layer_imbalance_w",
            layer_powers.max(axis=1) - layer_powers.mean(axis=1),
        ),
    )
    for name, values in series:
        tele.channel(name).record_series(0, values)


def _record_cosim_telemetry(
    tele, config: CosimConfig, result: CosimResult, solver, controller,
    guard=None,
) -> None:
    """Flush run counters and headline metrics into the recorder."""
    tele.incr("cycles", config.cycles)
    tele.incr("warmup_cycles", config.warmup_cycles)
    tele.incr("solver_steps", solver.stats.steps)
    tele.incr("solver_factorizations", solver.stats.factorizations)
    tele.incr("solver_dc_solves", solver.stats.dc_solves)
    if guard is not None:
        for key, value in guard.counters().items():
            tele.incr(f"guard_{key}", value)
    if result.divergence is not None:
        tele.event("numerical_divergence", **result.divergence)
    if controller is not None:
        # The prior-art throttle keeps no statistics.
        stats = getattr(controller, "stats", None)
        stats = stats() if callable(stats) else {}
        for key in ("decisions_made", "triggers", "throttle_decisions",
                    "boost_decisions", "actuations_applied"):
            if key in stats:
                tele.incr(f"controller_{key}", stats[key])
        for actuator, count in (stats.get("actuator_decisions") or {}).items():
            tele.incr(f"controller_{actuator}_decisions", count)
        for actuator, count in (stats.get("slew_saturations") or {}).items():
            tele.incr(f"controller_slew_saturated_{actuator}", count)
    tele.incr("controller_throttled_cycles", result.throttled_cycles)
    tele.incr("fake_instructions", result.fake_instructions)
    tele.incr("instructions", result.instructions)
    tele.incr("kernels_completed", result.kernels_completed)
    metrics: Dict[str, object] = {
        "benchmark": result.benchmark,
        # Divergence and recovery work as gateable metrics: baselines
        # carry zeros, so repro compare flags any diverged or
        # recovery-burning candidate with zero-tolerance thresholds.
        "diverged": 1.0 if result.diverged else 0.0,
        "out_of_range_cycles": float(result.out_of_range_cycles),
        "guard_recoveries": (
            float(guard.recoveries) if guard is not None else 0.0
        ),
    }
    if result.num_cycles > 0:
        metrics.update({
            "min_voltage_v": result.min_voltage,
            "max_voltage_v": result.max_voltage,
            "mean_power_w": result.mean_power_w,
            "pde": result.efficiency().pde,
            "throughput_ipc": result.throughput(),
            "mean_dcc_power_w": result.mean_dcc_power_w,
        })
    tele.set_metrics(metrics)
    # The noise observatory: band decomposition, droop-event log, PDE
    # loss ledger and per-layer imbalance, embedded as the manifest's
    # ``noise`` section (rendered back by ``repro observe`` and gated
    # by ``repro compare``).  Too-short runs skip it with an event.
    if result.num_cycles >= 8:
        from repro.analysis.observatory import compute_noise_report

        tele.set_section("noise", compute_noise_report(result).to_dict())
    else:
        tele.event(
            "noise_report_skipped",
            reason="too few recorded cycles",
            cycles=result.num_cycles,
        )
    # Fault-injection section: injected events, degradation counters
    # and the guardband verdict (gated by ``repro compare`` via the
    # flat ``faults.*`` summary keys).
    if result.fault_report is not None:
        tele.set_section("faults", result.fault_report)
        tele.event(
            "fault_verdict",
            verdict=result.fault_report["verdict"],
            min_voltage_v=result.fault_report["summary"]["min_voltage_v"],
        )
    tele.event(
        "cosim_done", benchmark=result.benchmark,
        min_voltage_v=result.min_voltage,
        throughput_ipc=result.throughput(),
    )


# ---------------------------------------------------------------------------
# The co-sim loop: B lock-stepped lanes (run_cosim is B=1)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CosimLane:
    """One scenario of a batched co-simulation.

    Lanes in a batch must share a *topology family* — identical
    ``cycles``, ``warmup_cycles``, ``circuit_substeps`` and
    ``cr_ivr_area_mm2`` (the knobs that shape the netlist and the
    lock-stepped timeline) — while benchmark/kernel, seed, controller
    gains, actuation weights, shutoff events and fault schedules may
    vary freely per lane.  A lane steps lock-stepped with the others of
    its lane group (at most :data:`LANE_GROUP`), and its result is
    byte-identical to its solo run whatever its group.
    """

    benchmark: str = "hotspot"
    config: CosimConfig = field(default_factory=CosimConfig)
    kernel: Optional[KernelSpec] = None


_LANE_SHARED_FIELDS = (
    "cycles", "warmup_cycles", "circuit_substeps", "cr_ivr_area_mm2",
    "solver_guard",
)
def _check_controller_objects(lanes: List[CosimLane]) -> None:
    """Reject a controller object the controller bank cannot own: one of
    another class, one that has already stepped (its pipeline and
    counters belong to another run), or one shared by two lanes."""
    owner: Dict[int, int] = {}
    for i, lane in enumerate(lanes):
        obj = lane.config.controller_object
        if obj is None or not lane.config.use_controller:
            continue
        if type(obj) not in (VoltageSmoothingController,
                             GlobalThrottleController):
            raise TypeError(
                f"lane {i}: controller_object must be a "
                "VoltageSmoothingController or a GlobalThrottleController, "
                f"got {type(obj).__name__}"
            )
        if obj.stepped:
            raise ValueError(
                f"lane {i}: its controller_object has already stepped; "
                "give each run a fresh controller"
            )
        # A controller object carries one lane's state: two lanes
        # stepping the same one would corrupt each other.
        j = owner.setdefault(id(obj), i)
        if j != i:
            raise ValueError(
                f"lanes {j} and {i} share one controller_object; give "
                "each lane its own controller"
            )


class _LaneState:
    """Internal per-lane simulation state of the co-sim loop."""

    __slots__ = (
        "index", "lane", "name", "config", "gpu", "pdn", "solver", "injector",
        "controller", "controller_power", "shutoff_sms",
        "instructions_at_start", "fakes_at_start", "throttled_at_start",
        "halted_idx", "flight", "row", "dead", "dead_at", "divergence",
        "guard", "result", "dcc_trace", "flight_row", "flight_marks",
    )

    def __init__(self, index: int, lane: int) -> None:
        # ``index``: the lane's row in its group's recording arrays;
        # ``lane``: its index in the run_cosim_batch call, which names
        # it to chaos targeting, guards and verdicts.
        self.index = index
        self.lane = lane
        self.result: Optional[CosimResult] = None
        # Per-cycle applied DCC power over the recorded window, kept on
        # telemetered runs for run_cosim's channel replay.
        self.dcc_trace: Optional[np.ndarray] = None
        # Quarantine bookkeeping: ``row`` is the lane's current row in
        # the compacted batch arrays (== index until an eviction);
        # ``dead_at`` is the count of fully recorded cycles when the
        # lane was evicted.
        self.row = index
        self.dead = False
        self.dead_at = 0
        self.divergence = None
        self.guard = None
        self.injector = None
        self.controller = None
        self.controller_power = 0.0
        self.flight = None
        # The lane's current (decision, fault kinds, safe) flight row,
        # and the (cycle, row) marks of its changes, handed to the
        # flight recorder at the end of the run.
        self.flight_row = None
        self.flight_marks: list = []
        self.shutoff_sms: List[int] = []
        self.instructions_at_start = 0
        self.fakes_at_start = 0
        self.throttled_at_start = 0
        self.halted_idx: List[int] = []


class _PDNTopology:
    """One PDN topology's netlist, solver and DC operating point.

    A :func:`run_cosim_batch` call's lanes share their CR-IVR area,
    substeps and PDN parameters, hence the netlist, the MNA matrix and
    its LU, and the DC operating point at the nominal SM current: the
    topology builds them once, on first use, and every lane that never
    edits its netlist forks its own solver from them
    (:meth:`TransientSolver.fork`), so a guard's ``set_dt``, a
    quarantine's ``rebind_sources`` or another lane's refactorization
    stays in its lane.  A lane whose faults edit element values (CR-IVR
    phase loss, drift) gets a netlist and solver of its own.
    """

    def __init__(
        self,
        system: SystemConfig,
        params: PDNParameters,
        cr_ivr_area_mm2: float,
        substeps: int,
    ) -> None:
        self.stack = system.stack
        self.params = params
        self.cr_ivr_area_mm2 = cr_ivr_area_mm2
        self.dt = system.gpu.cycle_time_s / substeps
        #: The SM draw the DC operating point is solved at.
        self.nominal_current = (
            system.power.sm_peak_power_w * 0.5 / self.stack.sm_voltage
        )
        self._shared: Optional[Tuple[StackedPDN, TransientSolver]] = None

    def _build(self) -> Tuple[StackedPDN, TransientSolver]:
        """A netlist, its solver and their DC operating point."""
        pdn = build_stacked_pdn(
            stack=self.stack, params=self.params,
            cr_ivr_area_mm2=self.cr_ivr_area_mm2,
        )
        solver = TransientSolver(pdn.circuit, dt=self.dt)
        pdn.set_sm_currents(np.full(self.stack.num_sms, self.nominal_current))
        solver.initialize_dc()
        return pdn, solver

    def lane(
        self, current_buffer: np.ndarray, own_netlist: bool
    ) -> Tuple[StackedPDN, TransientSolver]:
        """A lane's PDN and solver, gathering its SM currents from
        ``current_buffer``: the shared netlist and a fork of its solver,
        or with ``own_netlist`` a netlist and solver of the lane's
        own."""
        if own_netlist:
            pdn, solver = self._build()
            solver.rebind_sources(current_buffer)
            return pdn, solver
        if self._shared is None:
            self._shared = self._build()
        pdn, solver = self._shared
        return pdn, solver.fork(current_buffer)


def _lane_groups(count: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` of each lane group: consecutive, of near-equal
    size, none wider than :data:`LANE_GROUP`."""
    groups = -(-count // LANE_GROUP)
    cuts = [count * g // groups for g in range(groups + 1)]
    return list(zip(cuts, cuts[1:]))


def run_cosim_batch(
    lanes: List[CosimLane],
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    telemetry: Optional["Telemetry"] = None,
    flights=None,
) -> List[CosimResult]:
    """Run B co-simulation scenarios lock-stepped, in lane groups.

    Bit-identical to running each lane alone (``run_cosim`` is this
    same loop at B=1) and to the serial one-scenario oracle the test
    suite keeps: every array op that crosses the batch axis is
    elementwise with per-lane broadcasts (or a row-wise reduction), the
    circuit back-substitution runs each lane through the serial
    solver's ``getrs`` operation sequence, and everything data-dependent
    (kernel scheduling, fault RNG, controller watchdogs and latency
    pipelines) runs on per-lane state.  The batch exists for throughput
    (one cycle-kernel call per span for all lanes of a group instead of
    one per lane).

    The lanes run as consecutive groups of near-equal size, none wider
    than :data:`LANE_GROUP` (a call of at most that many lanes is one
    group), one :func:`_simulate` each, and the results come back in
    lane order.  A group's engines and solvers are dropped once its
    results are built, so only one group's state is live at a time.
    What spans groups stays call-wide: the PDN topology the lanes share
    (one netlist, solver and DC operating point, built on first use,
    that every lane forks its solver from; a lane whose faults edit
    element values builds its own, see :class:`_PDNTopology`); a lane
    is named by its index in the call (lane-targeted chaos poison,
    divergence verdicts, quarantine and ``cosim_batch_lane_done``
    events); the first group to reach a chaos cycle claims its events
    and later groups replay them; ``flights`` and the lanes' controller
    objects are checked against the whole call before any lane runs.

    All lanes must share the topology-family fields of
    :class:`CosimLane`.  ``telemetry`` records batch-level stage timings
    (summed over the groups) and events only; per-lane manifest
    sections (noise report, decimated channels) remain a ``run_cosim``
    feature.

    ``flights`` is a per-lane list of
    :class:`repro.telemetry.FlightRecorder` (``None`` entries skip a
    lane).  As in ``run_cosim``, recorders are created automatically
    for every lane when telemetry is enabled (``False`` suppresses
    that) and attached as ``result.flight``; recording is observation
    only, so lanes stay bit-identical to their serial runs.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    first_cfg = lanes[0].config
    for lane in lanes[1:]:
        for field_name in _LANE_SHARED_FIELDS:
            a = getattr(first_cfg, field_name)
            b = getattr(lane.config, field_name)
            if a != b:
                raise ValueError(
                    "lanes do not share a topology family: "
                    f"{field_name} differs ({a} != {b}); run incompatible "
                    "scenarios in separate batches"
                )
    _check_controller_objects(lanes)
    per_lane_flights = flights is not None and flights is not False
    if per_lane_flights and len(flights) != len(lanes):
        raise ValueError(
            f"flights must have one entry per lane ({len(lanes)}), "
            f"got {len(flights)}"
        )

    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event(
            "cosim_batch_start", lanes=len(lanes), cycles=first_cfg.cycles,
            warmup_cycles=first_cfg.warmup_cycles,
            benchmarks=[lane.benchmark for lane in lanes],
        )
    results: List[CosimResult] = []
    shards = fused_cycles = 0
    # Every lane's guard counters, quarantined lanes' included (a
    # rebuilt batch guard only wraps a group's survivors).
    guard_totals: Dict[str, int] = {}
    chaos_claims: Dict[int, list] = {}
    topology = _PDNTopology(
        system, params, first_cfg.cr_ivr_area_mm2,
        first_cfg.circuit_substeps,
    )
    for start, stop in _lane_groups(len(lanes)):
        states, batch_solver, group_fused = _simulate(
            lanes[start:stop], system, params, tele,
            flights[start:stop] if per_lane_flights else flights,
            first_lane=start, chaos_claims=chaos_claims, topology=topology,
        )
        results.extend(ln.result for ln in states)
        shards += batch_solver.shard_count
        fused_cycles = max(fused_cycles, group_fused)
        if tele is not None and first_cfg.solver_guard:
            for ln in states:
                for key, value in ln.guard.counters().items():
                    guard_totals[key] = guard_totals.get(key, 0) + value
        # Release the group's engines, netlists and solvers before the
        # next group builds its own.
        del states, batch_solver
    if tele is not None:
        for key, value in guard_totals.items():
            if value:
                tele.incr(f"guard_{key}", value)
        quarantined = sum(1 for result in results if result.diverged)
        if quarantined:
            tele.incr("lanes_quarantined", quarantined)
        for i, result in enumerate(results):
            tele.event(
                "cosim_batch_lane_done", lane=i,
                benchmark=result.benchmark,
                min_voltage_v=result.min_voltage,
                throughput_ipc=result.throughput(),
                diverged=result.diverged,
            )
        tele.event(
            "cosim_batch_done", lanes=len(lanes), solver_shards=shards,
        )
    _LAST_BATCH_SOLVER.update(
        backend="c",
        shards=shards,
        lanes=len(lanes),
        fused_cycles=fused_cycles,
    )
    return results


def _simulate(
    lanes: List[CosimLane],
    system: SystemConfig,
    params: PDNParameters,
    tele: Optional["Telemetry"],
    flights,
    serial: bool = False,
    first_lane: int = 0,
    chaos_claims: Optional[Dict[int, list]] = None,
    topology: Optional["_PDNTopology"] = None,
) -> Tuple[List[_LaneState], BatchTransientSolver, int]:
    """The co-sim loop: step one group of topology-compatible lanes
    lock-stepped.

    Set-up gives each lane a GPU, its PDN and solver from ``topology``
    (the call's shared netlist, forked per lane; a fresh one when
    ``None``), its fault injector and controller, then the batch front
    ends over them: the batch solver and guard, the GPU batch and the
    controller bank.

    Cycles run in the cycle kernel (:mod:`repro.sim._cyclec`): GPU step
    and process-variation scaling, currents, guarded substeps,
    SM-voltage readout, the injectors' sensor and jitter draws, the
    bank's RC filter (masked for dropped samples and unobserved lanes),
    waves and pops, the recording row and every controller lane's new
    commands, distorted by its actuator faults — a span of cycles per
    call, up to the next event: a lane's edge cycle (its first cycle
    and every fault or shutoff window start or end), the warmup
    snapshot, a chaos cycle, a guard suspect, or a recorder lane's
    apply or safe-state flip.  Python keeps the event work: fault hooks
    (circuit and DFS hooks, like a chaos event, split the cycle after
    the GPU stage; halt hooks re-apply actuation after it), guard
    recovery and lane quarantine, the warmup snapshot, the recorders'
    marks and, at the end (or a lane's eviction), their hand-over.
    Lanes' deferred mirrors (GPU cycle and memory queue, solver time and
    step count) and the kernel's fault counters are folded back before
    hooks read them, at a quarantine and at the end.

    Returns the per-lane states, each carrying its ``result``, the
    batch solver that finished the run, and how many cycles ran through
    the cycle kernel.  ``tele`` (an enabled recorder or ``None``) gets
    the stage split (the kernel times its own stages); ``None`` keeps
    the loop untimed.  ``flights`` follows :func:`run_cosim_batch`, one
    entry per lane of this group.

    ``first_lane`` is the group's first lane's index in its
    :func:`run_cosim_batch` call: lane ``i`` of the group is lane
    ``first_lane + i`` to chaos targeting, its guard and its verdict.
    ``chaos_claims`` maps a recorded cycle to the chaos events claimed
    for it by the call's first group to reach it (``take_cycle`` is
    fire-once); a later group replays them.  ``topology`` is the call's
    :class:`_PDNTopology`, built once for all its groups.

    ``serial`` gives a single lane :func:`run_cosim`'s contract rather
    than a batch lane's: lane-targeted chaos events are ignored, and a
    divergence verdict names no lane and emits no quarantine event.
    """
    setup_start = perf_counter()
    timing = tele is not None
    first_cfg = lanes[0].config
    num_lanes = len(lanes)
    stack = system.stack
    num = stack.num_sms
    cycle_s = system.gpu.cycle_time_s
    conductance_bias = params.sm_conductance * stack.sm_voltage
    warmup = first_cfg.warmup_cycles
    cycles = first_cfg.cycles
    substeps = first_cfg.circuit_substeps
    total_cycles = warmup + cycles
    if topology is None:
        topology = _PDNTopology(
            system, params, first_cfg.cr_ivr_area_mm2, substeps
        )

    # The batch axis: row i of this array is the SM current buffer lane
    # i's solver gathers from (see TransientSolver.rebind_sources); it
    # starts at the DC operating point's currents.
    batch_currents = np.full(
        (num_lanes, num), topology.nominal_current, dtype=float
    )

    states: List[_LaneState] = []
    for i, lane in enumerate(lanes):
        config = lane.config
        ln = _LaneState(i, first_lane + i)
        ln.config = config
        if lane.kernel is None:
            spec = get_benchmark(lane.benchmark)
            ln.gpu = GPU(
                spec.kernel, config=system, seed=config.seed,
                miss_ratio=spec.miss_ratio, jitter=spec.jitter,
            )
            ln.name = spec.name
        else:
            ln.gpu = GPU(lane.kernel, config=system, seed=config.seed)
            ln.name = lane.kernel.name
        ln.pdn, ln.solver = topology.lane(
            batch_currents[i],
            own_netlist=(
                config.faults is not None
                and bool(config.faults.netlist_events)
            ),
        )
        if config.faults is not None:
            from repro.faults.injector import FaultInjector

            ln.injector = FaultInjector(
                config.faults, stack, pdn=ln.pdn, solver=ln.solver
            )
        if config.use_controller:
            if config.controller_object is not None:
                ln.controller = config.controller_object
            else:
                ln.controller = VoltageSmoothingController(
                    stack=stack,
                    config=config.controller,
                    actuation=config.actuation,
                    dt_s=cycle_s,
                )
            from repro.core.overheads import ControllerOverheads

            ln.controller_power = ControllerOverheads().power_w
        ln.shutoff_sms = (
            stack.sms_in_layer(config.shutoff.layer) if config.shutoff else []
        )
        states.append(ln)

    batch_solver = BatchTransientSolver(
        [ln.solver for ln in states], shared_current_base=batch_currents
    )
    batch_guard = None
    if first_cfg.solver_guard:
        for ln in states:
            ln.guard = SolverGuard(
                ln.solver, lane=None if serial else ln.lane
            )
        batch_guard = BatchSolverGuard(
            batch_solver, guards=[ln.guard for ln in states]
        )
    # Chaos harness: pre-resolved scheduled cycles (one None check per
    # cycle when inactive); lane-targeted NaN poisoning keys on the
    # lane's index in the call.
    monkey = chaos.current()
    chaos_cycles = monkey.cycle_schedule() if monkey is not None else None
    if chaos_claims is None:
        chaos_claims = {}
    from repro.gpu.batch import GPUBatch

    gpu_batch = GPUBatch([ln.gpu for ln in states])
    # Quarantine bookkeeping: ``alive`` is the current (compacted) lane
    # order — ``ln.row`` indexes the batch working arrays, ``ln.index``
    # the full-size recording arrays.  ``alive_idx`` maps the kernel's
    # rows to recording rows once a lane has been evicted (None: the
    # identity).
    alive: List[_LaneState] = list(states)
    alive_idx: Optional[np.ndarray] = None

    # Batched sensor/decision front end: every controller lane is a
    # bank row.  The bank is fed what each lane's detectors *see*: the
    # true voltages, or the fault injector's corrupted copy, with a
    # per-lane observed mask for loop-jitter drops (the kernel draws
    # both), and the kernel pops and applies every row's commands.
    bank = None
    bank_members = [ln for ln in states if ln.controller is not None]
    if bank_members:
        bank = ControllerBank([ln.controller for ln in bank_members])

    def _bank_rows() -> np.ndarray:
        """Batch rows of the bank's current lanes."""
        return np.array([ln.row for ln in bank_members], dtype=np.intp)

    bank_rows_arr = _bank_rows()

    # Per-SM voltage readout indices — identical across lanes (same
    # netlist builder); verified against lane 0 at setup.  -1 marks a
    # grounded bottom terminal.
    s0 = states[0]
    top_idx = np.empty(num, dtype=np.int64)
    bot_idx = np.empty(num, dtype=np.int64)
    for sm in range(num):
        top, bottom = s0.pdn.sm_terminals(sm)
        top_idx[sm] = s0.solver.structure.node(top)
        bot_idx[sm] = -1 if bottom == "0" else s0.solver.structure.node(bottom)
    for ln in states[1:]:
        for sm in (0, num - 1):
            if ln.pdn.sm_terminals(sm) != s0.pdn.sm_terminals(sm):
                raise ValueError(
                    "lanes do not share a topology family (SM terminal "
                    "naming differs)"
                )
    vdd_row = s0.solver.structure.branch_index["vdd"]

    dcc_bt = np.zeros((num_lanes, num))
    # The kernel's SM-voltage readout (rebuilt on quarantine compaction).
    volt_buf = np.empty((num_lanes, num))
    powers_rec_bt = np.empty((num_lanes, cycles, num))
    sm_voltages_bt = np.empty((num_lanes, cycles, num))
    supply_bt = np.empty((num_lanes, cycles))
    dcc_accum = np.zeros(num_lanes)
    # Per-cycle applied DCC, for a telemetered run_cosim's dcc_power_w
    # channel (its only reader).
    trace_dcc = timing and serial
    dcc_trace_bt = np.zeros((num_lanes, cycles)) if trace_dcc else None
    # The edge schedule.  Fault and shutoff windows are fixed, so the
    # circuit, DFS and halt hooks, the process-variation rows and the
    # lanes' fault flags can change only on a lane's edge cycles: its
    # first cycle and every window start or end inside the run.  The
    # hooks run there alone (keyed by loop cycle).
    edges: Dict[int, List[_LaneState]] = {}
    for ln in states:
        marks = set()
        if ln.injector is not None:
            marks.update(ln.injector.edge_cycles())
        if ln.config.shutoff is not None:
            marks.update((ln.config.shutoff.start_cycle,
                          ln.config.shutoff.end_cycle))
        if marks:
            marks.add(-warmup)
        for mark in marks:
            if -warmup <= mark < cycles:
                edges.setdefault(mark + warmup, []).append(ln)
    edge_order = iter(sorted(edges))
    next_edge = next(edge_order, total_cycles)
    # Process variation: the kernel multiplies each lane's active rows
    # of a (B, K, S) block into its powers, rewritten on the lane's
    # edges.
    pv_k = [
        len(ln.injector.schedule.of_kind("process_variation"))
        if ln.injector is not None else 0 for ln in states
    ]
    pv_rows_bt = np.zeros((num_lanes, max(pv_k), num))
    pv_count = np.zeros(num_lanes, dtype=np.int64)
    # Droop flight recorders: one per lane alongside telemetry (or as
    # passed), observation-only so bit-identity with serial runs holds.
    if flights is None and tele is not None:
        from repro.telemetry.flight import FlightRecorder

        flights = [
            FlightRecorder(
                num_sms=num,
                guardband_v=stack.min_safe_voltage,
                cycle_offset=-warmup,
            )
            for _ in states
        ]
    elif flights is False:
        flights = None
    for ln, fr in zip(states, flights or ()):
        ln.flight = fr
    flight_lanes = [ln for ln in states if ln.flight is not None]
    # A recorder lane's (decision, fault kinds, safe) row changes only on
    # its edge cycles, applies and safe-state flips, where spans stop and
    # the loop marks it.  At the end (or its eviction) the recorder gets
    # its warmup window, kept here, and its recorded window.
    flight_warm_bt = (
        np.empty((num_lanes, warmup, num)) if flight_lanes else None
    )

    def _flight_mark(ln: _LaneState, cycle: int) -> None:
        """Mark ``cycle`` when the lane's flight row changed."""
        ctrl = ln.controller
        row = (
            None if ctrl is None else ctrl.active_decision,
            ln.injector.active_kinds(cycle - warmup)
            if ln.injector is not None
            else None,
            ctrl is not None and ctrl.in_safe_state,
        )
        last = ln.flight_row
        if last is not None and row[0] is last[0] and row[1:] == last[1:]:
            return
        ln.flight_row = row
        marks = ln.flight_marks
        if marks and marks[-1][0] == cycle:
            marks[-1] = (cycle, row)
        else:
            marks.append((cycle, row))

    def _hand_over(ln: _LaneState, end: int) -> None:
        """Hand the lane's recorder its first ``end`` cycles: the warmup
        window, then the recorded window, each as runs of its marks."""
        marks = ln.flight_marks + [(end, None)]
        for first, stop, volts in (
            (0, min(end, warmup), flight_warm_bt[ln.index]),
            (warmup, end, sm_voltages_bt[ln.index]),
        ):
            runs = [
                (min(b, stop) - max(a, first), row)
                for (a, row), (b, _) in zip(marks, marks[1:])
                if min(b, stop) > max(a, first)
            ]
            if runs:
                ln.flight.observe_runs(volts[:stop - first], runs)

    # The cycle kernel runs the cycles in compiled code
    # (repro.sim._cyclec), a span of them per call, and Python keeps
    # only the event work around them.  It binds the current batch
    # shape and is rebuilt when a quarantine compacts it.
    stage_s = np.zeros(4) if timing else None

    def _bind_kernel(recorded_cycle: int) -> CycleKernel:
        bound = CycleKernel(
            gpu_batch, batch_solver, batch_guard,
            dcc=dcc_bt, currents=batch_currents, volts=volt_buf,
            sm_voltage=stack.sm_voltage, conductance_bias=conductance_bias,
            substeps=substeps, top_idx=top_idx,
            bot_idx=bot_idx, bank=bank, bank_rows=bank_rows_arr,
            injectors=[ln.injector for ln in bank_members],
            # A recorder marks the cycle its lane applies a new decision
            # or flips its safe state: spans stop there.
            watch=np.array([ln.flight is not None for ln in bank_members]),
            pv_rows=pv_rows_bt, pv_count=pv_count,
            warmup=warmup, cycles=cycles,
            lane_index=(
                np.arange(num_lanes) if alive_idx is None else alive_idx
            ),
            rec_powers=powers_rec_bt, rec_volts=sm_voltages_bt,
            rec_supply=supply_bt, vdd_row=vdd_row, dcc_accum=dcc_accum,
            dcc_trace=dcc_trace_bt, flight_warm=flight_warm_bt,
            stage_s=stage_s,
        )
        bound.refresh_faults(recorded_cycle)
        return bound

    kernel = _bind_kernel(-warmup)
    fused_cycles = 0
    status = 0
    # Cycles a span stops short of, besides edges: the warmup snapshot,
    # the chaos harness's cycles and the end.
    span_stops = sorted(
        {warmup, total_cycles}.union(c + warmup for c in chaos_cycles or ())
    )

    # Stage accumulators.  ``timing`` gates the perf_counter reads; with
    # telemetry off the loop body is branch-only.  The cycle kernel
    # times its own stages into stage_s.
    t_gpu = t_circuit = t_controller = t_record = 0.0
    if timing:
        tele.add_time("setup", perf_counter() - setup_start)
    loop_start = perf_counter()
    cycle = 0
    while cycle < total_cycles:
        if cycle == warmup:
            # Work counters cover the recorded window only: snapshot
            # them here, subtract at the end.  Lanes quarantined during
            # warmup keep a zero baseline, as a serial run that stopped
            # before the boundary does.
            for ln in alive:
                ln.instructions_at_start = ln.gpu.total_instructions()
                ln.fakes_at_start = ln.gpu.total_fake_instructions()
                if ln.controller is not None:
                    ln.throttled_at_start = ln.controller.throttled_cycles
        # Fault-event timing shares the shutoff convention: cycle 0 of
        # an event window is the end of warmup.
        recorded_cycle = cycle - warmup
        chaos_now = chaos_cycles is not None and recorded_cycle in chaos_cycles
        # Edge cycles: refresh the kernel's fault flags and the PV rows
        # (before the GPU stage scales this cycle's powers); the circuit
        # and DFS hooks run after the GPU stage, the halt hooks after
        # the solve.
        edge = hooks = ()
        if cycle == next_edge:
            next_edge = next(edge_order, total_cycles)
            edge = [ln for ln in edges[cycle] if not ln.dead]
            for ln in edge:
                inj = ln.injector
                if inj is None:
                    continue
                scales = inj.power_scales(recorded_cycle)
                pv_count[ln.row] = len(scales)
                for k, row in enumerate(scales):
                    pv_rows_bt[ln.row, k] = row
            kernel.refresh_faults(recorded_cycle)
            hooks = [
                ln for ln in edge if ln.injector is not None and (
                    ln.injector.touches_circuit
                    or ln.injector.scales_frequency
                )
            ]
        # A clean cycle is one kernel call; edge hooks and chaos split
        # it after the GPU stage.
        split = bool(hooks) or chaos_now

        # 1. GPU cycle per lane (independent engines, lock-stepped).
        # Python-side timing covers the Python work only: the kernel
        # times its own stages.
        if split:
            kernel.run(cycle, STAGE_GPU, STAGE_GPU)
            if timing:
                t0 = perf_counter()
            if hooks:
                # The hooks may read their lane's GPU and solver mirrors.
                rows = [ln.row for ln in hooks]
                gpu_batch.fold(rows)
                batch_solver.fold_lanes(rows)
            for ln in hooks:
                # Circuit faults mutate element values (one
                # re-factorization per activation edge, before this
                # cycle's solve); DFS steps the GPU's frequency scales.
                ln.injector.apply_circuit_faults(recorded_cycle)
                scales = ln.injector.frequency_scales(recorded_cycle)
                if scales is not None:
                    ln.gpu.set_frequency_scales(scales)
            if timing:
                t1 = perf_counter()
                t_gpu += t1 - t0

        # 2. Powers -> PDN currents, in the kernel.  Per the paper's
        # convention each SM is a time-varying *ideal* current source:
        # I = P / V_nominal.  (Dividing by the instantaneous voltage
        # would add the classic constant-power negative resistance and
        # destabilize the grid.)  The netlist's small-signal load
        # conductance already draws ~g*V per SM, so that bias is
        # deducted from the source to keep the total SM draw equal to
        # P / V_nominal.

        # 3. Circuit transient over one clock period, batched.  With the
        # guard on, a diverged lane is quarantined: marked dead, its row
        # compacted out of the batch, and the surviving lanes continue
        # lock-stepped (bit-identical to their serial runs — the guard
        # redoes suspect cycles per-lane, and compaction only rebuilds
        # views/wrappers around untouched per-lane state).
        if chaos_now:
            events = chaos_claims.get(recorded_cycle)
            if events is None:
                events = chaos_claims[recorded_cycle] = monkey.take_cycle(
                    recorded_cycle
                )
            for event in events:
                if event.action != "nan_poison" or (
                    serial and event.lane is not None
                ):
                    continue
                for ln in alive:
                    if event.lane is None or event.lane == ln.lane:
                        ln.solver._react_v[:] = np.nan
        failures = None
        if hooks:
            kernel.sync_solver()  # a circuit fault may refactor
        # Without partial-stage calls, cycles run as one span up to the
        # next event; the rest of this body then runs for the span's
        # last cycle.
        start, stop = cycle, cycle + 1
        if not (split or edge):
            stop = min(next_edge, span_stops[bisect_right(span_stops, cycle)])
        if stop > cycle + 1:
            status, at = kernel.span(cycle, stop)
            last = at if status else at - 1
        else:
            status = kernel.run(cycle, STAGE_SOLVE if split else STAGE_GPU)
            last = cycle
        fused_cycles += last + 1 - cycle
        cycle = last
        recorded_cycle = cycle - warmup
        if status == SUSPECT:
            if timing:
                t1 = perf_counter()
            failures = batch_guard.resolve(
                substeps, recorded_cycle, float(batch_solver._clock[1])
            )
        if failures:
            for row in sorted(failures):
                ln = alive[row]
                ln.dead = True
                ln.dead_at = max(0, recorded_cycle)
                info = failures[row].forensics()
                if not serial:
                    info["lane"] = ln.lane
                info["benchmark"] = ln.name
                ln.divergence = info
                if timing and not serial:
                    tele.event("lane_quarantined", **info)
                if ln.injector is not None:
                    # Its last completed cycle closes its halt span.
                    ln.injector.credit_halted(recorded_cycle - 1)
            # Every lane's deferred mirrors and fault-draw counts go back
            # to its objects before the batch front ends are rebuilt
            # around them.
            gpu_batch.fold()
            batch_solver.fold_lanes()
            kernel.faults.fold()
            survivors = [ln for ln in alive if not ln.dead]
            edge = [ln for ln in edge if not ln.dead]
            for ln in flight_lanes:
                if ln.dead:
                    _hand_over(ln, cycle)
            flight_lanes = [ln for ln in flight_lanes if not ln.dead]
            if not survivors:
                alive = []
                break
            # Compact the batch axis around the survivors: new
            # shared current base, re-bound solver gather maps,
            # rebuilt batch solver/guard/GPU front ends, compacted
            # controller bank.  Per-lane objects (solver state,
            # controllers, GPU engines) carry over untouched, so
            # survivor physics continues bit-exactly.
            old_rows = [ln.row for ln in survivors]
            batch_currents = batch_currents[old_rows].copy()
            volt_buf = np.empty((len(survivors), num))
            for new_row, ln in enumerate(survivors):
                ln.row = new_row
                ln.solver.rebind_sources(batch_currents[new_row])
            batch_solver = BatchTransientSolver(
                [ln.solver for ln in survivors],
                shared_current_base=batch_currents,
            )
            batch_guard = BatchSolverGuard(
                batch_solver, guards=[ln.guard for ln in survivors]
            )
            gpu_batch = GPUBatch([ln.gpu for ln in survivors])
            if bank is not None:
                keep = [
                    j for j, bln in enumerate(bank_members)
                    if not bln.dead
                ]
                if not keep:
                    bank = None
                    bank_members = []
                elif len(keep) != len(bank_members):
                    bank = bank.compact(keep)
                    bank_members = [bank_members[j] for j in keep]
                bank_rows_arr = _bank_rows()
            pv_rows_bt = pv_rows_bt[old_rows]
            pv_count = pv_count[old_rows]
            dcc_bt = dcc_bt[old_rows]
            alive = survivors
            alive_idx = np.array(
                [ln.index for ln in survivors], dtype=np.intp
            )
            kernel = _bind_kernel(recorded_cycle)
        if status == SUSPECT:
            # The guard settled the suspects (and a quarantine the
            # batch): the cycle's tail runs on the survivors.
            kernel.sync_solver()
            if timing:
                t_circuit += perf_counter() - t1
            status = kernel.run(cycle, STAGE_READOUT)
        if timing:
            t2 = perf_counter()

        # Halted SMs per lane (shutoff windows + fault-scheduled halts)
        # must not block the kernel-launch barrier.  The set changes only
        # on the lane's edges, after the kernel's apply for the cycle
        # used the old set; a change re-applies the actuation in force
        # under it: full width without a controller, else the command
        # row the kernel applied last (actuator faults included).
        for ln in edge:
            inj = ln.injector
            halts = inj is not None and inj.halts_sms
            shutoff = ln.config.shutoff
            if shutoff is None and not halts:
                continue
            halted: set = set()
            if shutoff is not None and shutoff.active(recorded_cycle):
                halted.update(ln.shutoff_sms)
            if halts:
                halted.update(inj.halted_sms(recorded_cycle))
            halted_idx = sorted(halted)
            if halted_idx == ln.halted_idx:
                continue
            ln.gpu.barrier_exempt = halted
            ln.halted_idx = halted_idx
            widths = (
                np.full(num, 2.0) if ln.controller is None
                else bank._in_force[bank_members.index(ln), :num].copy()
            )
            widths[halted_idx] = 0.0
            ln.gpu.set_issue_widths(widths)

        # 4. Detection + control ran in the kernel: its draws (each
        # injector in its serial RNG call order), waves, pops and
        # applies.  A recorder marks the lane's first cycle, its edges,
        # and the cycle a span stopped at for a recorder lane's apply or
        # flip.
        if timing:
            t3 = perf_counter()
            t_controller += t3 - t2
        if flight_lanes and (start == 0 or edge or kernel.state.n_stop):
            for ln in flight_lanes:
                _flight_mark(ln, cycle if start else 0)
        if timing:
            t_record += perf_counter() - t3
        cycle += 1
    if timing:
        t3 = perf_counter()
    for ln in flight_lanes:
        _hand_over(ln, total_cycles)
    if timing:
        t_record += perf_counter() - t3
    # Settle the open halt spans so injectors end bit-equal to serial
    # post-run state.
    for ln in alive:
        if ln.injector is not None:
            ln.injector.credit_halted(cycles - 1)
    if alive:
        # The surviving lanes' deferred mirrors and fault-draw counts
        # (quarantined lanes were folded at their eviction).
        gpu_batch.fold()
        batch_solver.fold_lanes()
        kernel.faults.fold()
    if timing:
        # The cycle kernel's own stage times join the Python-side ones;
        # the loop's residual (iteration overhead, kernel crossings,
        # warmup bookkeeping, the timing reads themselves) gets its own
        # stage so the stage sum reconciles with wall-clock time.
        loop_wall = perf_counter() - loop_start
        t_gpu += stage_s[0]
        t_circuit += stage_s[1]
        t_controller += stage_s[2]
        t_record += stage_s[3]
        tele.add_time("gpu_model", t_gpu)
        tele.add_time("transient_solve", t_circuit)
        tele.add_time("controller", t_controller)
        tele.add_time("record", t_record)
        tele.add_time(
            "loop_other",
            max(0.0, loop_wall - t_gpu - t_circuit - t_controller - t_record),
        )

    finalize_start = perf_counter()
    for ln in states:
        # A quarantined lane's recorded window stops at its divergence
        # cycle; its result carries the forensics verdict instead of a
        # NaN tail.
        valid = cycles if not ln.dead else ln.dead_at
        trace = PowerTrace(
            powers_rec_bt[ln.index, :valid],
            frequency_hz=system.gpu.sm_clock_hz,
            name=ln.name,
        )
        launches = np.asarray(ln.gpu.kernel_launch_cycles)
        durations = np.diff(launches[launches >= warmup])
        result = CosimResult(
            benchmark=ln.name,
            power_trace=trace,
            sm_voltages=sm_voltages_bt[ln.index, :valid],
            supply_current=supply_bt[ln.index, :valid],
            stack=stack,
            instructions=(
                ln.gpu.total_instructions() - ln.instructions_at_start
            ),
            fake_instructions=(
                ln.gpu.total_fake_instructions() - ln.fakes_at_start
            ),
            throttled_cycles=(
                ln.controller.throttled_cycles - ln.throttled_at_start
                if ln.controller is not None
                else 0
            ),
            controller_power_w=ln.controller_power,
            kernels_completed=len(durations),
            mean_dcc_power_w=float(dcc_accum[ln.index]) / (
                cycles if not ln.dead else max(1, ln.dead_at)
            ),
        )
        result.kernel_durations = durations
        if ln.divergence is not None:
            result.divergence = ln.divergence
        if ln.injector is not None and result.num_cycles > 0:
            from repro.faults.injector import build_fault_report

            result.fault_report = build_fault_report(
                ln.injector, result, ln.controller
            )
        if ln.flight is not None:
            if ln.dead:
                worst = (ln.divergence or {}).get("worst_value")
                ln.flight.force_dump(
                    "numerical_divergence",
                    min_voltage_v=(
                        float("nan") if worst is None else float(worst)
                    ),
                )
            ln.flight.finalize()
            result.flight = ln.flight
        ln.result = result
        if dcc_trace_bt is not None:
            ln.dcc_trace = dcc_trace_bt[ln.index]
    if timing:
        tele.add_time("finalize", perf_counter() - finalize_start)
    return states, batch_solver, fused_cycles
