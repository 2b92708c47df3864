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
:func:`run_cosim_batch` runs it over a list of lanes and
:func:`run_cosim` runs it with one.

:class:`LayerShutoffEvent` reproduces the paper's synthetic worst-case
imbalance (Fig. 9): at a chosen time a whole layer's SMs are forced to
stop issuing, dropping them to idle power while the rest of the stack
keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import native
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
from repro.gpu.gpu import GPU
from repro.gpu.kernels import KernelSpec
from repro.pdn.builder import StackedPDN, build_stacked_pdn
from repro.pdn.efficiency import (
    EfficiencyBreakdown,
    layer_shuffle_power,
    pde_voltage_stacked,
)
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters
from repro.sim._cyclec import (
    STAGE_FILTER,
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


# Backend/shard facts from this process's most recent run_cosim_batch —
# sweep workers thread it into their heartbeat files so `repro top` can
# show a fleet that silently degraded to the NumPy solver fallback.
_LAST_BATCH_SOLVER: Dict[str, object] = {}


def last_batch_solver_info() -> Dict[str, object]:
    """Solver backend/shard info from the most recent batch run.

    Returns a copy of ``{"backend": "c"|"numpy", "shards": int,
    "lanes": int, "fused_cycles": int}`` — ``fused_cycles`` counts the
    loop cycles that ran through the compiled cycle kernel (all of
    them on an eligible batch when the native library loaded) — or an
    empty dict until :func:`run_cosim_batch` has completed once in this
    process.
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
    # Swap in an alternative controller implementation (duck-typed:
    # observe / commands_for / throttled_cycles) — used by the
    # prior-art ablation (e.g. GlobalThrottleController).
    controller_object: Optional[object] = field(default=None, compare=False)
    # GPU engine selection: the vectorized struct-of-arrays engine is
    # bit-identical to the per-object reference (repro.gpu.engine), so
    # this only matters when deliberately exercising the reference.
    vectorized_gpu: bool = True
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

    def efficiency(
        self, params: PDNParameters = DEFAULT_PDN
    ) -> EfficiencyBreakdown:
        """PDE breakdown of this run, from the measured trace imbalance."""
        load = self.power_trace.mean_power_w
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
            f"mean power {self.power_trace.mean_power_w:.1f} W, "
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
    # None (a recorder only alongside telemetry) and False pass through.
    flights = flight if flight is None or flight is False else [flight]
    (ln,), _, _ = _simulate(
        [CosimLane(benchmark, config, kernel)], system, params, tele,
        flights, serial=True,
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
    stack = result.stack
    powers = result.power_trace.data
    layer_powers = powers.reshape(
        len(powers), stack.num_layers, stack.num_columns
    ).sum(axis=2)
    series = (
        ("min_sm_voltage_v", result.sm_voltages.min(axis=1)),
        ("total_power_w", powers.sum(axis=1)),
        ("dcc_power_w", dcc_applied_w[: len(powers)]),
        (
            "worst_layer_imbalance_w",
            layer_powers.max(axis=1) - layer_powers.mean(axis=1),
        ),
    )
    for name, values in series:
        tele.channel(name).record_series(0, values.tolist())


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
    _count_native_fallbacks(tele)
    if result.divergence is not None:
        tele.event("numerical_divergence", **result.divergence)
    if controller is not None:
        # Duck-typed controllers (prior-art ablations) expose a subset.
        stats = getattr(controller, "stats", None)
        stats = stats() if callable(stats) else {}
        for key in ("decisions_made", "triggers", "throttle_decisions",
                    "boost_decisions"):
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
        "guard_recoveries": (
            float(guard.recoveries) if guard is not None else 0.0
        ),
    }
    if result.num_cycles > 0:
        metrics.update({
            "min_voltage_v": result.min_voltage,
            "max_voltage_v": result.max_voltage,
            "mean_power_w": result.power_trace.mean_power_w,
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


def _count_native_fallbacks(tele) -> None:
    """Count a run that ran on the NumPy fallback (the native library
    failed to build or load): bit-identical but slow, so campaigns must
    see the perf cliff.  One per run, so merged counters count runs."""
    if native.fallback_count():
        tele.incr(native.COUNTER)


def run_crosslayer_cosim(
    benchmark: str = "hotspot", cycles: int = 2000, **kwargs
) -> CosimResult:
    """Convenience entry point: default cross-layer configuration."""
    return run_cosim(
        benchmark=benchmark, config=CosimConfig(cycles=cycles, **kwargs)
    )


# ---------------------------------------------------------------------------
# The co-sim loop: B lock-stepped lanes (run_cosim is B=1)
# ---------------------------------------------------------------------------
def _halted(widths: np.ndarray, halted_idx: List[int]) -> np.ndarray:
    """Issue widths with the halted SMs' zeroed, on a copy when any are."""
    if not halted_idx:
        return widths
    widths = widths.copy()
    widths[halted_idx] = 0.0
    return widths


@dataclass(frozen=True)
class CosimLane:
    """One scenario of a batched co-simulation.

    Lanes in a batch must share a *topology family* — identical
    ``cycles``, ``warmup_cycles``, ``circuit_substeps`` and
    ``cr_ivr_area_mm2`` (the knobs that shape the netlist and the
    lock-stepped timeline) — while benchmark/kernel, seed, controller
    gains, actuation weights, shutoff events and fault schedules may
    vary freely per lane.
    """

    benchmark: str = "hotspot"
    config: CosimConfig = field(default_factory=CosimConfig)
    kernel: Optional[KernelSpec] = None


_LANE_SHARED_FIELDS = (
    "cycles", "warmup_cycles", "circuit_substeps", "cr_ivr_area_mm2",
    "solver_guard",
)
# Cycles of flight-recorder state the co-sim loop stages per hand-over.
_FLIGHT_BLOCK = 256


class _LaneState:
    """Internal per-lane simulation state of the co-sim loop."""

    __slots__ = (
        "index", "name", "config", "gpu", "pdn", "solver", "injector",
        "controller", "controller_power", "in_bank", "shutoff_sms",
        "instructions_at_start", "fakes_at_start", "throttled_at_start",
        "applied_decision", "halted_idx", "sensor_on", "jitter_on",
        "in_fast", "last_decision", "flight", "flight_safe",
        "row", "dead", "dead_at", "divergence", "guard",
        "result", "dcc_trace", "flight_row", "flight_marks",
    )

    def __init__(self, index: int) -> None:
        self.index = index
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
        self.in_bank = False
        # Flight-recorder sampling state: fast lanes read the bank's
        # active decision; slow lanes record the last commands_for
        # return here (what the serial oracle loop sees each cycle).
        self.in_fast = False
        self.last_decision = None
        self.flight = None
        self.flight_safe = False
        # The lane's current (decision, fault kinds, safe) flight row,
        # and the (cycle, row) marks of its changes not yet handed to
        # the flight recorder.
        self.flight_row = None
        self.flight_marks: list = []
        self.shutoff_sms: List[int] = []
        self.instructions_at_start = 0
        self.fakes_at_start = 0
        self.throttled_at_start = 0
        # Actuation gating: the last applied decision.  GPU setters are
        # idempotent for identical values, so re-applying an unchanged
        # decision is skipped; holding a strong reference to the applied
        # decision keeps the identity check sound.  A halt edge re-applies
        # it under the new halted set.
        self.applied_decision = None
        self.halted_idx: List[int] = []
        # Whether the injector's sensor-corruption / loop-jitter events
        # are active (set on the lane's edge cycles).
        self.sensor_on = False
        self.jitter_on = False


def run_cosim_batch(
    lanes: List[CosimLane],
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    telemetry: Optional["Telemetry"] = None,
    flights=None,
) -> List[CosimResult]:
    """Run B co-simulation scenarios lock-stepped as one batch.

    Bit-identical to running each lane alone (``run_cosim`` is this
    same loop at B=1) and to the serial one-scenario oracle the test
    suite keeps: every array op that crosses the batch axis is
    elementwise with per-lane broadcasts (or a row-wise reduction), the
    circuit back-substitution stays one LAPACK call per lane, and
    everything data-dependent (kernel scheduling, fault RNG, controller
    watchdogs and latency pipelines) runs on per-lane objects.  The
    batch exists for throughput (one NumPy dispatch per array op
    instead of B).

    All lanes must share the topology-family fields of
    :class:`CosimLane`.  ``telemetry`` records batch-level stage timings
    and events only; per-lane manifest sections (noise report, decimated
    channels) remain a ``run_cosim`` feature.

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
    # A controller object carries one lane's state: two lanes stepping
    # the same one would corrupt each other.
    owner: Dict[int, int] = {}
    for i, lane in enumerate(lanes):
        obj = lane.config.controller_object
        if obj is not None and lane.config.use_controller:
            j = owner.setdefault(id(obj), i)
            if j != i:
                raise ValueError(
                    f"lanes {j} and {i} share one controller_object; give "
                    "each lane its own controller"
                )

    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event(
            "cosim_batch_start", lanes=len(lanes), cycles=first_cfg.cycles,
            warmup_cycles=first_cfg.warmup_cycles,
            benchmarks=[lane.benchmark for lane in lanes],
        )
    states, batch_solver, fused_cycles = _simulate(
        lanes, system, params, tele, flights
    )
    results = [ln.result for ln in states]
    if tele is not None:
        if first_cfg.solver_guard:
            # Aggregate over every lane's guard directly — a rebuilt
            # batch guard only wraps the survivors, but quarantined
            # lanes' recovery/divergence counts must still be reported.
            totals: Dict[str, int] = {}
            for ln in states:
                for key, value in ln.guard.counters().items():
                    totals[key] = totals.get(key, 0) + value
            for key, value in totals.items():
                if value:
                    tele.incr(f"guard_{key}", value)
        quarantined = sum(1 for ln in states if ln.dead)
        if quarantined:
            tele.incr("lanes_quarantined", quarantined)
        _count_native_fallbacks(tele)
        for ln, result in zip(states, results):
            tele.event(
                "cosim_batch_lane_done", lane=ln.index,
                benchmark=result.benchmark,
                min_voltage_v=result.min_voltage,
                throughput_ipc=result.throughput(),
                diverged=bool(ln.dead),
            )
        tele.event(
            "cosim_batch_done", lanes=len(lanes),
            solver_backend=batch_solver.active_backend,
            solver_shards=batch_solver.shard_count,
        )
    _LAST_BATCH_SOLVER.update(
        backend=batch_solver.active_backend,
        shards=batch_solver.shard_count,
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
) -> Tuple[List[_LaneState], BatchTransientSolver, int]:
    """The co-sim loop: step topology-compatible lanes lock-stepped.

    When the native library loaded and the batch is eligible (every
    lane on the vectorized GPU engine, the co-sim's shared current
    base), a clean cycle is one call into the cycle kernel
    (:mod:`repro.sim._cyclec`): GPU step and process-variation
    scaling, currents, guarded substeps, SM-voltage readout, the bank's
    RC filter (masked for dropped samples and unobserved lanes) and the
    recording row.  Python keeps the event work around it — kernel
    relaunches the GPU census flags, due decision waves and pipeline
    pops, the fault hooks on each lane's edge cycles (its first cycle
    and every fault or shutoff window start or end: circuit and DFS
    hooks, like a chaos event, split the cycle after the GPU stage;
    halt hooks re-apply actuation after the solve), the injectors'
    sensor and jitter draws on sensor cycles (the kernel stops after
    the readout and a second call runs the filter and recording row),
    guard recovery and lane quarantine, the warmup snapshot and
    flight-recorder blocks.  Lanes' deferred mirrors (GPU cycle and
    memory queue, solver time and step count) are folded back before
    hooks read them, at a quarantine and at the end.  Any other batch
    runs the phased NumPy body instead (same edge schedule), byte for
    byte the same results.

    Returns the per-lane states, each carrying its ``result``, the
    batch solver that finished the run, and how many cycles ran through
    the cycle kernel.  ``tele`` (an enabled recorder or ``None``) gets
    the stage split (the kernel times its own stages); ``None`` keeps
    the loop untimed.  ``flights`` follows :func:`run_cosim_batch`.

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
    nominal_current = system.power.sm_peak_power_w * 0.5 / stack.sm_voltage
    warmup = first_cfg.warmup_cycles
    cycles = first_cfg.cycles
    substeps = first_cfg.circuit_substeps
    total_cycles = warmup + cycles

    # The batch axis: row i of this array is lane i's bound SM current
    # buffer (the PDN sources read it directly; see bind_current_buffer).
    batch_currents = np.zeros((num_lanes, num), dtype=float)

    states: List[_LaneState] = []
    for i, lane in enumerate(lanes):
        config = lane.config
        ln = _LaneState(i)
        ln.config = config
        if lane.kernel is None:
            spec = get_benchmark(lane.benchmark)
            ln.gpu = GPU(
                spec.kernel, config=system, seed=config.seed,
                miss_ratio=spec.miss_ratio, jitter=spec.jitter,
                vectorized=config.vectorized_gpu,
            )
            ln.name = spec.name
        else:
            ln.gpu = GPU(
                lane.kernel, config=system, seed=config.seed,
                vectorized=config.vectorized_gpu,
            )
            ln.name = lane.kernel.name
        ln.pdn = build_stacked_pdn(
            stack=stack, params=params, cr_ivr_area_mm2=config.cr_ivr_area_mm2
        )
        # Re-bind the lane's current sources onto its batch row *before*
        # the solver caches its gather maps.
        ln.pdn.bind_current_buffer(batch_currents[i])
        ln.solver = TransientSolver(ln.pdn.circuit, dt=cycle_s / substeps)
        ln.pdn.set_sm_currents(np.full(num, nominal_current))
        ln.solver.initialize_dc()
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
                ln.solver, lane=None if serial else ln.index
            )
        batch_guard = BatchSolverGuard(
            batch_solver, guards=[ln.guard for ln in states]
        )
    # Chaos harness: pre-resolved scheduled cycles (one None check per
    # cycle when inactive); lane-targeted NaN poisoning keys on the
    # lane's *original* index.
    monkey = chaos.current()
    chaos_cycles = monkey.cycle_schedule() if monkey is not None else None
    from repro.gpu.batch import GPUBatch

    gpu_batch = GPUBatch([ln.gpu for ln in states])
    # Quarantine bookkeeping: ``alive`` is the current (compacted) lane
    # order — ``ln.row`` indexes the batch working arrays, ``ln.index``
    # the full-size recording arrays.  ``alive_idx`` is the fancy-index
    # map the recording block switches to once a lane has been evicted
    # (None keeps the basic-slice fast path on the clean run).
    alive: List[_LaneState] = list(states)
    alive_idx: Optional[np.ndarray] = None

    # Batched sensor/decision front end: every stock-controller lane is
    # a bank row.  The bank is fed what each lane's detectors *see*:
    # the true voltages, or the fault injector's corrupted copy, with a
    # per-lane observed mask for loop-jitter drops.  Only duck-typed
    # controller objects observe on their own, per lane.
    bank = None
    bank_members = [
        ln for ln in states
        if isinstance(ln.controller, VoltageSmoothingController)
    ]
    for ln in bank_members:
        ln.in_bank = True
    if bank_members:
        bank = ControllerBank([ln.controller for ln in bank_members])

    def _bank_feeds():
        """Batch rows of the bank's current lanes, and the (bank row,
        lane) pairs whose sensor-corruption / loop-jitter events are
        active: those rewrite their row of the seen block / set their
        slot of the observed mask.  Elsewhere the hooks are no-ops.
        """
        rows = np.array([ln.row for ln in bank_members], dtype=np.intp)
        sensor = [(j, ln) for j, ln in enumerate(bank_members) if ln.sensor_on]
        jitter = [(j, ln) for j, ln in enumerate(bank_members) if ln.jitter_on]
        return rows, sensor, jitter

    bank_rows_arr, sensor_lanes, jitter_lanes = _bank_feeds()
    sensing = False  # a sensor cycle: some bank lane senses a fault

    # Per-SM voltage readout indices — identical across lanes (same
    # netlist builder); verified against lane 0 at setup.
    s0 = states[0]
    top_idx = np.empty(num, dtype=int)
    bot_idx = np.empty(num, dtype=int)
    bot_is_ground = np.zeros(num, dtype=bool)
    for sm in range(num):
        top, bottom = s0.pdn.sm_terminals(sm)
        top_idx[sm] = s0.solver.structure.node(top)
        if bottom == "0":
            bot_is_ground[sm] = True
            bot_idx[sm] = 0
        else:
            bot_idx[sm] = s0.solver.structure.node(bottom)
    for ln in states[1:]:
        for sm in (0, num - 1):
            if ln.pdn.sm_terminals(sm) != s0.pdn.sm_terminals(sm):
                raise ValueError(
                    "lanes do not share a topology family (SM terminal "
                    "naming differs)"
                )
    # The cycle kernel's readout map: -1 marks a grounded bottom.
    kernel_bot_idx = np.where(bot_is_ground, -1, bot_idx).astype(np.int64)
    kernel_top_idx = top_idx.astype(np.int64)
    vdd_row = s0.solver.structure.branch_index["vdd"]

    powers_bt = np.empty((num_lanes, num))
    dcc_bt = np.zeros((num_lanes, num))
    voltages_bt = np.full((num_lanes, num), stack.sm_voltage)
    # Per-cycle scratch blocks (rebuilt on quarantine compaction): the
    # currents math and node->SM voltage extraction run as out= ufuncs
    # on these, since at small B the loop is dispatch-bound and every
    # avoided temporary counts.
    cur_buf = np.empty((num_lanes, num))
    bot_buf = np.empty((num_lanes, num))
    volt_buf = np.empty((num_lanes, num))
    ground_cols = np.flatnonzero(bot_is_ground)
    powers_rec_bt = np.empty((num_lanes, cycles, num))
    sm_voltages_bt = np.empty((num_lanes, cycles, num))
    supply_bt = np.empty((num_lanes, cycles))
    dcc_accum = np.zeros(num_lanes)
    dcc_applied = np.zeros(num_lanes)
    # Per-cycle applied DCC, for a telemetered run_cosim's dcc_power_w
    # channel (its only reader).
    trace_dcc = timing and serial
    dcc_trace_bt = np.zeros((num_lanes, cycles)) if trace_dcc else None
    # The edge schedule.  Fault and shutoff windows are fixed, so the
    # circuit, DFS and halt hooks, the process-variation rows and the
    # lanes' sensing flags can change only on a lane's edge cycles: its
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
    # Process variation: the phased body scales powers per lane each
    # cycle; the cycle kernel multiplies each lane's active rows of a
    # (B, K, S) block, rewritten on the lane's edges.
    pv_k = [
        len(ln.injector.schedule.of_kind("process_variation"))
        if ln.injector is not None else 0 for ln in states
    ]
    pv_lanes = [ln for ln, k in zip(states, pv_k) if k]
    pv_rows_bt = np.zeros((num_lanes, max(pv_k), num))
    pv_count = np.zeros(num_lanes, dtype=np.int64)
    # Fast lanes — bank-controlled, commands read on time and applied
    # undistorted — apply actuation only when a new decision pops out of
    # the latency pipeline (decisions are immutable once enqueued, so
    # nothing can change between pops) or a halt edge changes the
    # halted set; faults that touch the sensors, the circuit or the
    # halted SMs leave that path intact.  The bank pops their pipelines
    # (in the cycle kernel, or pop_fast) and counts their cycles as
    # commands_for would; the loop applies the rows it flags.  The rest
    # replicate the serial per-cycle commands_for path.  (A pre-used
    # controller object that already counted cycles keeps that path.)
    fast_lanes = [
        ln for ln in states
        if ln.in_bank
        and ln.controller._counted_through_cycle < 0
        and not (ln.injector is not None and (
            ln.injector.touches_timing or ln.injector.touches_actuation
        ))
    ]
    slow_ctrl_lanes = [
        ln for ln in states
        if ln.controller is not None and ln not in fast_lanes
    ]
    # Per bank row: whether the lane is fast, and the id of the decision
    # the loop applied to it last (-1: none yet).
    fast_rows = np.array(
        [ln in fast_lanes for ln in bank_members], dtype=bool
    )
    applied_ids = np.full(len(bank_members), -1, dtype=np.int64)
    # Skip the per-cycle applied-DCC reduction when no lane can ever
    # command nonzero DCC power (w3 == 0 and no actuation-distorting
    # faults): the serial ledger accumulates exact 0.0 adds, which is
    # bitwise what an untouched accumulator holds.
    def _lane_dcc_possible(ln: _LaneState) -> bool:
        if ln.injector is not None and ln.injector.touches_actuation:
            return True
        if ln.controller is None:
            return False
        if ln.config.controller_object is not None:
            return True
        actuation = getattr(ln.controller, "actuation", None)
        w3 = getattr(actuation, "w3", None)
        return w3 is None or w3 != 0.0

    dcc_possible = any(_lane_dcc_possible(ln) for ln in states)
    all_banked = len(bank_members) == num_lanes

    # Droop flight recorders: one per lane alongside telemetry (or as
    # passed), observation-only so bit-identity with serial runs holds.
    for ln in fast_lanes:
        ln.in_fast = True
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
    if flights is not None and len(flights) != num_lanes:
        raise ValueError(
            f"flights must have one entry per lane ({num_lanes}), "
            f"got {len(flights)}"
        )
    flight_lanes: List[_LaneState] = []
    if flights is not None:
        for ln, fr in zip(states, flights):
            ln.flight = fr
            if fr is not None:
                ln.flight_safe = hasattr(ln.controller, "in_safe_state")
                flight_lanes.append(ln)
    # Recorders take the loop's state in blocks: a lane marks the cycle
    # its (decision, fault kinds, safe) row changes, and every
    # _FLIGHT_BLOCK cycles the rows go over as runs with their
    # voltages, read back from the recorded waveform (or a warmup
    # buffer).  A fast lane without an injector changes row only when
    # a pop applies a new decision or (watchdog on) a wave flips its
    # safe state, so only those cycles look at it; the other lanes
    # look every cycle.
    flight_warm_bt = (
        np.empty((num_lanes, warmup, num)) if flight_lanes else None
    )
    flight_sent = 0  # cycles handed over to the live lanes' recorders
    flight_every = [
        ln for ln in flight_lanes
        if not (ln.in_fast and ln.injector is None)
    ]
    # Quiet lanes whose safe state can flip: only the watchdog sets it.
    flight_watch = [
        ln for ln in flight_lanes
        if ln not in flight_every and ln.controller.config.watchdog_enabled
    ]
    # The next cycle whose end hands a block to the recorders.
    flight_due = _FLIGHT_BLOCK - 1 if flight_lanes else total_cycles

    def _flight_mark(ln: _LaneState, cycle: int) -> None:
        """Mark ``cycle`` when the lane's flight row changed."""
        ctrl = ln.controller
        row = (
            ctrl.active_decision if ln.in_fast else ln.last_decision,
            ln.injector.active_kinds(cycle - warmup)
            if ln.injector is not None
            else None,
            ctrl.in_safe_state if ln.flight_safe else False,
        )
        last = ln.flight_row
        if (
            last is not None and row[0] is last[0] and row[1] is last[1]
            and row[2] == last[2]
        ):
            return
        ln.flight_row = row
        marks = ln.flight_marks
        if marks and marks[-1][0] == cycle:
            marks[-1] = (cycle, row)
        else:
            marks.append((cycle, row))

    def _flush_flight(ln: _LaneState, start: int, end: int) -> None:
        """Hand cycles [start, end) to the lane's recorder."""
        if end <= start:
            return
        marks = ln.flight_marks
        runs = []
        for i, (first, row) in enumerate(marks):
            stop = marks[i + 1][0] if i + 1 < len(marks) else end
            count = min(stop, end) - max(first, start)
            if count > 0:
                runs.append((count, row))
        ln.flight_marks = marks[-1:]
        if end <= warmup:
            volts = flight_warm_bt[ln.index, start:end]
        elif start >= warmup:
            volts = sm_voltages_bt[ln.index, start - warmup:end - warmup]
        else:
            volts = np.concatenate((
                flight_warm_bt[ln.index, start:],
                sm_voltages_bt[ln.index, :end - warmup],
            ))
        ln.flight.observe_runs(volts, runs)

    # The cycle kernel: when the native library loaded and the batch is
    # eligible, each clean cycle — GPU step and process variation,
    # currents, guarded solve, readout, the bank's RC filter and the
    # recording row — is one call into compiled code
    # (repro.sim._cyclec), and Python keeps only the event work around
    # it.  Other batches run the phased NumPy body below.  The kernel
    # binds the current batch shape and is rebuilt when a quarantine
    # compacts it.
    stage_s = np.zeros(4) if timing else None

    def _bind_kernel() -> Optional[CycleKernel]:
        if gpu_batch.fused() is None or not batch_solver._c_ready():
            return None
        return CycleKernel(
            gpu_batch, batch_solver, batch_guard,
            dcc=dcc_bt, currents=batch_currents, volts=volt_buf,
            sm_voltage=stack.sm_voltage, conductance_bias=conductance_bias,
            substeps=substeps, top_idx=kernel_top_idx,
            bot_idx=kernel_bot_idx, bank=bank, bank_rows=bank_rows_arr,
            fast=fast_rows, applied=applied_ids,
            pv_rows=pv_rows_bt, pv_count=pv_count,
            warmup=warmup, cycles=cycles,
            lane_index=(
                np.arange(num_lanes) if alive_idx is None else alive_idx
            ),
            rec_powers=powers_rec_bt, rec_volts=sm_voltages_bt,
            rec_supply=supply_bt, vdd_row=vdd_row,
            dcc_possible=dcc_possible, dcc_accum=dcc_accum,
            dcc_trace=dcc_trace_bt, flight_warm=flight_warm_bt,
            stage_s=stage_s,
        )

    kernel = _bind_kernel()
    if kernel is not None:
        powers_bt = gpu_batch.fused().powers
    fused_cycles = 0
    status = 0

    # Stage accumulators.  ``timing`` gates the perf_counter reads; with
    # telemetry off the loop body is branch-only.  The cycle kernel
    # times its own stages into stage_s.
    t_gpu = t_circuit = t_controller = t_record = 0.0
    if timing:
        tele.add_time("setup", perf_counter() - setup_start)
    loop_start = perf_counter()
    for cycle in range(total_cycles):
        recording = cycle >= warmup
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
        # Edge cycles: refresh the edge lanes' sensing flags and PV
        # rows (before the GPU stage scales this cycle's powers); the
        # circuit and DFS hooks run after the GPU stage, the halt hooks
        # after the solve.
        edge = hooks = ()
        if cycle == next_edge:
            next_edge = next(edge_order, total_cycles)
            edge = [ln for ln in edges[cycle] if not ln.dead]
            for ln in edge:
                inj = ln.injector
                if inj is None:
                    continue
                ln.sensor_on, ln.jitter_on = inj.sensing(recorded_cycle)
                scales = inj.power_scales(recorded_cycle)
                pv_count[ln.row] = len(scales)
                for k, row in enumerate(scales):
                    pv_rows_bt[ln.row, k] = row
            bank_rows_arr, sensor_lanes, jitter_lanes = _bank_feeds()
            sensing = bool(sensor_lanes or jitter_lanes)
            hooks = [
                ln for ln in edge if ln.injector is not None and (
                    ln.injector.touches_circuit
                    or ln.injector.scales_frequency
                )
            ]
        # A clean cycle is one kernel call; edge hooks and chaos split
        # it after the GPU stage, a sensor cycle after the readout.
        split = kernel is None or bool(hooks) or chaos_now

        # 1. GPU cycle per lane (independent engines, lock-stepped).
        # Python-side timing covers the Python work only: the kernel
        # times its own stages.
        if split:
            if timing:
                t0 = perf_counter()
            if kernel is None:
                gpu_batch.step_into(powers_bt)
            else:
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
            if kernel is None:
                # Process variation scales the emitted powers (in
                # place) *before* they become currents or records,
                # keeping the PDE ledger closed (the kernel does it in
                # its GPU stage).
                for ln in pv_lanes:
                    ln.injector.scale_powers(
                        recorded_cycle, powers_bt[ln.row]
                    )
            if timing:
                t1 = perf_counter()
                t_gpu += t1 - t0

        # 2. Powers -> PDN currents, all lanes at once.  Per the paper's
        # convention each SM is a time-varying *ideal* current source:
        # I = P / V_nominal.  (Dividing by the instantaneous voltage
        # would add the classic constant-power negative resistance and
        # destabilize the grid.)  The netlist's small-signal load
        # conductance already draws ~g*V per SM, so that bias is
        # deducted from the source to keep the total SM draw equal to
        # P / V_nominal.  (The cycle kernel does the same in C.)
        if kernel is None:
            np.add(powers_bt, dcc_bt, out=cur_buf)
            cur_buf /= stack.sm_voltage
            cur_buf -= conductance_bias
            np.maximum(cur_buf, 0.0, out=batch_currents)
            if recording and dcc_possible:
                # The DCC power *applied* this cycle (the last
                # decision's command, just injected as current),
                # captured before the controller updates it:
                # mean_dcc_power_w ledgers what the PDN saw, not the
                # final cycle's never-applied command.
                dcc_bt.sum(axis=1, out=dcc_applied)

        # 3. Circuit transient over one clock period, batched.  With the
        # guard on, a diverged lane is quarantined: marked dead, its row
        # compacted out of the batch, and the surviving lanes continue
        # lock-stepped (bit-identical to their serial runs — the guard
        # redoes suspect cycles per-lane, and compaction only rebuilds
        # views/wrappers around untouched per-lane state).
        if chaos_now:
            for event in monkey.take_cycle(recorded_cycle):
                if event.action != "nan_poison" or (
                    serial and event.lane is not None
                ):
                    continue
                for ln in alive:
                    if event.lane is None or event.lane == ln.index:
                        ln.solver._react_v[:] = np.nan
        failures = None
        if kernel is not None:
            if hooks:
                kernel.sync_solver()  # a circuit fault may refactor
            fused_cycles += 1
            status = kernel.run(
                cycle, STAGE_SOLVE if split else STAGE_GPU,
                STAGE_READOUT if sensing else STAGE_FILTER,
            )
            if status == SUSPECT:
                if timing:
                    t1 = perf_counter()
                failures = batch_guard.resolve(
                    substeps, recorded_cycle, float(batch_solver._clock[1])
                )
        elif batch_guard is not None:
            node_bt, failures = batch_guard.step_cycle(
                substeps, cycle=recorded_cycle
            )
        else:
            node_bt = batch_solver.step_n(substeps)
        if failures:
            for row in sorted(failures):
                ln = alive[row]
                ln.dead = True
                ln.dead_at = max(0, recorded_cycle)
                info = failures[row].forensics()
                if not serial:
                    info["lane"] = ln.index
                info["benchmark"] = ln.name
                ln.divergence = info
                if timing and not serial:
                    tele.event("lane_quarantined", **info)
                if ln.injector is not None:
                    # Its last completed cycle closes its halt span.
                    ln.injector.credit_halted(recorded_cycle - 1)
            # Every lane's deferred mirrors and dropped-sample counts go
            # back to its objects before the batch front ends are
            # rebuilt around them.
            gpu_batch.fold()
            batch_solver.fold_lanes()
            survivors = [ln for ln in alive if not ln.dead]
            edge = [ln for ln in edge if not ln.dead]
            pv_lanes = [ln for ln in pv_lanes if not ln.dead]
            fast_lanes = [ln for ln in fast_lanes if not ln.dead]
            slow_ctrl_lanes = [
                ln for ln in slow_ctrl_lanes if not ln.dead
            ]
            for ln in flight_lanes:
                if ln.dead:
                    _flush_flight(ln, flight_sent, cycle)
            flight_lanes = [ln for ln in flight_lanes if not ln.dead]
            flight_every = [ln for ln in flight_every if not ln.dead]
            flight_watch = [ln for ln in flight_watch if not ln.dead]
            if not survivors:
                alive = []
                break
            # Compact the batch axis around the survivors: new
            # shared current base, re-bound PDN sources + solver
            # gather maps, rebuilt batch solver/guard/GPU front
            # ends, compacted controller bank.  Per-lane objects
            # (solver state, controllers, GPU engines) carry over
            # untouched, so survivor physics continues bit-exactly.
            old_rows = [ln.row for ln in survivors]
            batch_currents = batch_currents[old_rows].copy()
            cur_buf = np.empty((len(survivors), num))
            bot_buf = np.empty((len(survivors), num))
            volt_buf = np.empty((len(survivors), num))
            for new_row, ln in enumerate(survivors):
                ln.row = new_row
                ln.pdn.bind_current_buffer(batch_currents[new_row])
                ln.solver.rebind_sources()
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
                    fast_rows = fast_rows[keep]
                    applied_ids = applied_ids[keep]
                bank_rows_arr, sensor_lanes, jitter_lanes = _bank_feeds()
                sensing = bool(sensor_lanes or jitter_lanes)
            all_banked = len(bank_members) == len(survivors)
            pv_rows_bt = pv_rows_bt[old_rows]
            pv_count = pv_count[old_rows]
            powers_bt = powers_bt[old_rows]
            dcc_bt = dcc_bt[old_rows]
            dcc_applied = dcc_applied[old_rows]
            alive = survivors
            alive_idx = np.array(
                [ln.index for ln in survivors], dtype=np.intp
            )
            node_bt = batch_solver._sol_bt[:, : batch_solver.num_nodes]
            if kernel is not None:
                kernel = _bind_kernel()
                powers_bt = gpu_batch.fused().powers
        if kernel is None:
            # Bound-method take skips np.take's dispatch wrapper — this
            # runs twice per recorded cycle on the hot path.
            node_bt.take(bot_idx, axis=1, out=bot_buf)
            if ground_cols.size:
                bot_buf[:, ground_cols] = 0.0
            node_bt.take(top_idx, axis=1, out=volt_buf)
            volt_buf -= bot_buf
            if timing:
                t2 = perf_counter()
                t_circuit += t2 - t1
        else:
            if status == SUSPECT:
                # The guard settled the suspects (and a quarantine the
                # batch): the cycle's tail runs on the survivors.
                kernel.sync_solver()
                if timing:
                    t_circuit += perf_counter() - t1
                status = kernel.run(
                    cycle, STAGE_READOUT,
                    STAGE_READOUT if sensing else STAGE_FILTER,
                )
            if timing:
                t2 = perf_counter()
        voltages_bt = volt_buf

        # Halted SMs per lane (shutoff windows + fault-scheduled halts)
        # must not block the kernel-launch barrier.  The set changes only
        # on the lane's edges; a change re-applies the actuation in force
        # under it: a lane without a controller runs at full width, a
        # fast lane re-applies its decision, a slow lane re-applies at
        # its next command read.
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
            if ln.controller is None:
                ln.gpu.set_issue_widths(
                    _halted(np.full(num, 2.0), ln.halted_idx)
                )
            elif not ln.in_fast:
                ln.applied_decision = None
            elif ln.applied_decision is not None:
                ln.gpu.set_issue_widths(_halted(
                    ln.applied_decision.issue_widths, ln.halted_idx
                ))

        # 4. Detection + control.  Bank lanes advance their RC filters
        # and decision waves batched, on what their detectors see; each
        # injector keeps its serial RNG call order (corrupt_sensors,
        # observation_allowed, then extra_latency at the command read),
        # called only while an event of its kind is active.  On a sensor
        # cycle the kernel stopped after the readout: the injectors
        # write the seen block and observed mask, and a second call runs
        # the filter (masked for dropped samples or unobserved lanes),
        # the wave, the fast lanes' pops and the recording row.  The
        # fast rows it flags (pop_fast's, on the phased body) get their
        # new decision applied.  Duck-typed controllers replicate the
        # serial path verbatim.  Actuation application is gated on
        # decision identity (setters are idempotent; decisions are
        # immutable once enqueued), except under actuation-distorting
        # faults which may perturb every cycle.  Ownership contract:
        # decision arrays belong to the controller, so every array this
        # loop mutates (halted widths, distorted commands) or retains
        # (DCC, in dcc_bt) is a copy.
        observed = None
        if sensing:
            if kernel is not None:
                seen = kernel.seen
            elif all_banked:
                seen = voltages_bt.copy()  # never write the physical voltages
            else:
                seen = voltages_bt[bank_rows_arr]
            for j, ln in sensor_lanes:
                seen[j] = ln.injector.corrupt_sensors(recorded_cycle, seen[j])
            for j, ln in jitter_lanes:
                if not ln.injector.observation_allowed(recorded_cycle):
                    if observed is None:
                        observed = (
                            np.ones(len(bank_members), dtype=bool)
                            if kernel is None else kernel.observed
                        )
                    observed[j] = False
            if kernel is not None:
                if timing:
                    tk = perf_counter()
                kernel.run(cycle, STAGE_FILTER, STAGE_FILTER)
                if timing:
                    t2 += perf_counter() - tk  # the kernel's own time
        elif kernel is None and bank is not None:
            seen = voltages_bt if all_banked else voltages_bt[bank_rows_arr]
        applies = ()
        if bank is None:
            waved = False
        elif kernel is None:
            waved = cycle >= bank.next_due
            bank.observe(cycle, seen, observed)
            if fast_lanes:
                applies = bank.pop_fast(cycle, fast_rows, applied_ids)
        else:
            waved = kernel.state.waved
            if kernel.state.n_apply:
                applies = np.flatnonzero(kernel.apply).tolist()
        if observed is not None:
            observed[:] = True
        for j in applies:
            ln = bank_members[j]
            decision = ln.controller.active_decision
            # The engine setters copy internally, so unhalted decision
            # arrays pass through unmutated.
            ln.gpu.set_issue_widths(
                _halted(decision.issue_widths, ln.halted_idx)
            )
            ln.gpu.set_fake_rates(decision.fake_rates)
            np.copyto(dcc_bt[ln.row], decision.dcc_powers_w)
            ln.applied_decision = decision
            if ln.flight is not None:
                _flight_mark(ln, cycle)
        for ln in slow_ctrl_lanes:
            controller = ln.controller
            inj = ln.injector
            if not ln.in_bank:
                # A duck-typed controller observes on its own, through
                # the same injector hooks that feed the bank.
                seen = voltages_bt[ln.row]
                if inj is not None:
                    seen = inj.corrupt_sensors(recorded_cycle, seen)
                if inj is None or inj.observation_allowed(recorded_cycle):
                    controller.observe(cycle, seen)
            if ln.jitter_on:
                decision = controller.commands_for(
                    cycle - inj.extra_latency(recorded_cycle)
                )
            else:
                decision = controller.commands_for(cycle)
            ln.last_decision = decision
            if inj is not None and inj.touches_actuation:
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates.copy()
                dcc = decision.dcc_powers_w.copy()
                inj.distort_actuation(recorded_cycle, widths, fakes, dcc)
                if ln.halted_idx:
                    widths[ln.halted_idx] = 0.0
                ln.gpu.set_issue_widths(widths)
                ln.gpu.set_fake_rates(fakes)
                np.copyto(dcc_bt[ln.row], dcc)
            elif decision is not ln.applied_decision:
                ln.gpu.set_issue_widths(
                    _halted(decision.issue_widths, ln.halted_idx)
                )
                ln.gpu.set_fake_rates(decision.fake_rates)
                np.copyto(dcc_bt[ln.row], decision.dcc_powers_w)
                ln.applied_decision = decision
        if timing:
            t3 = perf_counter()
            t_controller += t3 - t2

        if flight_every or flight_watch or (
            flight_lanes and kernel is None and not recording
        ):
            if waved and flight_watch:
                for ln in flight_watch:
                    if ln.controller.in_safe_state != ln.flight_row[2]:
                        _flight_mark(ln, cycle)
            for ln in flight_every:
                _flight_mark(ln, cycle)
            if kernel is None and not recording:
                if alive_idx is None:
                    flight_warm_bt[:, cycle] = voltages_bt
                else:
                    flight_warm_bt[alive_idx, cycle] = voltages_bt

        if recording and kernel is None:
            k = recorded_cycle
            if alive_idx is None:
                powers_rec_bt[:, k, :] = powers_bt
                sm_voltages_bt[:, k, :] = voltages_bt
                batch_solver.vsource_currents("vdd", out=supply_bt[:, k])
                if dcc_possible:
                    dcc_accum += dcc_applied
                    if trace_dcc:
                        dcc_trace_bt[:, k] = dcc_applied
            else:
                # Post-eviction: dead lanes keep whatever they recorded
                # before their divergence cycle (results are truncated
                # to ``dead_at``); survivors scatter through alive_idx.
                powers_rec_bt[alive_idx, k, :] = powers_bt
                sm_voltages_bt[alive_idx, k, :] = voltages_bt
                supply_bt[alive_idx, k] = batch_solver.vsource_currents(
                    "vdd"
                )
                if dcc_possible:
                    dcc_accum[alive_idx] += dcc_applied
                    if trace_dcc:
                        dcc_trace_bt[alive_idx, k] = dcc_applied
        if cycle == flight_due:
            for ln in flight_lanes:
                _flush_flight(ln, flight_sent, cycle + 1)
            flight_sent = cycle + 1
            flight_due = cycle + _FLIGHT_BLOCK
        if timing:
            t_record += perf_counter() - t3
    for ln in flight_lanes:
        _flush_flight(ln, flight_sent, total_cycles)
    # Settle the open halt spans so injectors end bit-equal to serial
    # post-run state.
    for ln in alive:
        if ln.injector is not None:
            ln.injector.credit_halted(cycles - 1)
    if alive:
        # The surviving lanes' deferred mirrors (quarantined lanes were
        # folded at their eviction).
        gpu_batch.fold()
        batch_solver.fold_lanes()
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
