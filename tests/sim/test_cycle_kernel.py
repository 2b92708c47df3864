"""The compiled co-sim cycle kernel against the serial oracle.

A batch runs its co-sim cycles in ``repro/sim/_cyclec.c``: a span of
whole cycles per call up to the next cycle at which the loop has work.
Every lane must be byte-equal on every :class:`CosimResult` field to the
serial oracle (``tests/oracles/serial_cosim.py``, whose stock controller
is the per-SM ``ScalarController``) and to its solo run, through
same-cycle relaunches, barrier-exempt shutoffs, a lane quarantine (also
one that arises inside a span), circuit-, sensor-, jitter- and
actuator-fault lanes, global-throttle lanes, random edge schedules,
flight recorders and arbitrary span boundaries; each stock controller
ends in its oracle controller's state. The kernel's fault draws, made
through each injector's bit generator, equal the injector's own Python
draws on a twin. The lanes' deferred mirrors (GPU cycle, memory-queue
counters, solver time and step count) must read the same from a fault
hook and after the run. Call-count gates pin the edge schedule: fault
hooks run on edge cycles only, a cycle makes a second kernel call only
on an edge with circuit or DFS hooks, the injectors' draw methods never
run on the kernel path, and the kernel's calls tile the run with about
two per event; the kernel makes every decision (Python never enters the
wave) and applies every lane's commands itself, leaving the engines and
DCC rows at the top of every cycle as the oracle's setters do.
"""

import ctypes
import json
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.circuits import TransientSolver
from repro.config import StackConfig
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    _I_APPLIED_ID,
    _S_NEXT_DUE,
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)
from repro.core.prior_art import GlobalThrottleController
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.events import (
    ActuatorStuck,
    ControlLoopJitter,
    CRIVRPhaseLoss,
    DFSTransient,
    FaultSchedule,
    LayerShutoff,
    PDNDrift,
    PowerGateTransient,
    ProcessVariation,
    SensorDropout,
    SensorNoise,
    SensorQuantization,
    SensorStuck,
)
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu import GPU, KernelSpec
from repro.gpu.batch import GPUBatch
from repro.gpu.isa import InstructionClass
from repro.sim._cyclec import (
    STAGE_FILTER,
    STAGE_GPU,
    SUSPECT,
    CCycleState,
    CycleKernel,
    FaultTable,
)
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    LayerShutoffEvent,
    last_batch_solver_info,
    run_cosim,
    run_cosim_batch,
)
from repro.sim.sweep import point_seed
from repro.workloads.benchmarks import BENCHMARK_NAMES
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder
from tests.oracles.scalar_controller import ScalarController
from tests.oracles.serial_cosim import run_cosim_reference
from tests.sim.test_cosim_batch import _assert_result_bytes_equal
from tests.sim.test_cosim_oracle import _dump_view

CYCLES = 260
WARMUP = 40
TOTAL = CYCLES + WARMUP

# An ALU-only kernel: lanes relaunch about every hundred cycles.
SHORT = KernelSpec(
    "short", mix={InstructionClass.FALU: 0.6, InstructionClass.IALU: 0.4},
    body_length=40, warps_per_sm=4,
)
ACTIVE = dict(
    controller=ControllerConfig(v_threshold=0.97, k1=15.0),
    actuation=WeightedActuation(w1=1.0, w2=1.0, w3=1.0),
)


def _cfg(seed, **kw):
    return CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed, **kw)


def _same(a, b, label):
    """Byte-equal results; divergence verdicts compare as JSON (their
    NaN worst values are equal there)."""
    verdicts = a.divergence, b.divergence
    assert json.dumps(verdicts[0], sort_keys=True) == json.dumps(
        verdicts[1], sort_keys=True
    ), f"{label}: divergence"
    a.divergence = b.divergence = None
    try:
        _assert_result_bytes_equal(a, b, label)
    finally:
        a.divergence, b.divergence = verdicts


def _collecting(monkeypatch, cls, made):
    """Append every ``cls`` built while the patch holds to ``made``."""
    init = cls.__init__

    def register(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", register)


def _controller_state(c):
    """A stock controller's end state: RC filter, held measurement and
    statistics (the bank's lanes and ScalarController alike)."""
    return c._filter_state.tobytes(), c._last_good.tobytes(), c.stats()


def _run(build, monkeypatch, controllers=None, **kwargs):
    """One batch run; returns (results, last_batch_solver_info()).

    ``controllers`` (a list) collects each stock controller's end state.
    """
    made = []
    with monkeypatch.context() as m:
        _collecting(m, VoltageSmoothingController, made)
        results = run_cosim_batch(build(), **kwargs)
        info = last_batch_solver_info()
    if controllers is not None:
        controllers.extend(_controller_state(c) for c in made)
    return results, info


def _check(build, monkeypatch, solo=True):
    """Every lane == its oracle run (stock controllers ending in their
    ScalarController's state) and, with ``solo``, its solo run, byte
    for byte; returns the batch's results."""
    ctrl = []
    fused, info = _run(build, monkeypatch, controllers=ctrl)
    assert info["fused_cycles"] == TOTAL, "the batch left the cycle kernel"
    refs = []
    with monkeypatch.context() as m:
        _collecting(m, ScalarController, refs)
        for i, lane in enumerate(build()):
            _same(fused[i], _oracle(lane), f"lane {i} vs oracle")
    assert ctrl == [_controller_state(c) for c in refs], (
        "controller filter/stats vs the oracle's"
    )
    if solo:
        for i, lane in enumerate(build()):
            _same(fused[i], run_cosim_batch([lane])[0], f"lane {i} vs solo")
    return fused


def _oracle(lane, **kwargs):
    return run_cosim_reference(
        lane.benchmark, config=lane.config, kernel=lane.kernel, **kwargs
    )


def test_twelve_lanes_relaunch_in_the_same_cycle(monkeypatch):
    def build():
        return [
            CosimLane(config=_cfg(5, **(ACTIVE if i % 3 == 0 else {})),
                      kernel=SHORT)
            for i in range(12)
        ]

    fused = _check(build, monkeypatch)
    launches = [r.kernel_durations.tolist() for r in fused]
    assert all(len(d) >= 2 for d in launches)
    # The idle-controller lanes are identical: they relaunch together.
    assert launches[1] == launches[2] == launches[4]


def test_shutoff_lanes_with_barrier_exempt_sms(monkeypatch):
    def build():
        return [
            CosimLane(config=_cfg(
                seed, shutoff=LayerShutoffEvent(layer=layer, start_cycle=30),
                **(ACTIVE if seed % 2 else {}),
            ), kernel=SHORT)
            for seed, layer in ((1, 3), (2, 0), (3, 3))
        ] + [CosimLane("hotspot", _cfg(4))]

    _check(build, monkeypatch)


def test_quarantine_mid_run_then_fused_survivors(monkeypatch, chaos_plan):
    """A lane-targeted NaN poison: the health proof flags it, the guard's
    recovery ladder fails, the lane is quarantined and the batch
    compacted — and every later cycle still runs through the kernel.
    The survivors equal their oracle runs (which ignore lane-targeted
    poison), and the quarantined lane equals its oracle run poisoned at
    the same cycle, verdict included."""
    def poison(lane):
        return ChaosPlan("kernel-quarantine", [ChaosEvent(
            "cosim_cycle", "nan_poison", at=60, lane=lane, once=False,
        )])

    def build():
        return [
            CosimLane("hotspot", _cfg(3)),
            CosimLane("bfs", _cfg(5, **ACTIVE)),
            CosimLane("srad", _cfg(7, **ACTIVE)),
        ]

    chaos_plan(poison(lane=1))
    fused, info = _run(build, monkeypatch)
    assert info["fused_cycles"] == TOTAL
    assert fused[1].diverged and fused[1].num_cycles == 60
    assert fused[1].divergence["lane"] == 1
    assert not fused[0].diverged and not fused[2].diverged
    for i in (0, 2):
        _same(fused[i], _oracle(build()[i]), f"lane {i} vs oracle")
    chaos_plan(poison(lane=None))
    dead = _oracle(build()[1])
    fused[1].divergence = {
        k: v for k, v in fused[1].divergence.items() if k != "lane"
    }
    _same(fused[1], dead, "quarantined lane vs poisoned oracle")


@pytest.mark.parametrize("scenario", ["pdn-aging", "guardband-breaker"])
def test_circuit_fault_lanes_take_two_halves(monkeypatch, scenario):
    """Circuit-fault lanes split a cycle into two kernel calls (the
    hooks between the GPU stage and the solve) on their edge cycles
    only; the kernel scales process variation itself."""
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[scenario](),
                                      **ACTIVE)),
            CosimLane("bfs", _cfg(4, **ACTIVE)),
            CosimLane("backprop", _cfg(6)),
        ]

    _check(build, monkeypatch)


def test_sensor_and_jitter_lanes_draw_in_the_kernel(monkeypatch):
    """Sensor-fault and jitter lanes: the kernel's draws, masked filter
    and jittered pops give the bytes of the oracle, whose injectors draw
    in Python for its scalar controllers, and of the solo runs."""
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[
                "sensor-storm"](), **ACTIVE)),
            CosimLane("srad", _cfg(4, **ACTIVE)),
            CosimLane("bfs", _cfg(6, faults=CANNED_SCENARIOS[
                "scheduler-storm"]())),
        ]

    _check(build, monkeypatch)


def _recorder():
    return FlightRecorder(
        num_sms=16, guardband_v=0.8, pre_cycles=8, post_cycles=8,
        max_window_cycles=48, cycle_offset=-WARMUP,
    )


def test_flight_recorders_ride_the_kernel(monkeypatch):
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[
                "guardband-breaker"]())),
            CosimLane("bfs", _cfg(4, **ACTIVE)),
        ]

    fused, info = _run(build, monkeypatch,
                       flights=[_recorder(), _recorder()])
    assert info["fused_cycles"] == TOTAL
    assert any(r.flight.dumps for r in fused)
    for i, lane in enumerate(build()):
        oracle = _oracle(lane, flight=_recorder())
        _same(fused[i], oracle, f"lane {i} vs oracle")
        assert _flight_values(fused[i]) == _flight_values(oracle)


def test_telemetry_keeps_the_stage_names(monkeypatch):
    """A telemetered fused batch reports the loop's stage split and is
    byte-equal to an untelemetered one."""
    def build():
        return [CosimLane("hotspot", _cfg(1)), CosimLane("bfs", _cfg(2))]

    plain, _ = _run(build, monkeypatch)
    tele = Telemetry(run_id="kernel-stages")
    traced, info = _run(build, monkeypatch, telemetry=tele)
    assert info["fused_cycles"] == TOTAL
    for stage in ("gpu_model", "transient_solve", "controller"):
        assert tele.timings[stage] > 0.0, stage
    assert {"record", "loop_other"} <= set(tele.timings)
    for i, (a, b) in enumerate(zip(traced, plain)):
        _same(a, b, f"lane {i} telemetry on vs off")


# ---------------------------------------------------------------------------
# Deferred mirrors
# ---------------------------------------------------------------------------
def _mirror_runs(monkeypatch, build, mode="batch"):
    """Run ``build``'s lanes as one batch, one solo batch per lane or
    through the oracle, recording each circuit hook's view of its own
    lane and every lane's mirrors at the end: (hook reads, final
    reads)."""
    gpus, solvers, owner, reads = [], [], {}, []
    gpu_init, solver_init = GPU.__init__, TransientSolver.__init__
    inj_init = FaultInjector.__init__
    apply = FaultInjector.apply_circuit_faults

    def view(gpu, solver):
        mem = gpu.memory
        return (gpu.cycle, mem.requests_served, mem.misses,
                mem._next_service_slot, solver.time, solver.stats.steps)

    def gpu_new(self, *args, **kwargs):
        gpu_init(self, *args, **kwargs)
        gpus.append(self)

    def solver_new(self, *args, **kwargs):
        solver_init(self, *args, **kwargs)
        solvers.append(self)

    def inj_new(self, *args, **kwargs):
        inj_init(self, *args, **kwargs)
        owner[id(self)] = gpus[-1]  # built right after its lane's GPU

    def hook(self, cycle):
        reads.append((cycle, view(owner[id(self)], self.solver)))
        return apply(self, cycle)

    with monkeypatch.context() as m:
        m.setattr(GPU, "__init__", gpu_new)
        m.setattr(TransientSolver, "__init__", solver_new)
        m.setattr(FaultInjector, "__init__", inj_new)
        m.setattr(FaultInjector, "apply_circuit_faults", hook)
        if mode == "batch":
            run_cosim_batch(build())
        for lane in build() if mode != "batch" else ():
            if mode == "oracle":
                _oracle(lane)
            else:
                run_cosim_batch([lane])
    final = [view(g, s) for g, s in zip(gpus, solvers)]
    return reads, final


def test_deferred_mirrors_fold_for_hooks_and_finalize(monkeypatch):
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[
                "pdn-aging"]())),
            CosimLane("bfs", _cfg(4)),
            CosimLane(config=_cfg(6, faults=CANNED_SCENARIOS[
                "guardband-breaker"]()), kernel=SHORT),
        ]

    reads, final = _mirror_runs(monkeypatch, build)
    # The loop calls the hook on its lanes' edge cycles only: the first
    # cycle, pdn-aging's process variation at 0 and guardband-breaker's
    # CR-IVR loss at 100 (their other windows open after the run).
    assert sorted(r[0] for r in reads) == [-WARMUP, -WARMUP, 0, 100]
    # Lane by lane, the solo runs' hooks read the same views.
    solo_reads, solo_final = _mirror_runs(monkeypatch, build, mode="solo")
    assert sorted(solo_reads) == sorted(reads) and solo_final == final
    oracle_reads, oracle_final = _mirror_runs(
        monkeypatch, build, mode="oracle"
    )
    # The oracle calls the hook on every cycle of its own lanes, one run
    # at a time: each edge read is one of those.
    assert len(oracle_reads) == 2 * TOTAL
    assert all(read in oracle_reads for read in reads)
    assert oracle_final == final
    # The reads cover real traffic, not idle mirrors.
    assert final[0][1] > 0 and final[0][5] == 2 * TOTAL


# ---------------------------------------------------------------------------
# The edge schedule
# ---------------------------------------------------------------------------
# Window bounds around the run's landmarks (recorded cycles; the run
# spans -WARMUP .. CYCLES - 1): before and inside warmup, the recorded
# start, mid-run, the last cycle, the end and past it.
MARKS = (-60, -WARMUP, -10, 0, 25, 60, 90, CYCLES - 1, CYCLES, CYCLES + 50)
FOREVER = 10**9


@st.composite
def _window(draw):
    start = draw(st.sampled_from(MARKS[:-1]))
    end = draw(st.sampled_from([m for m in MARKS if m > start] + [FOREVER]))
    return {"start_cycle": start, "end_cycle": end}


_EVENT = st.one_of([_window().map(make) for make in (
    lambda w: ProcessVariation(sigma=0.1, **w),
    lambda w: CRIVRPhaseLoss(capacity_fraction=0.3, **w),
    lambda w: PDNDrift(element_prefix="r_link", resistance_scale=4.0, **w),
    lambda w: SensorNoise(sigma_v=0.01, **w),
    lambda w: SensorQuantization(step_v=0.02, sms=(2, 9), **w),
    lambda w: SensorStuck(sms=(0, 3), value_v=1.0, **w),
    lambda w: SensorDropout(probability=0.3, **w),
    lambda w: ControlLoopJitter(
        drop_probability=0.2, extra_latency_cycles=3, **w
    ),
    lambda w: ActuatorStuck(actuator="diws", sms=(1, 5), **w),
    lambda w: LayerShutoff(layer=3, **w),
    lambda w: PowerGateTransient(sms=(0, 6), **w),
    lambda w: DFSTransient(frequency_scale=0.5, sms=(4, 12), **w),
)])
# (events, shutoff, controller, seed, benchmark) of one lane.
_LANE = st.tuples(
    st.lists(_EVENT, max_size=4),
    st.one_of(st.none(), st.builds(
        lambda w, layer: LayerShutoffEvent(layer=layer, **w),
        _window(), st.sampled_from((0, 3)),
    )),
    st.sampled_from(("default", "active", "none")),
    st.integers(0, 2**16),
    st.sampled_from(("hotspot", "bfs", "srad", "backprop")),
)


@settings(max_examples=6, deadline=None)
@example(lanes=[
    # Overlapping process variation (one opening before warmup), then
    # CR-IVR loss, a DFS step and power gating opening on one cycle,
    # and a shutoff window inside the run.
    ([ProcessVariation(sigma=0.1, start_cycle=-60),
      ProcessVariation(sigma=0.2, start_cycle=0, end_cycle=90),
      CRIVRPhaseLoss(capacity_fraction=0.3, start_cycle=25, end_cycle=90),
      DFSTransient(frequency_scale=0.5, start_cycle=25, end_cycle=60),
      PowerGateTransient(sms=(0, 6), start_cycle=25)],
     LayerShutoffEvent(layer=3, start_cycle=60, end_cycle=90),
     "active", 3, "hotspot"),
    # Sensor noise closing inside warmup, dropout and jitter opening
    # mid-run, drift opening past the end.
    ([SensorNoise(sigma_v=0.01, start_cycle=-60, end_cycle=-10),
      SensorDropout(probability=0.3, start_cycle=60),
      ControlLoopJitter(drop_probability=0.2, extra_latency_cycles=3,
                        start_cycle=25, end_cycle=CYCLES + 50),
      PDNDrift(element_prefix="r_link", resistance_scale=4.0,
               start_cycle=CYCLES)],
     None, "active", 5, "bfs"),
    # A stuck actuator on a lane that senses: the kernel draws the
    # noise, the observation and the extra latency, and distorts the
    # applies.
    ([ControlLoopJitter(drop_probability=0.2, extra_latency_cycles=3,
                        start_cycle=-10, end_cycle=90),
      ActuatorStuck(actuator="diws", sms=(1, 5), start_cycle=0),
      SensorNoise(sigma_v=0.01, start_cycle=-WARMUP, end_cycle=60)],
     None, "active", 11, "hotspot"),
    # A stuck actuator, stuck sensors through warmup and a scheduled
    # layer shutoff on a lane whose own shutoff window closes early.
    ([ActuatorStuck(actuator="diws", sms=(1, 5), start_cycle=0,
                    end_cycle=90),
      SensorStuck(sms=(0, 3), value_v=1.0, start_cycle=-WARMUP,
                  end_cycle=25),
      LayerShutoff(layer=1, start_cycle=90)],
     LayerShutoffEvent(layer=0, start_cycle=-10, end_cycle=25),
     "default", 7, "srad"),
    # No controller: the halt edges set the widths themselves.
    ([PowerGateTransient(sms=(0, 6), start_cycle=-10, end_cycle=60)],
     LayerShutoffEvent(layer=3, start_cycle=0), "none", 9, "backprop"),
])
@given(lanes=st.lists(_LANE, min_size=1, max_size=3))
def test_edge_schedules_match_solo_runs_and_the_oracle(lanes):
    """Random fault schedules and shutoff windows: every lane of the
    kernel batch equals its solo run and the oracle."""
    def build():
        return [
            CosimLane(bench, _cfg(
                seed,
                faults=(FaultSchedule(events=tuple(events), seed=seed)
                        if events else None),
                shutoff=shutoff, use_controller=ctrl != "none",
                **(ACTIVE if ctrl == "active" else {}),
            ))
            for events, shutoff, ctrl, seed, bench in lanes
        ]

    fused = run_cosim_batch(build())
    assert last_batch_solver_info()["fused_cycles"] == TOTAL
    for i, lane in enumerate(build()):
        _same(fused[i], run_cosim(lane.benchmark, lane.config),
              f"lane {i} vs solo")
        _same(fused[i], _oracle(lane), f"lane {i} vs oracle")


def _log_calls(monkeypatch, owner, name, log, key):
    """Wrap ``owner.name`` to append ``key(self, *args)`` per call."""
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        log.append(key(self, *args))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _log_cover(monkeypatch, log):
    """Log the cycles each CycleKernel.run (one, when it starts the
    cycle) and span call runs."""
    run, span = CycleKernel.run, CycleKernel.span

    def run_logged(self, cycle, first=STAGE_GPU, *stages):
        log.append([cycle] if first == STAGE_GPU else [])
        return run(self, cycle, first, *stages)

    def span_logged(self, start, stop):
        status, at = span(self, start, stop)
        log.append(list(range(start, at + 1 if status else at)))
        return status, at

    monkeypatch.setattr(CycleKernel, "run", run_logged)
    monkeypatch.setattr(CycleKernel, "span", span_logged)


def _fig9_lanes():
    """Fig. 9's layer shutoff on every lane, half cross-layer (default
    controller), half circuit-only."""
    return [
        CosimLane(bench, _cfg(
            seed, shutoff=LayerShutoffEvent(layer=3, start_cycle=60),
            use_controller=seed % 2 == 0,
        ))
        for seed, bench in enumerate((
            "hotspot", "bfs", "srad", "backprop",
            "pathfinder", "heartwall", "hotspot", "bfs",
        ))
    ]


def test_fig9_shaped_batch_makes_one_kernel_call_per_cycle(monkeypatch):
    """Fig. 9's shutoff batch: each cycle runs in exactly one kernel
    call, and the halt edges stay off the calls' stages, so the calls
    are spans between events (the edges and the warmup boundary) and a
    single call on each edge cycle: at most two per event, plus one."""
    calls = []
    _log_cover(monkeypatch, calls)
    _check(_fig9_lanes, monkeypatch, solo=False)
    assert [c for cover in calls for c in cover] == list(range(TOTAL))
    events = {0, WARMUP, WARMUP + 60}
    assert len(calls) <= 2 * len(events) + 1, calls


# The recorder lanes of _every_kind_lanes.
EVERY_KIND_RECORDED = (2, 3, 4)


def _every_kind_lanes():
    """One lane of each kind that once stepped a cycle per kernel call:
    an acting lane with stuck DIWS and DCC actuators (one opening in
    warmup, one closing mid-run) through a mid-run layer shutoff, a
    global throttle under scheduler-storm (loop jitter included), and
    the recorder lanes (EVERY_KIND_RECORDED): an acting one under
    sensor-storm, one whose watchdog flips its safe state, and one
    without a controller."""
    stuck = FaultSchedule(name="stuck", seed=3, events=(
        ActuatorStuck(actuator="diws", sms=(1, 5), start_cycle=-20),
        ActuatorStuck(actuator="dcc", sms=(2, 6), value=0.5, end_cycle=150),
    ))
    # A guardband near nominal: the watchdog engages and releases.
    watchdog = ControllerConfig(
        v_threshold=0.97, k1=4.0, k2=4.0, guardband_v=0.99,
        watchdog_enabled=True, watchdog_patience=2,
        safe_state_release_decisions=10,
    )
    return [
        CosimLane("hotspot", _cfg(
            3, faults=stuck, shutoff=LayerShutoffEvent(layer=3,
                                                       start_cycle=100),
            **ACTIVE,
        )),
        CosimLane("bfs", _cfg(
            5, faults=CANNED_SCENARIOS["scheduler-storm"](),
            controller_object=GlobalThrottleController(
                v_threshold=0.97, hold_cycles=40, latency_cycles=10,
            ),
        )),
        CosimLane("srad", _cfg(
            7, faults=CANNED_SCENARIOS["sensor-storm"](),
            controller_object=VoltageSmoothingController(
                config=ControllerConfig(v_threshold=1.0, k1=15.0),
                actuation=ACTIVE["actuation"],
            ),
        )),
        CosimLane("heartwall", _cfg(
            9, controller_object=VoltageSmoothingController(config=watchdog),
        )),
        CosimLane("backprop", _cfg(11, use_controller=False)),
    ]


def test_every_lane_kind_runs_in_spans(monkeypatch):
    """The lane kinds that stepped one cycle per kernel call — stuck
    actuators, a global throttle, recorders on faulted, watchdog and
    circuit-only lanes — run in spans: every cycle runs in the kernel,
    once, and the calls are bounded by the batch's events: its edge
    schedule (three calls per edge cycle at most: two halves around its
    hooks, then a span), plus one per recorder lane's applied decision
    and safe-state flip."""
    calls = []
    _log_cover(monkeypatch, calls)
    lanes = _every_kind_lanes()
    results = _span_run(lanes, EVERY_KIND_RECORDED)
    assert last_batch_solver_info()["fused_cycles"] == TOTAL
    assert [c for cover in calls for c in cover] == list(range(TOTAL))
    edges = {WARMUP}
    for lane in lanes:
        cfg = lane.config
        marks = {c for e in (cfg.faults.events if cfg.faults else ())
                 for c in (e.start_cycle, e.end_cycle)}
        if cfg.shutoff is not None:
            marks |= {cfg.shutoff.start_cycle, cfg.shutoff.end_cycle}
        if marks:
            marks.add(-WARMUP)
        edges |= {c + WARMUP for c in marks if -WARMUP <= c < CYCLES}
    recorded = [lanes[i].config.controller_object for i in (2, 3)]
    applied = sum(c.stats()["actuations_applied"] for c in recorded)
    flips = 2 * sum(c.watchdog_engagements for c in recorded)
    assert len(calls) <= 3 * len(edges) + applied + flips + 1, calls
    # Each kind took its path.
    assert recorded[0].triggers > 0 and recorded[1].watchdog_engagements > 0
    assert results[0].fault_report["counters"]["actuation_overrides"] > 0
    assert results[1].throttled_cycles > 0
    for i in EVERY_KIND_RECORDED:
        assert results[i].flight.summary()["cycles_observed"] == TOTAL


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
# Batches whose cycles run as spans: (build, the lanes with flight
# recorders).
_SPAN_BATCHES = {
    "clean": (lambda: _faulted_lanes(CYCLES, WARMUP, faults=False), ()),
    "fig9": (_fig9_lanes, ()),
    "flight": (lambda: [
        CosimLane(bench, _cfg(seed, **ACTIVE))
        for seed, bench in ((1, "hotspot"), (2, "bfs"), (3, "srad"))
    ], (0, 1, 2)),
    "every-kind": (_every_kind_lanes, EVERY_KIND_RECORDED),
}
_SPAN_REFERENCES: dict = {}


def _span_run(lanes, recorded):
    """Run ``lanes`` with a recorder on each lane named in ``recorded``."""
    return run_cosim_batch(lanes, flights=[
        _recorder() if i in recorded else None for i in range(len(lanes))
    ])


def _span_references(name):
    """The batch uncapped, lane by lane and through the oracle (computed
    once)."""
    if name not in _SPAN_REFERENCES:
        build, recorded = _SPAN_BATCHES[name]
        _SPAN_REFERENCES[name] = {
            "uncapped": _span_run(build(), recorded),
            "oracle": [
                _oracle(lane, flight=_recorder() if i in recorded else None)
                for i, lane in enumerate(build())
            ],
            "solo": [
                _span_run([lane], (0,) if i in recorded else ())[0]
                for i, lane in enumerate(build())
            ],
        }
    return _SPAN_REFERENCES[name]


def _flight_bytes(result):
    if result.flight is None:
        return None
    return (result.flight.summary(),
            json.dumps([d.to_dict() for d in result.flight.dumps]))


def _flight_values(result):
    """The recorder's summary and dumps with each cycle's actuation by
    value: the oracle's scalar controller builds equal copies of a
    decision where the bank re-enqueues one."""
    if result.flight is None:
        return None
    return (result.flight.summary(),
            [_dump_view(d) for d in result.flight.dumps])


@settings(max_examples=8, deadline=None)
@example(name="flight", caps=[1])
@example(name="fig9", caps=[59, 2, 64])
@example(name="every-kind", caps=[7, 1, 33])
@given(name=st.sampled_from(sorted(_SPAN_BATCHES)),
       caps=st.lists(st.integers(1, 64), min_size=1, max_size=6))
def test_span_boundaries_change_nothing(name, caps):
    """Spans cut short at drawn lengths (1-64 cycles, in turn) give the
    uncapped run's bytes, the solo runs' and the oracle's, flight dumps
    included: a clean acting batch, Fig. 9's halt edges, recorders that
    stop spans on every apply, and every lane kind in one batch."""
    build, recorded = _SPAN_BATCHES[name]
    span, calls = CycleKernel.span, []

    def capped(self, start, stop):
        calls.append(start)
        cap = caps[len(calls) % len(caps)]
        return span(self, start, min(stop, start + cap))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CycleKernel, "span", capped)
        results = _span_run(build(), recorded)
    assert calls, "the batch ran no span"
    refs = _span_references(name)
    for i, result in enumerate(results):
        for label, other in (("uncapped", refs["uncapped"][i]),
                             ("solo", refs["solo"][i])):
            _same(result, other, f"lane {i} vs {label}")
            assert _flight_bytes(result) == _flight_bytes(other), label
        _same(result, refs["oracle"][i], f"lane {i} vs oracle")
        assert _flight_values(result) == _flight_values(refs["oracle"][i])


def test_recorders_get_their_warmup_and_recorded_windows_once(
    monkeypatch, chaos_plan
):
    """Each recorder receives its warmup window, then its recorded
    window, once each: at the end of the run, or at its lane's eviction
    for a quarantined lane, whose recorded window stops at its
    divergence cycle.  Every recorder ends as the oracle's, which
    observes cycle by cycle."""
    build, recorded = _SPAN_BATCHES["flight"]
    oracles = list(_span_references("flight")["oracle"])
    observe_runs = FlightRecorder.observe_runs
    sizes = []

    def logged(self, volts, runs):
        sizes.append((id(self), len(volts)))
        return observe_runs(self, volts, runs)

    def poison(lane):
        return ChaosPlan("recorder-eviction", [ChaosEvent(
            "cosim_cycle", "nan_poison", at=60, lane=lane, once=False,
        )])

    chaos_plan(poison(lane=1))
    with monkeypatch.context() as m:
        m.setattr(FlightRecorder, "observe_runs", logged)
        results = _span_run(build(), recorded)
    order = [id(results[i].flight) for i in (1, 0, 2)]
    assert sizes == [
        (order[0], WARMUP), (order[0], 60),
        (order[1], WARMUP), (order[1], CYCLES),
        (order[2], WARMUP), (order[2], CYCLES),
    ]
    assert results[1].diverged and results[1].num_cycles == 60
    chaos_plan(poison(lane=None))
    oracles[1] = _oracle(build()[1], flight=_recorder())
    for i, (result, oracle) in enumerate(zip(results, oracles)):
        assert result.flight.summary()["cycles_observed"] == (
            WARMUP + result.num_cycles
        ), i
        assert _flight_values(result) == _flight_values(oracle), i


def test_ring_growth_inside_spans(monkeypatch):
    """Pipeline rings that start one entry deep grow inside spans (the
    span finishes the cycle's decide stage and resumes) and change no
    byte, flight dumps included."""
    build, recorded = _SPAN_BATCHES["flight"]
    alloc, grow, span = (
        ControllerBank._alloc_ring, ControllerBank._grow, CycleKernel.span
    )
    in_span, grown = [], []

    def shallow(self, cap):
        if cap == self._cap:  # the first layout, not a growth
            cap = self._cap = 1
        alloc(self, cap)

    def logged_grow(self):
        grown.append(bool(in_span))
        grow(self)

    def spanning(self, start, stop):
        in_span.append(start)
        try:
            return span(self, start, stop)
        finally:
            in_span.pop()

    with monkeypatch.context() as m:
        m.setattr(ControllerBank, "_alloc_ring", shallow)
        m.setattr(ControllerBank, "_grow", logged_grow)
        m.setattr(CycleKernel, "span", spanning)
        results = _span_run(build(), recorded)
    assert any(grown), "no ring grew inside a span"
    for i, (a, b) in enumerate(zip(results,
                                   _span_references("flight")["uncapped"])):
        _same(a, b, f"lane {i} vs deep rings")
        assert _flight_bytes(a) == _flight_bytes(b)


def test_suspect_inside_a_span_quarantines_the_lane(monkeypatch):
    """A divergence that arises inside a span, not on a chaos cycle: a
    relaunch run by cosim_span poisons lane 1's solver state, the span
    stops at the suspect cycle, the guard quarantines the lane there,
    and the survivors stay byte-equal to their solo runs."""
    def build():
        return [
            CosimLane("hotspot", _cfg(3)),
            CosimLane(config=_cfg(5, **ACTIVE), kernel=SHORT),
            CosimLane("srad", _cfg(7, **ACTIVE)),
        ]

    solvers, poisoned, spans = [], [], []
    solver_init, relaunch, span = (
        TransientSolver.__init__, GPUBatch.relaunch, CycleKernel.span
    )

    def solver_new(self, *args, **kwargs):
        solver_init(self, *args, **kwargs)
        solvers.append(self)

    def poison(self):
        fused = self.fused()
        if not poisoned and fused.clock[0] >= 150 and fused.relaunch[1]:
            poisoned.append(int(fused.clock[0]))
            solvers[1]._react_v[:] = np.nan
        relaunch(self)

    def span_logged(self, start, stop):
        spans.append(span(self, start, stop))
        return spans[-1]

    with monkeypatch.context() as m:
        m.setattr(TransientSolver, "__init__", solver_new)
        m.setattr(GPUBatch, "relaunch", poison)
        m.setattr(CycleKernel, "span", span_logged)
        fused = run_cosim_batch(build())
    assert poisoned, "lane 1 did not relaunch inside the window"
    assert (SUSPECT, poisoned[0]) in spans
    assert fused[1].diverged and fused[1].num_cycles == poisoned[0] - WARMUP
    assert fused[1].divergence["lane"] == 1
    assert not fused[0].diverged and not fused[2].diverged
    for i in (0, 2):
        _same(fused[i], run_cosim_batch([build()[i]])[0], f"lane {i} vs solo")


SENSING = (SensorNoise, SensorQuantization, SensorStuck, SensorDropout,
           ControlLoopJitter)


def _faulted_lanes(cycles, warmup, faults=True):
    """The ``b8_active_faulted`` recipe (``faults=False``: its clean
    twin): an acting controller with DCC on, and the four canned fault
    schedules on lanes 0/2/4/6."""
    scenarios = list(CANNED_SCENARIOS.values())
    return [
        CosimLane(BENCHMARK_NAMES[i], CosimConfig(
            cycles=cycles, warmup_cycles=warmup, seed=point_seed(1, i),
            faults=scenarios[i // 2]() if faults and i % 2 == 0 else None,
            **ACTIVE,
        ))
        for i in range(8)
    ]


DRAWS = ("corrupt_sensors", "observation_allowed", "extra_latency")


def test_faulted_recipe_runs_hooks_only_on_edges(monkeypatch):
    """The ``b8_active_faulted`` recipe, long enough to cross every
    canned window: no ControllerBank.observe, scale_powers, injector
    draw or commands_for call (the oracle and a standalone controller
    make each of them, so the gate can see them), the circuit, DFS and
    halt hooks once per edge cycle at most, and kernel calls that tile
    the run once, in order — a span between events, one call on an
    edge cycle, two on one with circuit or DFS hooks: at most three per
    event, plus one."""
    cycles, warmup = 900, 60
    lanes = _faulted_lanes(cycles, warmup)
    covers, hooks, banned = [], [], []
    run, span = CycleKernel.run, CycleKernel.span

    def run_logged(self, cycle, first=STAGE_GPU, *stages):
        covers.append([cycle] if first == STAGE_GPU else [])
        return run(self, cycle, first, *stages)

    def span_logged(self, start, stop):
        status, at = span(self, start, stop)
        covers.append(list(range(start, at + 1 if status else at)))
        return status, at

    monkeypatch.setattr(CycleKernel, "run", run_logged)
    monkeypatch.setattr(CycleKernel, "span", span_logged)
    for name in ("apply_circuit_faults", "frequency_scales", "halted_sms"):
        _log_calls(monkeypatch, FaultInjector, name, hooks,
                   lambda self, cycle, name=name:
                   (name, self.schedule.name, cycle))
    for owner, names in ((ControllerBank, ("observe",)),
                         (FaultInjector, ("scale_powers",) + DRAWS),
                         (VoltageSmoothingController, ("commands_for",))):
        for name in names:
            _log_calls(monkeypatch, owner, name, banned,
                       lambda self, *args, name=name: name)
    run_cosim_batch(lanes)
    assert banned == []

    schedules = [ln.config.faults for ln in lanes if ln.config.faults]
    edges = {
        s.name: {-warmup} | {
            c for e in s.events for c in (e.start_cycle, e.end_cycle)
            if -warmup <= c < cycles
        }
        for s in schedules
    }
    for name in ("apply_circuit_faults", "frequency_scales", "halted_sms"):
        assert any(h[0] == name for h in hooks), name
    seen = Counter(hooks)
    for (name, lane, cycle), count in seen.items():
        assert count == 1 and cycle in edges[lane], (name, lane, cycle)

    assert [c for cover in covers for c in cover] == list(
        range(cycles + warmup)
    )
    events = {warmup}.union(
        c + warmup for lane_edges in edges.values() for c in lane_edges
    )
    assert len(covers) <= 3 * len(events) + 1, covers

    covers.clear()
    _oracle(_faulted_lanes(160, 20)[0])
    controller = VoltageSmoothingController(StackConfig())
    controller.observe(0, np.ones(16))
    controller.commands_for(0)
    assert covers == []
    assert set(banned) == {"observe", "scale_powers", "commands_for"}.union(
        DRAWS
    ), set(banned)


def _frame_local(function, name):
    """Local ``name`` of the innermost running ``function``."""
    frame = sys._getframe()
    while frame.f_code.co_name != function:
        frame = frame.f_back
    return frame.f_locals[name]


def _log_setters(monkeypatch, log):
    for name in ("set_issue_widths", "set_fake_rates"):
        _log_calls(monkeypatch, GPU, name, log,
                   lambda self, values, name=name: (
                       self.kernel.name, name,
                       np.asarray(values, dtype=float).tobytes(),
                   ))


def _decision_traffic(monkeypatch, lanes):
    """The kernel batch's run in spans of one cycle: its Python entries
    into the decision wave, its GPU setter calls (lane's benchmark,
    setter, argument bytes) in call order, the lanes' actuation state —
    each engine's issue width and fake rate bytes and its row of the
    loop's DCC block — at the top of every cycle, the results and each
    controller's end state."""
    entries, setters, states, gpus, ctrls = [], [], [], [], []
    gpu_init, span = GPU.__init__, CycleKernel.span

    def gpu_new(self, *args, **kwargs):
        gpu_init(self, *args, **kwargs)
        gpus.append(self)

    def actuation():
        dcc = _frame_local("_simulate", "dcc_bt")
        return [(g.engine.issue_width.tobytes(), g.engine.fake_rate.tobytes(),
                 dcc[i].tobytes()) for i, g in enumerate(gpus)]

    def top_of_cycle(self, *args):
        if len(args) < 2 or args[1] == STAGE_GPU:
            states.append(actuation())

    def span_one(self, start, stop):
        states.append(actuation())
        return span(self, start, start + 1)

    with monkeypatch.context() as m:
        m.setattr(GPU, "__init__", gpu_new)
        _collecting(m, VoltageSmoothingController, ctrls)
        _log_calls(m, ControllerBank, "_decide_due", entries,
                   lambda self, cycle, *args: cycle)
        _log_setters(m, setters)
        _log_calls(m, CycleKernel, "run", [], top_of_cycle)
        m.setattr(CycleKernel, "span", span_one)
        results = run_cosim_batch(lanes)
    return entries, setters, states, results, ctrls


def _oracle_traffic(monkeypatch, lane):
    """The oracle's run of ``lane``: its GPU setter calls, its actuation
    state at the top of every cycle (as ``_decision_traffic``), its
    result and its controller."""
    setters, states, ctrls = [], [], []

    def top_of_cycle(self):
        dcc = _frame_local("run_cosim_reference", "dcc_powers")
        states.append((self.engine.issue_width.tobytes(),
                       self.engine.fake_rate.tobytes(), dcc.tobytes()))

    with monkeypatch.context() as m:
        _collecting(m, ScalarController, ctrls)
        _log_setters(m, setters)
        _log_calls(m, GPU, "step", [], top_of_cycle)
        result = _oracle(lane)
    return setters, states, result, ctrls[0]


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
def test_decisions_run_in_the_kernel(monkeypatch, faults):
    """A clean B=8 batch with an acting controller and the
    ``b8_active_faulted`` recipe (shortened): every wave and pop runs
    compiled — Python never enters the wave — and the kernel applies
    every lane's new decisions itself.  At the top of every cycle each
    lane's engine widths and fake rates and its DCC row equal the
    oracle's, whose setters run every cycle; every setter call left to
    Python (halt edges) is one the oracle makes, in order; and each
    controller ends in its oracle ScalarController's state, counting the
    same applied decisions."""
    lanes = _faulted_lanes(500, 60, faults=faults)
    entries, setters, states, fused, ctrls = _decision_traffic(
        monkeypatch, lanes
    )
    assert entries == []
    assert len(states) == 560
    applied = [c.stats()["actuations_applied"] for c in ctrls]
    assert sum(applied) > len(lanes), "the acting recipe applies decisions"
    for i, lane in enumerate(lanes):
        tag = f"lane {i}"
        (oracle_setters, oracle_states, oracle,
         ref) = _oracle_traffic(monkeypatch, lane)
        assert [cycle[i] for cycle in states] == oracle_states, tag
        assert _controller_state(ctrls[i]) == _controller_state(ref), tag
        mine = [call for call in setters if call[0] == lane.benchmark]
        remaining = iter(oracle_setters)
        assert all(call in remaining for call in mine), f"{tag}: setters"
        assert len(mine) < len(oracle_setters), tag
        _same(fused[i], oracle, f"{tag} vs oracle")


# ---------------------------------------------------------------------------
# The kernel's fault draws
# ---------------------------------------------------------------------------
DRAW_CYCLES = 48
_DRAW_MARKS = (0, 5, 12, 20, 31, 40, DRAW_CYCLES)
# Target SMs: every SM, or a list that may name one twice.
_SMS = st.one_of(st.none(), st.lists(st.integers(0, 15), min_size=1,
                                     max_size=6).map(tuple))


@st.composite
def _draw_window(draw):
    start = draw(st.sampled_from(_DRAW_MARKS[:-1]))
    end = draw(st.sampled_from([m for m in _DRAW_MARKS if m > start]
                               + [FOREVER]))
    return {"start_cycle": start, "end_cycle": end}


_SENSOR = st.one_of(
    st.builds(lambda w, sigma, sms: SensorNoise(sigma_v=sigma, sms=sms, **w),
              _draw_window(), st.sampled_from((0.0, 0.004, 0.03)), _SMS),
    st.builds(lambda w, step, sms: SensorQuantization(step_v=step, sms=sms,
                                                      **w),
              _draw_window(), st.sampled_from((0.01, 0.07)), _SMS),
    st.builds(lambda w, value, sms: SensorStuck(value_v=value,
                                                sms=sms or (3,), **w),
              _draw_window(), st.sampled_from((0.7, 1.0)), _SMS),
    st.builds(lambda w, p, sms: SensorDropout(probability=p, sms=sms, **w),
              _draw_window(), st.sampled_from((0.0, 0.3, 1.0)), _SMS),
)
_JITTER = st.builds(
    lambda w, pn: ControlLoopJitter(drop_probability=pn[0],
                                    extra_latency_cycles=pn[1], **w),
    _draw_window(), st.sampled_from([
        (p, n) for p in (0.0, 0.2, 0.7) for n in (0, 3, 8) if p or n
    ]),
)


def _kernel_draws(schedule, volts):
    """Run the kernel's filter stage alone, cycle by cycle, on bank row 0
    (``schedule``'s injector) beside a row without faults.  Returns the
    injector and, per cycle, the row the row-0 detectors saw (None: the
    SM voltages), whether it observed, and its extra latency."""
    stack = StackConfig()
    S = stack.num_sms
    inj = FaultInjector(schedule, stack)
    table = FaultTable([inj, None])
    bank = ControllerBank([VoltageSmoothingController(stack) for _ in "ab"])
    bank._scal[_S_NEXT_DUE] = 1 << 62  # the filter alone: no wave
    # Active ids 0 count as applied: no apply stage, no engines.
    bank._ints[:, _I_APPLIED_ID] = 0
    blocks = {name: np.zeros((2, S)) for name in ("volts", "seen",
                                                   "measured")}
    flags = {"observed": np.ones(2, dtype=bool),
             "apply": np.zeros(2, dtype=bool)}
    ints = {"bank_rows": np.arange(2, dtype=np.int64)}
    state = CCycleState(
        n_lanes=2, num_sms=S, bank_lanes=2,
        bank=ctypes.addressof(bank._bind_c()), warmup=1 << 62,
        **{name: arr.ctypes.data
           for arr_map in (blocks, flags, ints)
           for name, arr in arr_map.items()},
        **table.fields(),
    )
    out = []
    for cycle, v in enumerate(volts):
        blocks["volts"][:] = v
        state.faulted = table.refresh(cycle)
        table.reapply[:] = False  # no apply stage, no engines
        assert native.load().cosim_cycle(
            ctypes.byref(state), cycle, STAGE_FILTER, STAGE_FILTER
        ) == 0
        assert flags["observed"][1] and table.extra[1] == 0
        sensor_on = any(
            e.active(cycle) for e, _ in inj.sensing_events()
            if not isinstance(e, ControlLoopJitter)
        )
        out.append((blocks["seen"][0].tobytes() if sensor_on else None,
                    bool(flags["observed"][0]), int(table.extra[0])))
    table.fold()
    return inj, out


@settings(max_examples=40, deadline=None)
@example(
    # Every kind on SMs listed twice (noise keeps only its last draw on
    # an SM), windows overlapping, two jitter events: both drop.
    sensors=[SensorNoise(sigma_v=0.03, sms=(2, 5, 2), end_cycle=31),
             SensorQuantization(step_v=0.07, sms=(5, 5), start_cycle=5),
             SensorStuck(value_v=0.7, sms=(9, 9), start_cycle=12),
             SensorDropout(probability=0.3, sms=(1, 4, 1))],
    jitters=[ControlLoopJitter(drop_probability=0.2,
                               extra_latency_cycles=3),
             ControlLoopJitter(drop_probability=0.7, extra_latency_cycles=8,
                               start_cycle=5, end_cycle=40)],
    order=random.Random(3), seed=21,
)
@given(
    sensors=st.lists(_SENSOR, max_size=4),
    jitters=st.lists(_JITTER, min_size=1, max_size=2),
    order=st.randoms(use_true_random=False),
    seed=st.integers(0, 2**16),
)
def test_kernel_draws_equal_the_injector_on_a_twin(sensors, jitters, order,
                                                    seed):
    """Random mixes of the four sensor kinds and one or two jitter events,
    windows overlapping: the kernel's seen rows (bytes, NaN positions
    included), observed flags, extra latencies and counters, and its
    generator's final state, equal corrupt_sensors, observation_allowed
    and extra_latency on a twin injector with the same seed."""
    events = sensors + jitters
    order.shuffle(events)
    schedule = FaultSchedule(events=tuple(events), seed=seed)
    volts = np.random.default_rng(seed).normal(1.0, 0.05, (DRAW_CYCLES, 16))
    inj, drawn = _kernel_draws(schedule, volts)
    twin = FaultInjector(schedule, StackConfig())
    for cycle, (v, (seen, observed, extra)) in enumerate(zip(volts, drawn)):
        expected = twin.corrupt_sensors(cycle, v)
        assert seen == (None if expected is v else expected.tobytes()), cycle
        assert observed == twin.observation_allowed(cycle), cycle
        assert extra == twin.extra_latency(cycle), cycle
    assert inj.counters == twin.counters
    assert inj.rng.bit_generator.state == twin.rng.bit_generator.state
