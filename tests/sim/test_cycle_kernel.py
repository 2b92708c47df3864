"""The compiled co-sim cycle kernel against the phased NumPy body.

With the native library loaded, a batch runs each clean co-sim cycle as
one call into ``repro/sim/_cyclec.c``.  Forcing the library's fallback
(``forced_fallback``) runs the loop's phased NumPy body instead, on the
NumPy GPU engine and solver.  The two must be byte-equal on every
:class:`CosimResult` field, and equal to the serial oracle, through
same-cycle relaunches, barrier-exempt shutoffs, a lane quarantine,
circuit- and sensor-fault lanes, random edge schedules and flight
recorders.  The lanes' deferred mirrors (GPU cycle, memory-queue
counters, solver time and step count) must read the same from a fault
hook and after the run.  Call-count gates pin the edge schedule: fault
hooks run on edge cycles only, and a cycle makes a second kernel call
only on an edge with circuit or DFS hooks or a sensor cycle; the
kernel makes every decision (the NumPy wave never runs) and leaves the
loop the same GPU setter calls as the phased body.
"""

import json
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuits import TransientSolver
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)
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
from repro.gpu.isa import InstructionClass
from repro.sim._cyclec import CycleKernel
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
from tests.conftest import forced_fallback
from tests.oracles.serial_cosim import run_cosim_reference
from tests.sim.test_cosim_batch import _assert_result_bytes_equal

CYCLES = 260
WARMUP = 40
TOTAL = CYCLES + WARMUP

pytestmark = pytest.mark.native

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


def _run(build, monkeypatch, phased=False, controllers=None, **kwargs):
    """One batch run; returns (results, last_batch_solver_info()).

    ``phased`` forces the library's fallback (the phased NumPy body).
    ``controllers`` (a list) collects each stock controller's end state:
    RC filter, held measurement and statistics.
    """
    made = []
    init = VoltageSmoothingController.__init__

    def register(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    with monkeypatch.context() as m:
        m.setattr(VoltageSmoothingController, "__init__", register)
        with forced_fallback() if phased else nullcontext():
            results = run_cosim_batch(build(), **kwargs)
        info = last_batch_solver_info()
    if controllers is not None:
        controllers.extend(
            (c._filter_state.tobytes(), c._last_good.tobytes(), c.stats())
            for c in made
        )
    return results, info


def _check(build, monkeypatch, oracle=True, **kwargs):
    """Fused == the phased body (== oracle), byte for byte; returns the
    fused results."""
    ctrl = []
    fused, info = _run(build, monkeypatch, controllers=ctrl, **kwargs)
    assert info["fused_cycles"] == TOTAL, "the batch left the cycle kernel"
    phased_ctrl = []
    phased, pinfo = _run(
        build, monkeypatch, phased=True, controllers=phased_ctrl, **kwargs
    )
    assert pinfo["fused_cycles"] == 0
    for i, (a, b) in enumerate(zip(fused, phased)):
        _same(a, b, f"lane {i} fused vs phased")
    for i, (a, b) in enumerate(zip(ctrl, phased_ctrl)):
        assert a == b, f"controller {i}: filter/stats, fused vs phased"
    if oracle:
        for i, lane in enumerate(build()):
            _same(fused[i], _oracle(lane), f"lane {i} vs oracle")
    return fused


def _oracle(lane):
    return run_cosim_reference(
        lane.benchmark, config=lane.config, kernel=lane.kernel
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
    compacted — and every later cycle still runs through the kernel."""
    chaos_plan(ChaosPlan("kernel-quarantine", [ChaosEvent(
        "cosim_cycle", "nan_poison", at=60, lane=1, once=False,
    )]))

    def build():
        return [
            CosimLane("hotspot", _cfg(3)),
            CosimLane("bfs", _cfg(5, **ACTIVE)),
            CosimLane("srad", _cfg(7, **ACTIVE)),
        ]

    fused = _check(build, monkeypatch, oracle=False)
    assert fused[1].diverged and fused[1].num_cycles == 60
    assert not fused[0].diverged and not fused[2].diverged
    for i in (0, 2):
        _same(fused[i], _oracle(build()[i]), f"lane {i} vs oracle")


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


def test_sensor_fault_lanes_keep_the_python_filter(monkeypatch):
    """Sensor-fault and jitter lanes keep their injector draws in
    Python, between a call that stops after the readout and one that
    runs the kernel's masked filter; ControllerBank.observe stays the
    phased body's filter."""
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
        scan_interval=4, cycle_offset=-WARMUP,
    )


def test_flight_recorders_ride_the_kernel(monkeypatch):
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[
                "guardband-breaker"]())),
            CosimLane("bfs", _cfg(4, **ACTIVE)),
        ]

    def windows(result):
        return json.dumps([d.to_dict() for d in result.flight.dumps])

    def run(phased=False):
        results, info = _run(
            build, monkeypatch, phased, flights=[_recorder(), _recorder()]
        )
        return results, info["fused_cycles"]

    fused, fused_cycles = run()
    assert fused_cycles == TOTAL
    assert any(r.flight.dumps for r in fused)
    phased, _ = run(phased=True)
    for i, (a, b) in enumerate(zip(fused, phased)):
        _same(a, b, f"lane {i} fused vs phased")
        assert a.flight.summary() == b.flight.summary()
        assert windows(a) == windows(b)


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
def _mirror_runs(monkeypatch, build, phased=False, oracle=False):
    """Run once, recording each circuit hook's view of its own lane and
    every lane's mirrors at the end: (hook reads, final reads)."""
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
        if oracle:
            for lane in build():
                _oracle(lane)
        else:
            with forced_fallback() if phased else nullcontext():
                run_cosim_batch(build())
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
    assert _mirror_runs(monkeypatch, build, phased=True) == (reads, final)
    oracle_reads, oracle_final = _mirror_runs(
        monkeypatch, build, oracle=True
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
    kernel batch equals its solo run, the oracle and the phased body."""
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
    with forced_fallback():
        phased = run_cosim_batch(build())
    for i, lane in enumerate(build()):
        _same(fused[i], phased[i], f"lane {i} fused vs phased")
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


def test_fig9_shaped_batch_makes_one_kernel_call_per_cycle(monkeypatch):
    """Fig. 9's layer shutoff on every lane, half cross-layer (default
    controller), half circuit-only: the halt edges stay off the kernel
    call, so every cycle is exactly one."""
    def build():
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

    calls = []
    _log_calls(monkeypatch, CycleKernel, "run", calls,
               lambda self, cycle, *stages: cycle)
    _check(build, monkeypatch)
    assert calls == list(range(TOTAL))


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


def test_faulted_recipe_runs_hooks_only_on_edges(monkeypatch):
    """The ``b8_active_faulted`` recipe, long enough to cross every
    canned window: no ControllerBank.observe or scale_powers call, the
    circuit, DFS and halt hooks once per edge cycle at most, and a
    second kernel call only on a sensor cycle (a third on an edge with
    circuit or DFS hooks)."""
    cycles, warmup = 900, 60
    lanes = _faulted_lanes(cycles, warmup)
    runs, hooks, banned = [], [], []
    _log_calls(monkeypatch, CycleKernel, "run", runs,
               lambda self, cycle, *stages: cycle)
    for name in ("apply_circuit_faults", "frequency_scales", "halted_sms"):
        _log_calls(monkeypatch, FaultInjector, name, hooks,
                   lambda self, cycle, name=name:
                   (name, self.schedule.name, cycle))
    _log_calls(monkeypatch, ControllerBank, "observe", banned,
               lambda self, *args: "observe")
    _log_calls(monkeypatch, FaultInjector, "scale_powers", banned,
               lambda self, *args: "scale_powers")
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

    hook_edges = {
        c + warmup for s in schedules
        if any(isinstance(e, (CRIVRPhaseLoss, PDNDrift, ProcessVariation,
                              DFSTransient)) for e in s.events)
        for c in edges[s.name]
    }
    calls = Counter(runs)
    for cycle in range(cycles + warmup):
        sensing = any(
            isinstance(e, SENSING) and e.active(cycle - warmup)
            for s in schedules for e in s.events
        )
        expected = 1 + (cycle in hook_edges) + sensing
        assert calls[cycle] == expected, cycle


def _decision_traffic(monkeypatch, lanes, phased):
    """One run's NumPy waves (their cycles) and GPU setter calls (lane's
    benchmark, setter, argument bytes), in call order."""
    waves, setters = [], []
    with monkeypatch.context() as m:
        _log_calls(m, ControllerBank, "_wave", waves,
                   lambda self, cycle, *args: cycle)
        for name in ("set_issue_widths", "set_fake_rates"):
            _log_calls(m, GPU, name, setters,
                       lambda self, values, name=name: (
                           self.kernel.name, name,
                           np.asarray(values, dtype=float).tobytes(),
                       ))
        with forced_fallback() if phased else nullcontext():
            run_cosim_batch(lanes)
    return waves, setters


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
def test_decisions_run_in_the_kernel(monkeypatch, faults):
    """A clean B=8 batch with an acting controller and the
    ``b8_active_faulted`` recipe (shortened): on the kernel path every
    wave and pop runs compiled — the NumPy wave is never called — and
    Python applies exactly the setter calls of the phased body, lane by
    lane, argument bytes included."""
    lanes = _faulted_lanes(500, 60, faults=faults)
    waves, setters = _decision_traffic(monkeypatch, lanes, phased=False)
    assert waves == []
    phased_waves, phased_setters = _decision_traffic(
        monkeypatch, lanes, phased=True
    )
    assert phased_waves, "the phased body decides in NumPy"
    assert len(setters) == len(phased_setters)
    assert setters == phased_setters
