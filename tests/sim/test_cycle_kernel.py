"""The compiled co-sim cycle kernel against the phased NumPy body.

A batch whose lanes all step on the C engine and the C solver runs each
clean co-sim cycle as one call into ``repro/sim/_cyclec.c``.  Forcing a
NumPy backend (``REPRO_SOLVER_BACKEND=numpy`` or
``REPRO_GPU_BACKEND=numpy``) runs the loop's phased NumPy body instead.
The two must be byte-equal on every :class:`CosimResult` field, and equal
to the serial oracle, through same-cycle relaunches, barrier-exempt
shutoffs, a lane quarantine, circuit- and sensor-fault lanes and flight
recorders.  The lanes' deferred mirrors (GPU cycle, memory-queue
counters, solver time and step count) must read the same from a fault
hook and after the run.
"""

import json

import numpy as np
import pytest

from repro.circuits import TransientSolver
from repro.circuits._solverc import load_solver_lib
from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig, VoltageSmoothingController
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu import GPU, KernelSpec
from repro.gpu._cbuild import load_engine_lib
from repro.gpu.isa import InstructionClass
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    LayerShutoffEvent,
    last_batch_solver_info,
    run_cosim_batch,
)
from repro.sim._cyclec import load_cycle_lib
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder
from tests.oracles.serial_cosim import run_cosim_reference
from tests.sim.test_cosim_batch import _assert_result_bytes_equal

CYCLES = 260
WARMUP = 40
TOTAL = CYCLES + WARMUP
PHASED = {
    "numpy-solver": ("REPRO_SOLVER_BACKEND", "numpy"),
    "numpy-gpu": ("REPRO_GPU_BACKEND", "numpy"),
}

pytestmark = pytest.mark.skipif(
    load_cycle_lib() is None or load_engine_lib() is None
    or load_solver_lib() is None,
    reason="compiled kernels unavailable",
)

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


def _run(build, monkeypatch, env=None, controllers=None, **kwargs):
    """One batch run; returns (results, last_batch_solver_info()).

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
        if env is not None:
            m.setenv(*env)
        results = run_cosim_batch(build(), **kwargs)
        info = last_batch_solver_info()
    if controllers is not None:
        controllers.extend(
            (c._filter_state.tobytes(), c._last_good.tobytes(), c.stats())
            for c in made
        )
    return results, info


def _check(build, monkeypatch, oracle=True, **kwargs):
    """Fused == each phased body (== oracle), byte for byte; returns the
    fused results."""
    ctrl = []
    fused, info = _run(build, monkeypatch, controllers=ctrl, **kwargs)
    assert info["fused_cycles"] == TOTAL, "the batch left the cycle kernel"
    for name, env in PHASED.items():
        phased_ctrl = []
        phased, pinfo = _run(
            build, monkeypatch, env, controllers=phased_ctrl, **kwargs
        )
        assert pinfo["fused_cycles"] == 0, name
        for i, (a, b) in enumerate(zip(fused, phased)):
            _same(a, b, f"lane {i} fused vs {name}")
        for i, (a, b) in enumerate(zip(ctrl, phased_ctrl)):
            assert a == b, f"controller {i}: filter/stats, fused vs {name}"
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
    def build():
        return [
            CosimLane("hotspot", _cfg(2, faults=CANNED_SCENARIOS[scenario](),
                                      **ACTIVE)),
            CosimLane("bfs", _cfg(4, **ACTIVE)),
            CosimLane("backprop", _cfg(6)),
        ]

    _check(build, monkeypatch)


def test_sensor_fault_lanes_keep_the_python_filter(monkeypatch):
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

    def run(env=None):
        results, info = _run(
            build, monkeypatch, env, flights=[_recorder(), _recorder()]
        )
        return results, info["fused_cycles"]

    fused, fused_cycles = run()
    assert fused_cycles == TOTAL
    assert any(r.flight.dumps for r in fused)
    for name, env in PHASED.items():
        phased, _ = run(env)
        for i, (a, b) in enumerate(zip(fused, phased)):
            _same(a, b, f"lane {i} fused vs {name}")
            assert a.flight.summary() == b.flight.summary(), name
            assert windows(a) == windows(b), name


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
def _mirror_runs(monkeypatch, build, env=None, oracle=False):
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
        if env is not None:
            m.setenv(*env)
        if oracle:
            for lane in build():
                _oracle(lane)
        else:
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
    assert len(reads) == 2 * TOTAL
    for name, env in PHASED.items():
        assert _mirror_runs(monkeypatch, build, env) == (reads, final), name
    oracle_reads, oracle_final = _mirror_runs(
        monkeypatch, build, oracle=True
    )
    # The oracle calls the hook on its own lanes one run at a time.
    assert sorted(oracle_reads, key=lambda r: r[0]) == sorted(
        reads, key=lambda r: r[0]
    )
    assert oracle_final == final
    # The reads cover real traffic, not idle mirrors.
    assert final[0][1] > 0 and final[0][5] == 2 * TOTAL
