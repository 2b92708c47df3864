"""One PDN topology per ``run_cosim_batch`` call, forked per lane.

A call's lanes share their CR-IVR area, substeps and PDN parameters, so
the call builds one netlist, one solver (MNA assembly and LU) and one DC
operating point, and every lane whose netlist never changes forks its
own solver from them; a lane whose faults edit element values builds
its own.  Each lane must stay byte-equal to its solo run whatever its
neighbours do to their solvers: a refactorizing fault, a guard recovery
that halves the step size (``set_dt``), a quarantine that rebinds the
survivors' current sources (``rebind_sources``).
"""

import json

import numpy as np

from repro.circuits import TransientSolver
from repro.faults import chaos
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.events import FaultSchedule, ProcessVariation
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim import cosim
from repro.sim.cosim import LANE_GROUP, CosimConfig, CosimLane, run_cosim_batch
from repro.telemetry import Telemetry
from repro.telemetry.flight import FlightRecorder
from tests.sim.test_cosim_batch import _assert_result_bytes_equal

CYCLES = 400  # past pdn-aging's drift at 300
WARMUP = 30
AGING, GAINS, POISONED = 1, 4, 6
GAINS_AT = 150  # the cycle lane GAINS's companion gains go NaN
POISON_AT = 200  # the cycle lane POISONED's reactive state goes NaN


def _cfg(seed, faults=None):
    return CosimConfig(
        cycles=CYCLES, warmup_cycles=WARMUP, seed=seed, faults=faults
    )


def _nine_lanes():
    """Two lane groups (0-3 and 4-8): clean lanes around a pdn-aging
    lane (its drift refactors its own netlist mid-run), a lane whose
    guard recovers through set_dt, and a lane the chaos harness
    poisons and the guard quarantines."""
    names = ("hotspot", "bfs", "srad", "backprop", "heartwall",
             "pathfinder", "hotspot", "blackscholes", "bfs")
    lanes = [CosimLane(name, _cfg(11 + i)) for i, name in enumerate(names)]
    lanes[AGING] = CosimLane(
        "bfs", _cfg(12, faults=CANNED_SCENARIOS["pdn-aging"]())
    )
    # Process variation from GAINS_AT makes that cycle one of the lane's
    # circuit-hook edges (it edits no netlist: the lane forks).
    lanes[GAINS] = CosimLane("heartwall", _cfg(15, faults=FaultSchedule(
        name="gain-poison", seed=3,
        events=(ProcessVariation(start_cycle=GAINS_AT, sigma=0.02),),
    )))
    return lanes


def _recorder():
    return FlightRecorder(
        num_sms=16, guardband_v=0.8, pre_cycles=8, post_cycles=8,
        max_window_cycles=48, cycle_offset=-WARMUP,
    )


def _poison(lane):
    return ChaosPlan("shared-topology", [ChaosEvent(
        "cosim_cycle", "nan_poison", at=POISON_AT, lane=lane, once=False,
    )])


def _flight_bytes(result):
    recorder = result.flight
    return json.dumps(recorder.summary()), json.dumps(
        [dump.to_dict() for dump in recorder.dumps]
    )


def _run(lanes, monkeypatch, telemetry=None):
    """``run_cosim_batch`` with a recorder per lane, counting netlist
    builds and DC solves; lane GAINS's circuit hook poisons its
    companion gains at GAINS_AT, which only halving the step size
    (set_dt restamps them) recovers."""
    counts = {"build_stacked_pdn": 0, "initialize_dc": 0}
    build, init_dc = cosim.build_stacked_pdn, TransientSolver.initialize_dc
    apply = FaultInjector.apply_circuit_faults

    def counted_build(*args, **kwargs):
        counts["build_stacked_pdn"] += 1
        return build(*args, **kwargs)

    def counted_dc(self, *args, **kwargs):
        counts["initialize_dc"] += 1
        return init_dc(self, *args, **kwargs)

    def poison_gains(self, cycle):
        if self.schedule.name == "gain-poison" and cycle == GAINS_AT:
            self.solver._react_g[:] = np.nan
        return apply(self, cycle)

    with monkeypatch.context() as m:
        m.setattr(cosim, "build_stacked_pdn", counted_build)
        m.setattr(TransientSolver, "initialize_dc", counted_dc)
        m.setattr(FaultInjector, "apply_circuit_faults", poison_gains)
        results = run_cosim_batch(
            lanes, telemetry=telemetry,
            flights=[_recorder() for _ in lanes],
        )
    return results, counts


def test_lanes_equal_their_solo_runs_around_a_shared_topology(
    monkeypatch, chaos_plan
):
    lanes = _nine_lanes()
    assert LANE_GROUP < len(lanes) <= 2 * LANE_GROUP
    chaos_plan(_poison(POISONED))
    tele = Telemetry(run_id="shared-topology")
    batch, counts = _run(lanes, monkeypatch, telemetry=tele)

    # One netlist and operating point for the call's topology, built by
    # its first group and forked by both, plus the aging lane's own.
    assert counts == {"build_stacked_pdn": 2, "initialize_dc": 2}
    assert batch[AGING].fault_report["counters"]["refactorizations"] >= 1
    assert tele.counters.get("guard_dt_halving_recoveries") == 1
    assert tele.counters.get("guard_refactor_recoveries", 0) == 0
    assert tele.counters.get("lanes_quarantined") == 1
    assert [r.diverged for r in batch] == [
        i == POISONED for i in range(len(lanes))
    ]
    assert batch[POISONED].divergence["lane"] == POISONED

    for i, lane in enumerate(lanes):
        if i == POISONED:
            chaos_plan(_poison(0))
        else:
            chaos.deactivate()
        (solo,), solo_counts = _run([lane], monkeypatch)
        assert solo_counts == {"build_stacked_pdn": 1, "initialize_dc": 1}
        got, want = batch[i], solo
        if i == POISONED:
            # The verdict names the lane by its index in its call; as
            # JSON, so its NaN forensics compare equal.
            assert json.dumps(dict(got.divergence, lane=0), sort_keys=True) \
                == json.dumps(want.divergence, sort_keys=True)
            got.divergence = want.divergence = None
        _assert_result_bytes_equal(got, want, f"lane {i}")
        assert _flight_bytes(got) == _flight_bytes(want), f"lane {i}"
