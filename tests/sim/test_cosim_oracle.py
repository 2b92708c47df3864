"""``run_cosim`` against the serial oracle loop, byte for byte.

``run_cosim`` steps the shared batched loop with one lane; the loop it
replaced lives on as ``tests/oracles/serial_cosim.run_cosim_reference``.
Every case below runs both on the same inputs and requires every
:class:`CosimResult` field — waveforms, counters, kernel durations, the
fault report, the divergence verdict and any flight recording — and,
where telemetry is on, every channel, counter, metric and manifest
section to match exactly.
"""

import json

import pytest

from repro.core.actuators import WeightedActuation
from repro.core.controller import ControllerConfig
from repro.core.prior_art import GlobalThrottleController
from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu.isa import InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.sim.cosim import CosimConfig, LayerShutoffEvent, run_cosim
from repro.telemetry import Telemetry, to_jsonable
from repro.telemetry.flight import FlightRecorder
from repro.workloads.benchmarks import BENCHMARK_NAMES
from tests.oracles.serial_cosim import run_cosim_reference

CYCLES = 400
WARMUP = 60

CUSTOM_KERNEL = KernelSpec(
    "oracle_custom",
    mix={InstructionClass.FALU: 0.6, InstructionClass.LOAD: 0.4},
    dependence=0.3,
    warps_per_sm=6,
    body_length=90,
)


def _config(**kw):
    base = dict(cycles=CYCLES, warmup_cycles=WARMUP, seed=5)
    base.update(kw)
    return CosimConfig(**base)


def _canonical(value) -> str:
    return json.dumps(to_jsonable(value))


def assert_identical(new, ref, label=""):
    """Byte-equality of every CosimResult field."""
    for name in ("sm_voltages", "supply_current", "kernel_durations"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{label}: {name}"
        assert a.tobytes() == b.tobytes(), f"{label}: {name} differs"
    assert new.power_trace.data.tobytes() == ref.power_trace.data.tobytes()
    assert new.power_trace.frequency_hz == ref.power_trace.frequency_hz
    assert new.power_trace.name == ref.power_trace.name
    for name in (
        "benchmark", "stack", "instructions", "fake_instructions",
        "throttled_cycles", "controller_power_w", "kernels_completed",
        "mean_dcc_power_w",
    ):
        assert getattr(new, name) == getattr(ref, name), f"{label}: {name}"
    # Verdict dicts may carry NaN forensics: compare their JSON (key
    # order included, as a manifest would serialize them).
    for name in ("fault_report", "divergence"):
        assert _canonical(getattr(new, name)) == _canonical(
            getattr(ref, name)
        ), f"{label}: {name}"
    assert (new.flight is None) == (ref.flight is None), label
    if new.flight is not None:
        assert new.flight.summary() == ref.flight.summary(), label
        assert [_dump_view(d) for d in new.flight.dumps] == [
            _dump_view(d) for d in ref.flight.dumps
        ], label


def _dump_view(dump):
    """A flight dump with each cycle's commanded actuation by value.

    Dumps share an actuation table entry per decision *object*; the
    banked controller re-enqueues one object through idle stretches
    where the scalar controller builds equal copies, so the tables
    differ in layout while every cycle's commanded values agree.
    """
    d = dump.to_dict()
    table = d.pop("actuations")
    d["actuation"] = [
        None if i is None else table[i] for i in d.pop("actuation_id")
    ]
    return _canonical(d)


def _poison(at, lane=None):
    return ChaosPlan("oracle", [
        ChaosEvent("cosim_cycle", "nan_poison", at=at, lane=lane, once=False)
    ])


# Each case: (inputs factory, chaos plan or None).  Factories, because
# controller objects are stateful and each leg needs a fresh one.
CASES = {
    **{
        f"bench-{name}": (lambda name=name: dict(
            benchmark=name, config=_config()), None)
        for name in BENCHMARK_NAMES
    },
    **{
        f"faults-{name}": (lambda name=name: dict(
            benchmark="hotspot",
            config=_config(cycles=900, warmup_cycles=100,
                           faults=CANNED_SCENARIOS[name]())), None)
        for name in sorted(CANNED_SCENARIOS)
    },
    "shutoff-controller-dcc": (lambda: dict(
        benchmark="heartwall",
        config=_config(
            shutoff=LayerShutoffEvent(layer=3, start_cycle=50),
            actuation=WeightedActuation(w1=1.0, w2=1.0, w3=1.0),
        )), None),
    "shutoff-no-controller": (lambda: dict(
        benchmark="heartwall",
        config=_config(
            shutoff=LayerShutoffEvent(layer=2, start_cycle=20, end_cycle=200),
            use_controller=False,
        )), None),
    "triggering-controller": (lambda: dict(
        benchmark="heartwall",
        config=_config(
            cr_ivr_area_mm2=52.9,
            controller=ControllerConfig(
                v_threshold=0.98, v_high_threshold=1.0, k1=15.0
            ),
        )), None),
    "global-throttle-object": (lambda: dict(
        benchmark="hotspot",
        config=_config(
            controller_object=GlobalThrottleController(
                v_threshold=0.97, hold_cycles=40, latency_cycles=10,
            ),
            shutoff=LayerShutoffEvent(layer=3, start_cycle=100),
        )), None),
    "per-object-gpu": (lambda: dict(
        benchmark="srad", config=_config()), None),
    "no-solver-guard": (lambda: dict(
        benchmark="bfs", config=_config(solver_guard=False)), None),
    "custom-kernel": (lambda: dict(
        benchmark="ignored", config=_config(), kernel=CUSTOM_KERNEL), None),
    "nan-poisoned": (lambda: dict(
        benchmark="hotspot", config=_config()), _poison(at=25)),
    "nan-poisoned-in-warmup": (lambda: dict(
        benchmark="bfs", config=_config()), _poison(at=-10)),
    "lane-targeted-poison-ignored": (lambda: dict(
        benchmark="hotspot", config=_config()), _poison(at=25, lane=0)),
}


# Arguments only the oracle takes: the shipped loop has one GPU engine,
# the oracle can run the per-object reference instead.
ORACLE_ARGS = {"per-object-gpu": dict(per_object_gpu=True)}


# What the less ordinary cases must reach, so the matrix cannot pass
# by comparing two runs that never took the path a case names.
REACHES = {
    "shutoff-controller-dcc": lambda r: (
        r.mean_dcc_power_w > 0 and r.fake_instructions > 0
    ),
    "triggering-controller": lambda r: r.throttled_cycles > 0,
    "global-throttle-object": lambda r: r.throttled_cycles > 0,
    "nan-poisoned": lambda r: (
        r.diverged and r.num_cycles == 25 and "lane" not in r.divergence
    ),
    "nan-poisoned-in-warmup": lambda r: r.diverged and r.num_cycles == 0,
    "lane-targeted-poison-ignored": lambda r: not r.diverged,
    **{
        f"faults-{name}": (lambda r: r.fault_report is not None)
        for name in CANNED_SCENARIOS
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_cosim_matches_serial_oracle(case, chaos_plan):
    make, plan = CASES[case]
    results = []
    for run, extra in ((run_cosim, {}),
                       (run_cosim_reference, ORACLE_ARGS.get(case, {}))):
        if plan is not None:
            chaos_plan(plan)
        results.append(run(**make(), **extra))
    new, ref = results
    assert_identical(new, ref, case)
    reach = REACHES.get(case)
    if reach is not None:
        assert reach(new), f"{case} did not reach the path it names"


def _manifest_view(tele):
    """Everything a manifest carries except wall-clock times."""
    return _canonical({
        "channels": {n: c.to_dict() for n, c in tele.channels.items()},
        "counters": tele.counters,
        "metrics": tele.metrics,
        "sections": tele.sections,
        "events": [
            {k: v for k, v in e.items() if k != "t_s"} for e in tele.events
        ],
    })


@pytest.mark.parametrize(
    "case", ["bench-hotspot", "faults-guardband-breaker",
             "faults-scheduler-storm", "shutoff-controller-dcc",
             "nan-poisoned"]
)
def test_telemetry_matches_serial_oracle(case, chaos_plan):
    teles = [Telemetry(run_id="oracle"), Telemetry(run_id="oracle")]
    make, plan = CASES[case]
    results = []
    for run, tele in zip((run_cosim, run_cosim_reference), teles):
        if plan is not None:
            chaos_plan(plan)
        results.append(run(**make(), telemetry=tele))
    assert_identical(*results, label=case)
    new, ref = teles
    assert _manifest_view(new) == _manifest_view(ref)
    assert set(new.timings) == set(ref.timings)


def test_explicit_flight_recorder_matches_serial_oracle(chaos_plan):
    make, _ = CASES["faults-guardband-breaker"]
    results = []
    for run in (run_cosim, run_cosim_reference):
        inputs = make()
        recorder = FlightRecorder(
            num_sms=16, guardband_v=0.8,
            cycle_offset=-inputs["config"].warmup_cycles,
        )
        results.append(run(**inputs, flight=recorder))
    assert results[0].flight.onsets > 0
    assert_identical(*results, label="flight")
