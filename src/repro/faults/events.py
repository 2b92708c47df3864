"""Typed, timed fault events and the declarative :class:`FaultSchedule`.

The robustness story of the paper — the controller keeps the worst SM
above the 0.8 V guardband under the nastiest imbalance — is only
testable if the nasty scenarios can be *described*.  A schedule is a
list of typed events, each active over a half-open window of recorded
cycles (cycle 0 = end of warmup, matching
:class:`~repro.sim.cosim.LayerShutoffEvent`'s convention), spanning all
three layers of the stack:

* **circuit** — CR-IVR interleave-phase loss (reduced shuffle
  capacity), per-SM process-variation current scaling, PDN
  parasitic-resistance drift;
* **architecture** — detector corruption (noise / quantization /
  stuck-at / dropout), stuck or jammed DIWS/FII/DCC actuators,
  control-loop latency jitter and missed decisions;
* **system** — layer shutoff (the Fig. 9 worst case, generalized), SM
  power gating, mid-run DFS frequency transients.

Schedules round-trip through JSON (``FaultSchedule.from_json`` /
``to_json``) so scenarios live in version-controlled files, and carry
their own ``seed`` so stochastic faults (noise, dropout, jitter) are
reproducible independently of the workload's RNG stream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple, Type

#: Fault layers (for reporting/grouping; the injector dispatches on kind).
CIRCUIT, ARCHITECTURE, SYSTEM = "circuit", "architecture", "system"

_FOREVER = 10**9


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one fault active over ``[start_cycle, end_cycle)``.

    Cycle numbers are *recorded* cycles (0 = end of warmup); negative
    start cycles let a fault begin during warmup.
    """

    kind: ClassVar[str] = "abstract"
    layer_name: ClassVar[str] = "abstract"

    start_cycle: int = 0
    end_cycle: int = _FOREVER

    def __post_init__(self) -> None:
        if self.end_cycle <= self.start_cycle:
            raise ValueError(
                f"{type(self).__name__}: end_cycle ({self.end_cycle}) must "
                f"be after start_cycle ({self.start_cycle})"
            )

    def active(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        out.update(asdict(self))
        return out

    def describe(self) -> str:
        window = (
            f"[{self.start_cycle}, "
            + ("inf" if self.end_cycle >= _FOREVER else str(self.end_cycle))
            + ")"
        )
        return f"{self.kind} {window}"


def _check_fraction(name: str, value: float, allow_zero: bool = False) -> None:
    low_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be in {bound}, got {value}")


# ---------------------------------------------------------------------------
# Circuit-layer faults
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CRIVRPhaseLoss(FaultEvent):
    """Interleave-phase / flying-leg failure in the distributed CR-IVR.

    A dead phase removes a fraction of the charge-shuffle capacity:
    every averaged conductance stamp of the affected columns is scaled
    to ``capacity_fraction`` of its designed value while the fault is
    active (``columns=None`` hits all sub-IVRs).
    """

    kind: ClassVar[str] = "crivr_phase_loss"
    layer_name: ClassVar[str] = CIRCUIT

    capacity_fraction: float = 0.5
    columns: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction("capacity_fraction", self.capacity_fraction,
                        allow_zero=True)
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))


@dataclass(frozen=True)
class PDNDrift(FaultEvent):
    """Parasitic-resistance drift (aging / thermal) on matching elements.

    Scales the resistance of every element whose name starts with
    ``element_prefix`` (e.g. ``r_link`` for the lateral grid,
    ``r_c4`` for the bump arrays) by ``resistance_scale``.
    """

    kind: ClassVar[str] = "pdn_drift"
    layer_name: ClassVar[str] = CIRCUIT

    element_prefix: str = "r_link"
    resistance_scale: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resistance_scale <= 0:
            raise ValueError(
                f"resistance_scale must be positive, got "
                f"{self.resistance_scale}"
            )
        if not self.element_prefix:
            raise ValueError("element_prefix cannot be empty")


@dataclass(frozen=True)
class ProcessVariation(FaultEvent):
    """Per-SM process-variation current scaling.

    Each SM's power draw is multiplied by a per-SM factor: explicit
    ``scales`` (length ``num_sms``) if given, else factors drawn once
    from ``N(1, sigma)`` with the schedule's seed (clipped to stay
    positive).  Models die-to-die / within-die leakage and drive
    spread, which skews the current balance the stack depends on.
    """

    kind: ClassVar[str] = "process_variation"
    layer_name: ClassVar[str] = CIRCUIT

    sigma: float = 0.05
    scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma < 0:
            raise ValueError(f"sigma cannot be negative, got {self.sigma}")
        if self.scales is not None:
            object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
            if any(s <= 0 for s in self.scales):
                raise ValueError("explicit scales must all be positive")


# ---------------------------------------------------------------------------
# Architecture-layer faults
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SensorNoise(FaultEvent):
    """Additive Gaussian noise on the raw detector input voltage."""

    kind: ClassVar[str] = "sensor_noise"
    layer_name: ClassVar[str] = ARCHITECTURE

    sigma_v: float = 0.01
    sms: Optional[Tuple[int, ...]] = None  # None = every SM

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma_v < 0:
            raise ValueError(f"sigma_v cannot be negative, got {self.sigma_v}")
        if self.sms is not None:
            object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class SensorQuantization(FaultEvent):
    """Degraded sensor resolution: coarse re-quantization of the input."""

    kind: ClassVar[str] = "sensor_quantization"
    layer_name: ClassVar[str] = ARCHITECTURE

    step_v: float = 0.05
    sms: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step_v <= 0:
            raise ValueError(f"step_v must be positive, got {self.step_v}")
        if self.sms is not None:
            object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class SensorStuck(FaultEvent):
    """Stuck-at sensor: the affected SMs report a frozen voltage."""

    kind: ClassVar[str] = "sensor_stuck"
    layer_name: ClassVar[str] = ARCHITECTURE

    value_v: float = 1.0
    sms: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sms:
            raise ValueError("sensor_stuck needs at least one SM")
        object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class SensorDropout(FaultEvent):
    """Lost samples: each affected reading becomes NaN with probability p.

    NaN is the contract for "no sample" — the controller must never
    actuate on it (see the sensor-loss fallback in
    :class:`~repro.core.controller.VoltageSmoothingController`).
    """

    kind: ClassVar[str] = "sensor_dropout"
    layer_name: ClassVar[str] = ARCHITECTURE

    probability: float = 0.1
    sms: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction("probability", self.probability, allow_zero=True)
        if self.sms is not None:
            object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class ActuatorStuck(FaultEvent):
    """A stuck or jammed actuator on selected SMs.

    ``value=None`` freezes the actuator at whatever command was in
    force when the fault began (stuck); a number jams it there
    outright.  ``actuator`` selects the command field: ``diws`` (issue
    width), ``fii`` (fake rate) or ``dcc`` (compensation watts).
    """

    kind: ClassVar[str] = "actuator_stuck"
    layer_name: ClassVar[str] = ARCHITECTURE

    actuator: str = "diws"
    sms: Tuple[int, ...] = (0,)
    value: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.actuator not in ("diws", "fii", "dcc"):
            raise ValueError(
                f"actuator must be diws/fii/dcc, got {self.actuator!r}"
            )
        if not self.sms:
            raise ValueError("actuator_stuck needs at least one SM")
        object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class ControlLoopJitter(FaultEvent):
    """Timing faults in the control loop.

    ``drop_probability`` makes the controller miss whole observations
    (detector samples never taken that cycle); ``extra_latency_cycles``
    adds uniform 0..N cycles of jitter to when enqueued commands are
    read out.
    """

    kind: ClassVar[str] = "control_jitter"
    layer_name: ClassVar[str] = ARCHITECTURE

    drop_probability: float = 0.0
    extra_latency_cycles: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_fraction("drop_probability", self.drop_probability,
                        allow_zero=True)
        if self.extra_latency_cycles < 0:
            raise ValueError("extra_latency_cycles cannot be negative")
        if self.drop_probability == 0.0 and self.extra_latency_cycles == 0:
            raise ValueError(
                "control_jitter with no drop probability and no extra "
                "latency is a no-op; give it at least one"
            )


# ---------------------------------------------------------------------------
# System-layer faults
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LayerShutoff(FaultEvent):
    """A whole layer's SMs forced idle (the paper's Fig. 9 worst case)."""

    kind: ClassVar[str] = "layer_shutoff"
    layer_name: ClassVar[str] = SYSTEM

    layer: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.layer < 0:
            raise ValueError(f"layer cannot be negative, got {self.layer}")


@dataclass(frozen=True)
class PowerGateTransient(FaultEvent):
    """Warped-Gates-style power gating of an arbitrary SM subset."""

    kind: ClassVar[str] = "power_gate"
    layer_name: ClassVar[str] = SYSTEM

    sms: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sms:
            raise ValueError("power_gate needs at least one SM")
        object.__setattr__(self, "sms", tuple(self.sms))


@dataclass(frozen=True)
class DFSTransient(FaultEvent):
    """GRAPE-style DFS step: selected SMs run at a scaled frequency."""

    kind: ClassVar[str] = "dfs_transient"
    layer_name: ClassVar[str] = SYSTEM

    frequency_scale: float = 0.5
    sms: Optional[Tuple[int, ...]] = None  # None = every SM

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.frequency_scale <= 1.0:
            raise ValueError(
                f"frequency_scale must be in (0, 1], got "
                f"{self.frequency_scale}"
            )
        if self.sms is not None:
            object.__setattr__(self, "sms", tuple(self.sms))


#: kind string -> event class, for JSON deserialization.
EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        CRIVRPhaseLoss, PDNDrift, ProcessVariation,
        SensorNoise, SensorQuantization, SensorStuck, SensorDropout,
        ActuatorStuck, ControlLoopJitter,
        LayerShutoff, PowerGateTransient, DFSTransient,
    )
}


def event_from_dict(data: Dict[str, object]) -> FaultEvent:
    """Build a typed event from its JSON dict (``kind`` selects the type)."""
    if "kind" not in data:
        raise ValueError(f"fault event needs a 'kind' field: {data!r}")
    kind = data["kind"]
    try:
        cls = EVENT_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown fault kind {kind!r}; known kinds: "
            f"{sorted(EVENT_TYPES)}"
        )
    known = {f.name for f in fields(cls)}
    payload = {k: v for k, v in data.items() if k != "kind"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"fault {kind!r} has unknown fields: {sorted(unknown)}; "
            f"valid fields: {sorted(known)}"
        )
    # JSON has no tuples; coerce list-valued fields.
    for key, value in payload.items():
        if isinstance(value, list):
            payload[key] = tuple(value)
    return cls(**payload)


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of fault events plus the stochastic-fault seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"schedule events must be FaultEvent instances, got "
                    f"{type(event).__name__}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def netlist_events(self) -> List[FaultEvent]:
        """The events that edit PDN element values mid-run (CR-IVR
        phase loss, drift): a lane running any needs a netlist of its
        own."""
        return [
            e for e in self.events if isinstance(e, (CRIVRPhaseLoss, PDNDrift))
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        events = data.get("events")
        if not isinstance(events, (list, tuple)):
            raise ValueError("fault schedule needs an 'events' list")
        unknown = set(data) - {"name", "seed", "events"}
        if unknown:
            raise ValueError(
                f"fault schedule has unknown keys: {sorted(unknown)}"
            )
        return cls(
            events=tuple(event_from_dict(dict(e)) for e in events),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "custom")),
        )

    def to_json(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path) -> "FaultSchedule":
        with open(Path(path)) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"fault schedule {path} must hold a JSON object")
        return cls.from_dict(data)
