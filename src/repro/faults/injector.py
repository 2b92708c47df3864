"""Runtime fault injection for the co-simulation loop.

:class:`FaultInjector` turns a declarative
:class:`~repro.faults.events.FaultSchedule` into per-cycle mutations at
the points ``run_cosim`` exposes:

* **circuit** — element values (CR-IVR conductance stamps, parasitic
  resistances) are mutated on activation edges and the transient
  solver re-factorizes once per edge (not per cycle), so a fault costs
  one LU decomposition, not a per-step penalty; process variation
  scales the per-SM power draw right after the GPU model emits it, so
  the PDE ledger stays closed;
* **architecture** — sensor corruption rewrites the voltage vector the
  detectors see (never the physical node voltages), actuator faults
  rewrite the commanded actuation after the controller, and loop
  jitter drops observations / delays command readout;
* **system** — layer shutoff and power gating contribute halted SM
  sets; DFS transients drive the GPU's frequency-scale hook.

Stochastic faults draw from the schedule's own seeded generator, so a
scenario is reproducible independently of the workload RNG.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import StackConfig
from repro.faults.events import (
    ActuatorStuck,
    ControlLoopJitter,
    CRIVRPhaseLoss,
    DFSTransient,
    FaultEvent,
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


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one co-simulation's objects.

    Built once per run from the schedule plus handles to the live PDN
    and solver; the co-sim loop calls the hooks with *recorded* cycle
    numbers (0 = end of warmup).  All hooks are cheap no-ops when no
    event of their category is scheduled.

    Event windows are fixed, so the deterministic hooks (circuit,
    power scales, frequency scales, halted SMs) can change their result
    only on the first cycle and on :meth:`edge_cycles`, where the loop
    calls them alone; the random draws happen only while an event of
    their kind is active (:meth:`sensing`).
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        stack: StackConfig,
        pdn=None,
        solver=None,
    ) -> None:
        self.schedule = schedule
        self.stack = stack
        self.pdn = pdn
        self.solver = solver
        self.rng = np.random.default_rng(schedule.seed)
        num = stack.num_sms

        ev = schedule.events
        self._netlist_events: List[FaultEvent] = [
            e for e in ev if isinstance(e, (CRIVRPhaseLoss, PDNDrift))
        ]
        self._pv_events: List[ProcessVariation] = [
            e for e in ev if isinstance(e, ProcessVariation)
        ]
        self._sensor_events: List[FaultEvent] = [
            e for e in ev
            if isinstance(e, (SensorNoise, SensorQuantization, SensorStuck,
                              SensorDropout))
        ]
        # Target-SM index arrays, resolved once (read-only per cycle).
        self._sensor_idx = [self._sm_indices(e) for e in self._sensor_events]
        self._jitter_events: List[ControlLoopJitter] = [
            e for e in ev if isinstance(e, ControlLoopJitter)
        ]
        self._actuator_events: List[ActuatorStuck] = [
            e for e in ev if isinstance(e, ActuatorStuck)
        ]
        self._halt_events: List[FaultEvent] = [
            e for e in ev if isinstance(e, (LayerShutoff, PowerGateTransient))
        ]
        self._dfs_events: List[DFSTransient] = [
            e for e in ev if isinstance(e, DFSTransient)
        ]

        for event in ev:
            for sm in self._event_sms(event, default=()):
                if not 0 <= sm < num:
                    raise ValueError(
                        f"{event.kind} targets SM {sm}, but the stack has "
                        f"{num} SMs"
                    )
        for event in self._halt_events:
            if isinstance(event, LayerShutoff) and event.layer >= stack.num_layers:
                raise ValueError(
                    f"layer_shutoff targets layer {event.layer}, but the "
                    f"stack has {stack.num_layers} layers"
                )

        # Circuit-fault machinery: base element values snapshotted once;
        # on an activation edge everything is restored then active
        # faults re-applied (compose multiplicatively), followed by one
        # solver re-factorization.
        self._crivr_elements: List = []
        self._crivr_base: List[float] = []
        self._drift_targets: Dict[str, List[Tuple[object, float]]] = {}
        if self._netlist_events:
            if pdn is None or solver is None:
                raise ValueError(
                    "circuit faults scheduled but the injector was built "
                    "without pdn/solver handles"
                )
            circuit = pdn.circuit
            from repro.circuits.elements import DifferenceConductance, Resistor

            if any(isinstance(e, CRIVRPhaseLoss) for e in self._netlist_events):
                self._crivr_elements = [
                    e for e in circuit.elements_of_type(DifferenceConductance)
                    if e.name.startswith("crivr_")
                ]
                if not self._crivr_elements:
                    raise ValueError(
                        "crivr_phase_loss scheduled but the netlist has no "
                        "CR-IVR (cr_ivr_area_mm2 = 0?)"
                    )
                self._crivr_base = [e.conductance for e in self._crivr_elements]
            for event in self._netlist_events:
                if not isinstance(event, PDNDrift):
                    continue
                prefix = event.element_prefix
                if prefix in self._drift_targets:
                    continue
                targets = [
                    (e, e.resistance)
                    for e in circuit.elements_of_type(Resistor)
                    if e.name.startswith(prefix)
                ]
                if not targets:
                    raise ValueError(
                        f"pdn_drift prefix {prefix!r} matches no resistor "
                        "in the netlist"
                    )
                self._drift_targets[prefix] = targets
        # The no-fault signature is the starting state: the first cycle
        # only triggers a refactorization if something is already active.
        self._netlist_sig: Tuple[bool, ...] = tuple(
            False for _ in self._netlist_events
        )

        # Per-SM process-variation factors, fixed for the whole run.
        self._pv_scales: List[np.ndarray] = []
        for event in self._pv_events:
            if event.scales is not None:
                if len(event.scales) != num:
                    raise ValueError(
                        f"process_variation scales has {len(event.scales)} "
                        f"entries, expected {num}"
                    )
                scales = np.asarray(event.scales, dtype=float)
            else:
                scales = np.clip(
                    self.rng.normal(1.0, event.sigma, size=num), 0.05, None
                )
            self._pv_scales.append(scales)

        # Actuator-stuck frozen snapshots (filled at activation edges).
        self._act_frozen: List[Optional[np.ndarray]] = [
            None for _ in self._actuator_events
        ]
        self._act_was_active = [False for _ in self._actuator_events]

        self._dfs_sig: Tuple[bool, ...] = tuple(
            False for _ in self._dfs_events
        )

        self.counters: Dict[str, int] = {
            "refactorizations": 0,
            "sensor_samples_corrupted": 0,
            "sensor_samples_dropped": 0,
            "observations_dropped": 0,
            "actuation_overrides": 0,
            "halted_sm_cycles": 0,
            "latency_jitter_cycles": 0,
        }
        # The last halted set's size, credited through _halted_through.
        self._halted_count = 0
        self._halted_through = 0

        # Active-kind signature cache for the flight recorder: event
        # windows are fixed, so the kinds tuple only changes at edges.
        self._kinds_sig: Optional[Tuple[bool, ...]] = None
        self._kinds_active: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def active_kinds(self, cycle: int) -> Tuple[str, ...]:
        """The kinds of every event active this recorded cycle.

        Cheap enough for per-cycle sampling (the droop flight recorder
        stores it alongside each ring row): the tuple is rebuilt only
        when the activation signature changes.
        """
        sig = tuple(e.active(cycle) for e in self.schedule.events)
        if sig != self._kinds_sig:
            self._kinds_sig = sig
            self._kinds_active = tuple(
                e.kind for e, on in zip(self.schedule.events, sig) if on
            )
        return self._kinds_active

    def edge_cycles(self) -> List[int]:
        """Recorded cycles at which an event window opens or closes."""
        return sorted({
            c for e in self.schedule.events
            for c in (e.start_cycle, e.end_cycle)
        })

    def sensing(self, cycle: int) -> Tuple[bool, bool]:
        """Whether sensor-corruption / loop-jitter events are active."""
        return (
            any(e.active(cycle) for e in self._sensor_events),
            any(e.active(cycle) for e in self._jitter_events),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _event_sms(event: FaultEvent, default=None):
        sms = getattr(event, "sms", None)
        return default if sms is None else sms

    def _sm_indices(self, event: FaultEvent) -> np.ndarray:
        sms = self._event_sms(event)
        if sms is None:
            return np.arange(self.stack.num_sms)
        return np.asarray(sms, dtype=int)

    # ------------------------------------------------------------------
    # Circuit layer
    # ------------------------------------------------------------------
    def apply_circuit_faults(self, cycle: int) -> bool:
        """Mutate element values on activation edges; refactor once.

        Returns True when the matrix was re-factorized this cycle.
        """
        if not self._netlist_events:
            return False
        sig = tuple(e.active(cycle) for e in self._netlist_events)
        if sig == self._netlist_sig:
            return False
        self._netlist_sig = sig
        for element, base in zip(self._crivr_elements, self._crivr_base):
            element.conductance = base
        for targets in self._drift_targets.values():
            for element, base in targets:
                element.resistance = base
        for event, active in zip(self._netlist_events, sig):
            if not active:
                continue
            if isinstance(event, CRIVRPhaseLoss):
                for element in self._crivr_elements:
                    if event.columns is not None:
                        column = int(element.name.split("_")[1][1:])
                        if column not in event.columns:
                            continue
                    element.conductance *= event.capacity_fraction
            else:  # PDNDrift
                for element, _ in self._drift_targets[event.element_prefix]:
                    element.resistance *= event.resistance_scale
        self.solver.refactor()
        self.counters["refactorizations"] += 1
        return True

    def power_scales(self, cycle: int) -> List[np.ndarray]:
        """The active process-variation factor rows, in schedule order."""
        return [
            scales for event, scales in zip(self._pv_events, self._pv_scales)
            if event.active(cycle)
        ]

    def scale_powers(self, cycle: int, powers: np.ndarray) -> np.ndarray:
        """Apply active process-variation scaling (in place)."""
        for scales in self.power_scales(cycle):
            powers *= scales
        return powers

    # ------------------------------------------------------------------
    # Architecture layer
    # ------------------------------------------------------------------
    def corrupt_sensors(self, cycle: int, voltages: np.ndarray) -> np.ndarray:
        """The voltage vector the detectors *see* (copy when faulted).

        Events apply in schedule order, so a stuck-at listed after a
        noise fault overrides it on the shared SMs — scenario files
        control the composition.
        """
        seen = None
        for event, idx in zip(self._sensor_events, self._sensor_idx):
            if not event.active(cycle):
                continue
            if seen is None:
                seen = voltages.copy()
            if isinstance(event, SensorNoise):
                seen[idx] += self.rng.normal(0.0, event.sigma_v, size=len(idx))
                self.counters["sensor_samples_corrupted"] += len(idx)
            elif isinstance(event, SensorQuantization):
                seen[idx] = np.round(seen[idx] / event.step_v) * event.step_v
                self.counters["sensor_samples_corrupted"] += len(idx)
            elif isinstance(event, SensorStuck):
                seen[idx] = event.value_v
                self.counters["sensor_samples_corrupted"] += len(idx)
            else:  # SensorDropout
                dropped = idx[self.rng.random(len(idx)) < event.probability]
                if len(dropped):
                    seen[dropped] = np.nan
                    self.counters["sensor_samples_dropped"] += len(dropped)
        return voltages if seen is None else seen

    def observation_allowed(self, cycle: int) -> bool:
        """False when loop jitter drops this cycle's observation."""
        for event in self._jitter_events:
            if (
                event.active(cycle)
                and event.drop_probability > 0.0
                and self.rng.random() < event.drop_probability
            ):
                self.counters["observations_dropped"] += 1
                return False
        return True

    def extra_latency(self, cycle: int) -> int:
        """Additional command-readout latency injected this cycle."""
        extra = 0
        for event in self._jitter_events:
            if event.active(cycle) and event.extra_latency_cycles > 0:
                extra += int(
                    self.rng.integers(0, event.extra_latency_cycles + 1)
                )
        if extra:
            self.counters["latency_jitter_cycles"] += extra
        return extra

    def distort_actuation(
        self,
        cycle: int,
        issue_widths: np.ndarray,
        fake_rates: np.ndarray,
        dcc_powers: np.ndarray,
    ) -> None:
        """Apply stuck/jammed actuator faults to the commanded arrays.

        The arrays must be the caller's private copies (the controller's
        internal decision state is never touched).
        """
        arrays = {
            "diws": issue_widths, "fii": fake_rates, "dcc": dcc_powers
        }
        for k, event in enumerate(self._actuator_events):
            active = event.active(cycle)
            target = arrays[event.actuator]
            idx = np.asarray(event.sms, dtype=int)
            if active and not self._act_was_active[k]:
                # Activation edge: a stuck actuator freezes at whatever
                # command is in force right now.
                self._act_frozen[k] = target[idx].copy()
            self._act_was_active[k] = active
            if not active:
                continue
            if event.value is not None:
                target[idx] = event.value
            else:
                target[idx] = self._act_frozen[k]
            self.counters["actuation_overrides"] += len(idx)

    # ------------------------------------------------------------------
    # System layer
    # ------------------------------------------------------------------
    def halted_sms(self, cycle: int) -> Set[int]:
        """SMs forced idle this cycle (layer shutoff + power gating).

        ``halted_sm_cycles`` credits each set for the span it stays in
        force, through the next call or :meth:`credit_halted`.
        """
        self.credit_halted(cycle - 1)
        halted: Set[int] = set()
        for event in self._halt_events:
            if not event.active(cycle):
                continue
            if isinstance(event, LayerShutoff):
                halted.update(self.stack.sms_in_layer(event.layer))
            else:
                halted.update(event.sms)
        self._halted_count = len(halted)
        self.credit_halted(cycle)
        return halted

    def credit_halted(self, through: int) -> None:
        """Credit the last halted set through recorded cycle ``through``."""
        self.counters["halted_sm_cycles"] += self._halted_count * (
            through - self._halted_through
        )
        self._halted_through = through

    def frequency_scales(self, cycle: int) -> Optional[np.ndarray]:
        """Per-SM frequency scales, or None when unchanged since last call."""
        if not self._dfs_events:
            return None
        sig = tuple(e.active(cycle) for e in self._dfs_events)
        if sig == self._dfs_sig:
            return None
        self._dfs_sig = sig
        scales = np.ones(self.stack.num_sms)
        for event, active in zip(self._dfs_events, sig):
            if active:
                scales[self._sm_indices(event)] *= event.frequency_scale
        return scales

    # ------------------------------------------------------------------
    @property
    def touches_circuit(self) -> bool:
        return bool(self._netlist_events or self._pv_events)

    @property
    def touches_actuation(self) -> bool:
        return bool(self._actuator_events)

    @property
    def halts_sms(self) -> bool:
        return bool(self._halt_events)

    @property
    def scales_frequency(self) -> bool:
        return bool(self._dfs_events)

    @property
    def touches_timing(self) -> bool:
        return bool(self._jitter_events)

    def report(self) -> Dict[str, object]:
        """Injection summary for the manifest's ``faults`` section."""
        return {
            "schedule": self.schedule.name,
            "seed": self.schedule.seed,
            "num_events": len(self.schedule),
            "events": [
                dict(event.to_dict(), layer=event.layer_name,
                     description=event.describe())
                for event in self.schedule.events
            ],
            "counters": dict(self.counters),
        }


# Guardband verdicts, ordered from best to worst.  The numeric code
# makes the verdict gateable by ``repro compare`` (lower is better).
SURVIVED, SAFE_STATE, VIOLATED = "survived", "safe_state", "violated"
VERDICT_CODES = {SURVIVED: 0, SAFE_STATE: 1, VIOLATED: 2}


def build_fault_report(
    injector: FaultInjector, result, controller=None
) -> Dict[str, object]:
    """The manifest's ``faults`` section: injection log + guardband verdict.

    The verdict grades the run against the stack's 0.8 V guardband:

    * ``survived`` — the worst SM never dropped below the guardband;
    * ``safe_state`` — it did, but the watchdog engaged and the run
      ended protected (controller in its safe state) or recovered (the
      last tenth of the trace back above the guardband): the declared
      degraded-but-controlled outcome;
    * ``violated`` — sub-guardband operation without the safe state —
      the failure the graceful-degradation machinery exists to prevent.
    """
    import numpy as np  # local: keep module import light

    guardband = float(result.stack.min_safe_voltage)
    trace = result.worst_sm_voltage_trace()
    violations = int(np.count_nonzero(trace < guardband))
    tail = trace[-max(1, len(trace) // 10):]
    stats_fn = getattr(controller, "stats", None)
    stats = stats_fn() if callable(stats_fn) else {}
    watchdog_engagements = int(stats.get("watchdog_engagements", 0))
    in_safe_state = bool(stats.get("in_safe_state", False))
    if violations == 0:
        verdict = SURVIVED
    elif watchdog_engagements > 0 and (
        in_safe_state or float(tail.min()) >= guardband
    ):
        verdict = SAFE_STATE
    else:
        verdict = VIOLATED
    report = injector.report()
    report["verdict"] = verdict
    report["summary"] = {
        "guardband_v": guardband,
        "min_voltage_v": float(trace.min()),
        "tail_min_voltage_v": float(tail.min()),
        "guardband_violation_cycles": violations,
        "guardband_violation_fraction": violations / len(trace),
        "watchdog_engagements": watchdog_engagements,
        "safe_state_decisions": int(stats.get("safe_state_decisions", 0)),
        "sensor_fallback_samples": int(
            stats.get("sensor_fallback_samples", 0)
        ),
        "nan_samples_seen": int(stats.get("nan_samples_seen", 0)),
        "limit_cycle_events": int(stats.get("limit_cycle_events", 0)),
        "verdict_code": VERDICT_CODES[verdict],
    }
    return report
