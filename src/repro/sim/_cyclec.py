"""The co-sim cycle kernel (``_cyclec.c``): ctypes plumbing.

One :meth:`CycleKernel.run` call advances every lane of a batch through
one co-sim cycle — GPU step and process-variation scaling, PDN
currents, guarded solver substeps, SM-voltage readout, the fault
injectors' sensor and jitter draws, the controller bank's RC filter
(masked for dropped samples and unobserved lanes), its decision wave,
every controller lane's pipeline pop and apply (actuator faults
included), and the recording row — in compiled code;
:meth:`CycleKernel.span` runs many.
The kernel is part of the native library (:mod:`repro.native`) and
calls the GPU engine and the PDN solver kernels linked beside it.  Its
oracle is the serial co-sim loop ``tests/oracles/serial_cosim.py``.
"""

from __future__ import annotations

import ctypes
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.faults.events import (
    ActuatorStuck,
    ControlLoopJitter,
    SensorDropout,
    SensorNoise,
    SensorQuantization,
    SensorStuck,
)

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double

#: Stages of :meth:`CycleKernel.run` (see ``_cyclec.c``).
STAGE_GPU, STAGE_SOLVE, STAGE_READOUT, STAGE_FILTER, STAGE_DECIDE = range(5)
#: Non-error return codes of ``cosim_cycle`` (APPLY: ``cosim_span``'s).
RELAUNCH, SUSPECT, GROW, APPLY = 2, 3, 4, 5
#: The sensing-event kinds, in the order of the ``K_*`` codes: each
#: event class and the parameter its draws read.  The actuator faults'
#: codes follow, one per actuator of :data:`ACTUATORS`.
SENSE_KINDS = (
    (SensorNoise, "sigma_v"), (SensorQuantization, "step_v"),
    (SensorStuck, "value_v"), (SensorDropout, "probability"),
    (ControlLoopJitter, "drop_probability"),
)
ACTUATORS = ("diws", "fii", "dcc")
#: The injector counters of the events, in ``F_*`` column order.
FAULT_COUNTERS = ("sensor_samples_corrupted", "sensor_samples_dropped",
                  "observations_dropped", "latency_jitter_cycles",
                  "actuation_overrides")


class CCycleState(ctypes.Structure):
    """Mirror of ``CycleState`` in ``_cyclec.c`` (field order matters)."""

    _fields_ = [
        ("n_lanes", _I64),
        ("num_sms", _I64),
        ("engine_states", _PTR),
        ("gpu_clock", _PTR),
        ("ndone", _PTR),
        ("exempt", _PTR),
        ("relaunch", _PTR),
        ("powers", _PTR),
        ("pv_k", _I64),
        ("pv_rows", _PTR),
        ("pv_count", _PTR),
        ("sm_voltage", _F64),
        ("conductance_bias", _F64),
        ("dcc", _PTR),
        ("currents", _PTR),
        ("solver_state", _PTR),
        ("substeps", _I64),
        ("snap", _PTR),
        ("limit_sq", _PTR),
        ("clock", _PTR),
        ("csteps", _PTR),
        ("dt", _F64),
        ("sol", _PTR),
        ("sol_size", _I64),
        ("top_idx", _PTR),
        ("bot_idx", _PTR),
        ("volts", _PTR),
        ("bank_lanes", _I64),
        ("bank", _PTR),
        ("bank_rows", _PTR),
        ("faulted", _I64),
        ("bitgens", _PTR),
        ("ev_off", _PTR),
        ("ev", _PTR),
        ("ev_param", _PTR),
        ("ev_sms", _PTR),
        ("ev_on", _PTR),
        ("ev_live", _PTR),
        ("ev_frozen", _PTR),
        ("fault_counts", _PTR),
        ("extra", _PTR),
        ("reapply", _PTR),
        ("seen", _PTR),
        ("observed", _PTR),
        ("measured", _PTR),
        ("masked", _I64),
        ("unobserved", _I64),
        ("apply", _PTR),
        ("n_apply", _I64),
        ("watch", _PTR),
        ("n_stop", _I64),
        ("span_at", _I64),
        ("warmup", _I64),
        ("cycles", _I64),
        ("lane_index", _PTR),
        ("rec_powers", _PTR),
        ("rec_volts", _PTR),
        ("rec_supply", _PTR),
        ("vdd_row", _I64),
        ("dcc_accum", _PTR),
        ("dcc_trace", _PTR),
        ("flight_warm", _PTR),
        ("timing", _I64),
        ("stage_s", _PTR),
        ("err_lane", _I64),
    ]


def _addr(arr: Optional[np.ndarray]) -> Optional[int]:
    return None if arr is None else arr.ctypes.data


class FaultTable:
    """The bank rows' fault events, laid out for the kernel: per bank
    row its injector's (``None``: no faults) ``sensing_events``, then
    its actuator faults.  ``extra`` receives each row's extra command
    latency, ``fault_counts`` its counters.  An actuator fault's frozen
    command (``ev_frozen``) and whether it applied since it began
    (``ev_live``) are the injector's ``_act_frozen`` /
    ``_act_was_active``, taken here and handed back by :meth:`fold`, so
    a table rebuilt mid-run goes on from them."""

    def __init__(self, injectors: list) -> None:
        self.injectors = injectors
        self.events = []
        # (table row, injector, index among its actuator faults)
        self.actuators = []
        off, ev, params, sms = [0], [], [], []
        for inj in injectors:
            for event, idx in (
                inj.sensing_events() if inj is not None else ()
            ):
                kind, name = next(
                    (k, name) for k, (cls, name) in enumerate(SENSE_KINDS)
                    if isinstance(event, cls)
                )
                idx = [int(s) for s in idx]
                last = {s: k for k, s in enumerate(idx)}
                ev.append((kind, len(sms), len(idx),
                           getattr(event, "extra_latency_cycles", 0)))
                params.append(float(getattr(event, name)))
                self.events.append(event)
                # ~s marks an SM the event lists again later.
                sms.extend(s if last[s] == k else ~s
                           for k, s in enumerate(idx))
            for k, event in enumerate(
                inj.schedule.of_kind(ActuatorStuck.kind)
                if inj is not None else ()
            ):
                self.actuators.append((len(ev), inj, k))
                ev.append((len(SENSE_KINDS) + ACTUATORS.index(event.actuator),
                           len(sms), len(event.sms), event.value is None))
                params.append(0.0 if event.value is None else event.value)
                self.events.append(event)
                sms.extend(event.sms)
            off.append(len(ev))
        self.ev_off = np.array(off, dtype=np.int64)
        self.ev = np.array(ev, dtype=np.int64).reshape(-1, 4)
        self.ev_param = np.array(params, dtype=float)
        self.ev_sms = np.array(sms, dtype=np.int64)
        self.ev_on = np.zeros(len(ev), dtype=bool)
        self.ev_live = np.zeros(len(ev), dtype=bool)
        self.ev_frozen = np.zeros(len(sms))
        for e, inj, k in self.actuators:
            if inj._act_was_active[k]:
                self.ev_live[e] = True
                self.ev_frozen[self._sms(e)] = inj._act_frozen[k]
        self.bitgens = np.array([
            inj.rng.bit_generator.ctypes.bit_generator.value
            if inj is not None else 0 for inj in injectors
        ], dtype=np.uintp)
        self.fault_counts = np.zeros(
            (len(injectors), len(FAULT_COUNTERS)), dtype=np.int64
        )
        self.extra = np.zeros(len(injectors), dtype=np.int64)
        self.reapply = np.zeros(len(injectors), dtype=bool)

    def _sms(self, e: int) -> slice:
        """Event ``e``'s slice of the target-SM table."""
        return slice(self.ev[e, 1], self.ev[e, 1] + self.ev[e, 2])

    def fields(self) -> dict:
        """The ``CCycleState`` pointer fields of the table."""
        return {
            name: _addr(getattr(self, name)) for name in (
                "bitgens", "ev_off", "ev", "ev_param", "ev_sms", "ev_on",
                "ev_live", "ev_frozen", "fault_counts", "extra", "reapply",
            )
        }

    def refresh(self, recorded_cycle: int) -> bool:
        """Set the active flags at ``recorded_cycle`` and ask every row
        to re-apply its command in force, whose actuator faults may have
        changed; whether any event is active."""
        self.ev_on[:] = [e.active(recorded_cycle) for e in self.events]
        self.reapply[:] = True
        return bool(self.ev_on.any())

    def fold(self) -> None:
        """Add the counters into their injectors' and zero them; hand
        the actuator faults' state back."""
        for inj, counts in zip(self.injectors, self.fault_counts.tolist()):
            for name, count in zip(FAULT_COUNTERS, counts):
                if count:
                    inj.counters[name] += count
        self.fault_counts[:] = 0
        for e, inj, k in self.actuators:
            inj._act_was_active[k] = live = bool(self.ev_live[e])
            if live:
                inj._act_frozen[k] = self.ev_frozen[self._sms(e)].copy()


class CycleKernel:
    """One compiled co-sim cycle over the loop's current batch.

    Binds the GPU batch's fused dispatch, the batch solver's C state
    (and guard buffers), and the loop's current/voltage/recording
    arrays into one ``CycleState``.  Built per batch shape: the loop
    rebuilds it after a lane quarantine compacts the batch.  Every
    array it points at is kept alive here.

    With a bank it owns the filter's blocks — ``seen``, ``observed``
    and ``measured`` — and the decide stage's ``apply`` flags (bank rows
    the kernel applied to this cycle; ``state.n_apply`` counts them).
    Every bank row is popped and applied here: the bank keeps which
    decision each row applied last and the row in force.  ``watch``
    (bool per bank row, or ``None``) names the rows whose new decisions
    and safe-state flips end a span (``state.n_stop`` counts them): the
    loop's recorder lanes.

    ``injectors`` (one per bank row, ``None`` for none) describe their
    fault events once (:class:`FaultTable`): the filter stage draws for
    the active sensing events through each injector's bit generator
    (the co-sim loop is single-threaded and never shares an injector, so
    the Generator's lock is not needed), its extra command latency
    included, and the apply stage distorts with the active actuator
    faults.  The loop refreshes the active flags on its edge cycles
    (:meth:`refresh_faults`) and folds the counters back into the
    injectors (``faults.fold``).
    """

    def __init__(
        self,
        gpu_batch,
        solver,
        guard,
        *,
        dcc: np.ndarray,
        currents: np.ndarray,
        volts: np.ndarray,
        sm_voltage: float,
        conductance_bias: float,
        substeps: int,
        top_idx: np.ndarray,
        bot_idx: np.ndarray,
        bank,
        bank_rows: Optional[np.ndarray],
        injectors: Optional[list],
        watch: Optional[np.ndarray],
        pv_rows: np.ndarray,
        pv_count: np.ndarray,
        warmup: int,
        cycles: int,
        lane_index: np.ndarray,
        rec_powers: np.ndarray,
        rec_volts: np.ndarray,
        rec_supply: np.ndarray,
        vdd_row: int,
        dcc_accum: np.ndarray,
        dcc_trace: Optional[np.ndarray],
        flight_warm: Optional[np.ndarray],
        stage_s: Optional[np.ndarray],
    ) -> None:
        fused = gpu_batch.fused()
        self.gpu_batch = gpu_batch
        self.solver = solver
        self.stage_s = stage_s
        n_lanes, num_sms = fused.powers.shape
        for name, arr in (("dcc", dcc), ("currents", currents),
                          ("volts", volts)):
            if arr.shape != (n_lanes, num_sms) or not arr.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous (B, S) block")
        if (pv_rows.shape[::2] != (n_lanes, num_sms)
                or not pv_rows.flags.c_contiguous
                or pv_count.shape != (n_lanes,) or pv_count.dtype != np.int64):
            raise ValueError("pv_rows/pv_count must be (B, K, S) / (B,) int64")
        bank_lanes = 0 if bank is None else len(bank.controllers)
        lane_index = np.ascontiguousarray(lane_index, dtype=np.int64)
        self.bank = bank
        if bank_lanes:
            bank_rows = np.ascontiguousarray(bank_rows, dtype=np.int64)
            self.seen = np.empty((bank_lanes, num_sms))
            self.measured = np.empty((bank_lanes, num_sms))
            self.observed = np.ones(bank_lanes, dtype=bool)
            self.apply = np.zeros(bank_lanes, dtype=bool)
            if watch.dtype != bool or watch.shape != (bank_lanes,):
                raise ValueError("watch must hold one bool per bank row")
        self.faults = FaultTable(injectors or [None] * bank_lanes)
        self._refs = [
            fused, dcc, currents, volts, top_idx, bot_idx, bank_rows,
            lane_index, rec_powers, rec_volts, rec_supply, dcc_accum,
            dcc_trace, flight_warm, stage_s, guard, bank, pv_rows, pv_count,
            watch,
        ]
        self.state = CCycleState(
            n_lanes=n_lanes,
            num_sms=num_sms,
            engine_states=ctypes.addressof(fused.ptrs),
            gpu_clock=_addr(fused.clock),
            ndone=_addr(fused.ndone),
            exempt=_addr(fused.exempt),
            relaunch=_addr(fused.relaunch),
            powers=_addr(fused.powers),
            pv_k=pv_rows.shape[1],
            pv_rows=_addr(pv_rows),
            pv_count=_addr(pv_count),
            sm_voltage=sm_voltage,
            conductance_bias=conductance_bias,
            dcc=_addr(dcc),
            currents=_addr(currents),
            solver_state=ctypes.addressof(solver._c_pointer().contents),
            substeps=substeps,
            snap=None if guard is None else _addr(guard._snap_vi),
            limit_sq=None if guard is None else _addr(guard._limit_sq),
            clock=_addr(solver._clock),
            csteps=_addr(solver._csteps),
            dt=solver.dt,
            sol=_addr(solver._sol_bt),
            sol_size=solver._sol_bt.shape[1],
            top_idx=_addr(top_idx),
            bot_idx=_addr(bot_idx),
            volts=_addr(volts),
            bank_lanes=bank_lanes,
            bank=ctypes.addressof(bank._bind_c()) if bank_lanes else None,
            bank_rows=_addr(bank_rows) if bank_lanes else None,
            **self.faults.fields(),
            seen=_addr(self.seen) if bank_lanes else None,
            observed=_addr(self.observed) if bank_lanes else None,
            measured=_addr(self.measured) if bank_lanes else None,
            apply=_addr(self.apply) if bank_lanes else None,
            watch=_addr(watch) if bank_lanes else None,
            warmup=warmup,
            cycles=cycles,
            lane_index=_addr(lane_index),
            rec_powers=_addr(rec_powers),
            rec_volts=_addr(rec_volts),
            rec_supply=_addr(rec_supply),
            vdd_row=vdd_row,
            dcc_accum=_addr(dcc_accum),
            dcc_trace=_addr(dcc_trace),
            flight_warm=_addr(flight_warm),
            timing=int(stage_s is not None),
            stage_s=_addr(stage_s),
        )
        self.ptr = ctypes.pointer(self.state)
        self.call = fused.lib.cosim_cycle
        self.span_call = fused.lib.cosim_span

    def refresh_faults(self, recorded_cycle: int) -> None:
        """Set the fault events' active flags at ``recorded_cycle``
        (they change only on their lanes' edge cycles)."""
        self.state.faulted = self.faults.refresh(recorded_cycle)

    def sync_solver(self) -> None:
        """Repoint the kernel at the solver's current C state.

        A lane refactorization (fault injection, guard recovery) makes
        the batch solver rewire its C state; this picks up the new one.
        """
        self.state.solver_state = ctypes.addressof(
            self.solver._c_pointer().contents
        )

    def run(
        self, cycle: int, first: int = STAGE_GPU, last: int = STAGE_FILTER
    ) -> int:
        """Run stages ``first``..``last`` of one cycle.

        Relaunches the lanes the GPU stage's census flags, then retries;
        grows the bank's pipeline ring when the decide stage asks, then
        resumes there.  Returns 0 or :data:`SUSPECT`.
        """
        rc = self.call(self.ptr, cycle, first, last)
        while rc == RELAUNCH:
            self._relaunch()
            rc = self.call(self.ptr, cycle, first, last)
        return self._finish(rc, cycle)

    def span(self, start: int, stop: int) -> Tuple[int, int]:
        """Run whole cycles ``start``..``stop - 1``, each as :meth:`run`
        does (relaunches and ring growth included).  Returns ``(0, stop)``,
        ``(APPLY, at)`` (a ``watch`` row applied a new decision or
        flipped its safe state at cycle ``at``) or ``(SUSPECT, at)``
        (cycle ``at`` ran through the health proof, which flagged
        lanes)."""
        state = self.state
        while True:
            rc = self.span_call(self.ptr, start, stop)
            at = state.span_at
            if rc == RELAUNCH:
                self._relaunch()
                start = at
            elif rc == GROW:
                self._finish(rc, at)
                if state.n_stop:
                    return APPLY, at
                start = at + 1
                if start == stop:
                    return 0, stop
            else:
                return self._finish(rc, at), at

    def _relaunch(self) -> None:
        start = perf_counter()
        self.gpu_batch.relaunch()
        if self.stage_s is not None:
            self.stage_s[0] += perf_counter() - start

    def _finish(self, rc: int, cycle: int) -> int:
        """Grow the ring and finish ``cycle`` on GROW; raise on an engine
        error."""
        while rc == GROW:
            self.bank._grow()
            rc = self.call(self.ptr, cycle, STAGE_DECIDE, STAGE_DECIDE)
        if rc < 0:
            raise RuntimeError(
                "C engine pending-load heap overflow on lane "
                f"{self.state.err_lane}"
            )
        return rc
