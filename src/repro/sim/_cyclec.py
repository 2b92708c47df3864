"""The co-sim cycle kernel (``_cyclec.c``): ctypes plumbing.

One :meth:`CycleKernel.run` call advances every lane of a batch through
one co-sim cycle — GPU step and process-variation scaling, PDN
currents, guarded solver substeps, SM-voltage readout, the controller
bank's RC filter (masked for dropped samples and unobserved lanes), its
decision wave and the fast lanes' pipeline pops, and the recording row
— in compiled code.  The kernel is part of the native library
(:mod:`repro.native`) and calls the GPU engine and the PDN solver
kernels linked beside it.  When the library is unavailable,
the co-sim loop runs its NumPy body instead — same results, more Python
per cycle.
"""

from __future__ import annotations

import ctypes
from time import perf_counter
from typing import Optional

import numpy as np

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double

#: Stages of :meth:`CycleKernel.run` (see ``_cyclec.c``).
STAGE_GPU, STAGE_SOLVE, STAGE_READOUT, STAGE_FILTER, STAGE_DECIDE = range(5)
#: Non-error return codes of ``cosim_cycle``.
RELAUNCH, SUSPECT, GROW = 2, 3, 4


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
        ("seen", _PTR),
        ("observed", _PTR),
        ("measured", _PTR),
        ("masked", _I64),
        ("unobserved", _I64),
        ("fast", _PTR),
        ("applied", _PTR),
        ("apply", _PTR),
        ("n_apply", _I64),
        ("waved", _I64),
        ("warmup", _I64),
        ("cycles", _I64),
        ("lane_index", _PTR),
        ("rec_powers", _PTR),
        ("rec_volts", _PTR),
        ("rec_supply", _PTR),
        ("vdd_row", _I64),
        ("dcc_possible", _I64),
        ("dcc_accum", _PTR),
        ("dcc_trace", _PTR),
        ("flight_warm", _PTR),
        ("timing", _I64),
        ("stage_s", _PTR),
        ("err_lane", _I64),
    ]


def _addr(arr: Optional[np.ndarray]) -> Optional[int]:
    return None if arr is None else arr.ctypes.data


class CycleKernel:
    """One compiled co-sim cycle over the loop's current batch.

    Binds the GPU batch's fused dispatch, the batch solver's C state
    (and guard buffers), and the loop's current/voltage/recording
    arrays into one ``CycleState``.  Built per batch shape: the loop
    rebuilds it after a lane quarantine compacts the batch.  Every
    array it points at is kept alive here.

    With a bank it owns the filter's blocks — ``seen`` (filled by a
    call that stops after the readout), ``observed`` and ``measured`` —
    and the decide stage's ``apply`` flags (bank rows whose active
    decision the loop must apply; ``state.n_apply`` counts them).  The
    loop passes ``fast`` (the bank rows the kernel pops) and ``applied``
    (each row's last applied decision id, updated by the kernel).
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
        fast: Optional[np.ndarray],
        applied: Optional[np.ndarray],
        pv_rows: np.ndarray,
        pv_count: np.ndarray,
        warmup: int,
        cycles: int,
        lane_index: np.ndarray,
        rec_powers: np.ndarray,
        rec_volts: np.ndarray,
        rec_supply: np.ndarray,
        vdd_row: int,
        dcc_possible: bool,
        dcc_accum: np.ndarray,
        dcc_trace: Optional[np.ndarray],
        flight_warm: Optional[np.ndarray],
        stage_s: Optional[np.ndarray],
    ) -> None:
        fused = gpu_batch.fused()
        self.gpu_batch = gpu_batch
        self.solver = solver
        self.stage_s = stage_s
        if not solver._c_ready():
            raise RuntimeError("batch solver is not on its compiled backend")
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
            if fast.dtype != bool or applied.dtype != np.int64:
                raise ValueError("fast/applied must be bool / int64")
        self._refs = [
            fused, dcc, currents, volts, top_idx, bot_idx, bank_rows,
            lane_index, rec_powers, rec_volts, rec_supply, dcc_accum,
            dcc_trace, flight_warm, stage_s, guard, bank, pv_rows, pv_count,
            fast, applied,
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
            solver_state=ctypes.addressof(solver._c_state),
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
            seen=_addr(self.seen) if bank_lanes else None,
            observed=_addr(self.observed) if bank_lanes else None,
            measured=_addr(self.measured) if bank_lanes else None,
            fast=_addr(fast) if bank_lanes else None,
            applied=_addr(applied) if bank_lanes else None,
            apply=_addr(self.apply) if bank_lanes else None,
            warmup=warmup,
            cycles=cycles,
            lane_index=_addr(lane_index),
            rec_powers=_addr(rec_powers),
            rec_volts=_addr(rec_volts),
            rec_supply=_addr(rec_supply),
            vdd_row=vdd_row,
            dcc_possible=int(dcc_possible),
            dcc_accum=_addr(dcc_accum),
            dcc_trace=_addr(dcc_trace),
            flight_warm=_addr(flight_warm),
            timing=int(stage_s is not None),
            stage_s=_addr(stage_s),
        )
        self.ptr = ctypes.pointer(self.state)
        self.call = fused.lib.cosim_cycle

    def sync_solver(self) -> None:
        """Repoint the kernel at the solver's current C state.

        A lane refactorization (fault injection, guard recovery) drops
        the batch solver's C state; this rebuilds it.
        """
        solver = self.solver
        if solver._lanes_dirty or solver._c_state is None:
            if not solver._c_ready():
                raise RuntimeError("batch solver left its compiled backend")
            self.state.solver_state = ctypes.addressof(solver._c_state)

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
            start = perf_counter()
            self.gpu_batch.relaunch()
            if self.stage_s is not None:
                self.stage_s[0] += perf_counter() - start
            rc = self.call(self.ptr, cycle, first, last)
        while rc == GROW:
            self.bank._grow()
            rc = self.call(self.ptr, cycle, STAGE_DECIDE, STAGE_DECIDE)
        if rc < 0:
            lane = self.state.err_lane
            if rc == -1:
                raise RuntimeError(
                    f"C engine pending-load heap overflow on lane {lane}"
                )
            raise RuntimeError(
                f"C solver kernel: dgetrs rejected its arguments on lane {lane}"
            )
        return rc
