"""ctypes mirror of the batched solver kernel's state (``_solverc.c``).

The kernel is part of the native library (:mod:`repro.native`) and is
:class:`repro.circuits.transient.BatchTransientSolver`'s only step.  It
back-substitutes through the very LAPACK ``dgetrs`` scipy's ``getrs``
wrapper calls (:func:`repro.native.dgetrs_pointer`), so it runs the
routine a serial :class:`~repro.circuits.transient.TransientSolver`
runs on the same operands and stays bit-identical to B serial lanes.
(A hand-rolled P·L·U substitution was rejected — a blocked BLAS
``trsm`` reorders dot-product accumulation, which breaks that
bit-identity.)
"""

from __future__ import annotations

import ctypes

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong


class CSolverState(ctypes.Structure):
    """Mirror of ``SolverState`` in ``_solverc.c`` (field order matters)."""

    _fields_ = [
        ("n_lanes", _I64),
        ("size", _I64),
        ("n_vals", _I64),
        ("n_react", _I64),
        ("n_scatter", _I64),
        ("n_cs", _I64),
        ("n_vs", _I64),
        ("dgetrs", _PTR),
        ("lu_addr", _PTR),
        ("piv_addr", _PTR),
        ("react_g", _PTR),
        ("react_v", _PTR),
        ("react_i", _PTR),
        ("react_sign", _PTR),
        ("pos_mask", _PTR),
        ("neg_mask", _PTR),
        ("react_pos", _PTR),
        ("react_neg", _PTR),
        ("vals", _PTR),
        ("base", _PTR),
        ("cs_dst", _PTR),
        ("cs_src", _PTR),
        ("scat_idx", _PTR),
        ("scat_src", _PTR),
        ("scat_gain", _PTR),
        ("vs_rows", _PTR),
        ("vs_vals", _PTR),
        ("rhs", _PTR),
        ("sol", _PTR),
    ]
