"""ctypes mirrors of the batched solver kernel's state (``_solverc.c``).

The kernel is part of the native library (:mod:`repro.native`) and is
:class:`repro.circuits.transient.BatchTransientSolver`'s only step.  It
back-substitutes each shard's lanes together with the operation
sequence of the NRHS=1 LAPACK ``getrs`` a serial
:class:`~repro.circuits.transient.TransientSolver` calls — pivot swaps,
then both triangles column by column, one ``fma`` per update and one
division per diagonal — so it stays bit-identical to B serial lanes on
systems of up to :data:`MAX_UNKNOWNS` unknowns.
"""

from __future__ import annotations

import ctypes

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong

#: Largest system the kernel's substitution reproduces ``getrs`` on
#: (``MAX_UNKNOWNS`` in ``_solverc.c``: BLAS's unblocked trsv).
MAX_UNKNOWNS = 64


class CShardLU(ctypes.Structure):
    """Mirror of ``ShardLU`` in ``_solverc.c`` (field order matters)."""

    _fields_ = [
        ("n_lanes", _I64),
        ("lanes", _PTR),
        ("lu", _PTR),
        ("perm", _PTR),
        ("l_ptr", _PTR),
        ("l_row", _PTR),
        ("u_ptr", _PTR),
        ("u_row", _PTR),
    ]


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
        ("n_shards", _I64),
        ("shards", _PTR),
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
