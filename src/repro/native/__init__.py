"""The one native library behind every compiled fast path.

The GPU step kernel (``repro/gpu/_enginec.c``), the batched PDN solver
kernel (``repro/circuits/_solverc.c``) and the co-sim cycle kernel
(``repro/sim/_cyclec.c``, which calls the other two directly, runs
one cycle or a span of cycles per call, and also exports the controller
bank's RC filter and decision wave) are linked into one
shared object, compiled by the system toolchain at
first use and driven through :mod:`ctypes`.  The library is required:
:func:`load` returns it or raises :class:`NativeBuildError` with the
reason and the compiler's output.  The second implementation of each
layer is its test oracle under ``tests/oracles/``.

The solver kernel back-substitutes through the very LAPACK ``dgetrs``
scipy's ``getrs`` wrapper calls, so the library also needs that
routine's address (:func:`dgetrs_pointer`); without it the load fails.
The cycle kernel makes the fault injectors' random draws
with NumPy's own distribution code, so the library links the
``libnpyrandom.a`` archive NumPy ships for C extensions
(:data:`ARCHIVES`); a missing or unlinkable archive fails the load
too.  Struct pointers cross as ``void *``: each layer owns the
``ctypes.Structure`` mirror of its own state struct.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

import numpy.random

from repro.native.cbuild import KernelBuild, NativeBuildError

_PKG = Path(__file__).resolve().parent.parent
SOURCES = (
    _PKG / "gpu" / "_enginec.c",
    _PKG / "circuits" / "_solverc.c",
    _PKG / "sim" / "_cyclec.c",
)
#: NumPy's random-distribution library for C extensions.
ARCHIVES = (Path(numpy.random.__file__).parent / "lib" / "libnpyrandom.a",)

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong

#: Exported symbol -> argtypes; every one returns an int64 status.
_SYMBOLS = {
    "engine_step": [_PTR, _I64],
    "engine_step_batch": [_PTR, _I64, _PTR, _PTR, _PTR, _PTR],
    "engine_actuate": [_PTR, _PTR, _PTR, _PTR],
    "solver_step_n": [_PTR, _I64],
    "solver_step_n_checked": [_PTR, _I64, _PTR, _PTR],
    "cosim_cycle": [_PTR, _I64, _I64, _I64],
    "cosim_span": [_PTR, _I64, _I64],
    "bank_wave": [_PTR, _I64, _PTR, _PTR],
    "bank_filter": [_PTR, _PTR, _PTR, _PTR],
}

_DGETRS: dict = {}


def dgetrs_pointer() -> Optional[int]:
    """Raw address of LAPACK ``dgetrs``, or ``None`` when unavailable.

    Extracted from scipy's cython_lapack capsule table so the C kernel
    calls the identical routine scipy's ``getrs`` wrapper dispatches
    to.  The caller passes Fortran-ordered LU blocks and *1-based*
    int32 pivot vectors (scipy's ``lu_factor`` returns 0-based pivots;
    its f2py wrapper converts internally, the raw routine does not).
    """
    if "ptr" in _DGETRS:
        return _DGETRS["ptr"]
    ptr: Optional[int] = None
    try:
        import scipy.linalg.cython_lapack as cython_lapack

        capsule = cython_lapack.__pyx_capi__["dgetrs"]
        get_name = ctypes.pythonapi.PyCapsule_GetName
        get_name.restype = ctypes.c_char_p
        get_name.argtypes = [ctypes.py_object]
        get_ptr = ctypes.pythonapi.PyCapsule_GetPointer
        get_ptr.restype = ctypes.c_void_p
        get_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
        ptr = get_ptr(capsule, get_name(capsule))
    except Exception:
        ptr = None
    _DGETRS["ptr"] = ptr
    return ptr


def _configure(lib: ctypes.CDLL) -> None:
    for name, argtypes in _SYMBOLS.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = _I64
    if dgetrs_pointer() is None:
        raise OSError("scipy's LAPACK dgetrs capsule is unavailable")


LIBRARY = KernelBuild(
    sources=SOURCES,
    cache_dir=Path(__file__).with_name("_cbuild_cache"),
    configure=_configure,
    archives=ARCHIVES,
)


def load() -> ctypes.CDLL:
    """The native library; raises :class:`NativeBuildError` when it
    cannot be built or loaded."""
    return LIBRARY.load()


def reset() -> None:
    """Forget the cached library and ``dgetrs`` address."""
    LIBRARY.reset()
    _DGETRS.clear()


__all__ = [
    "KernelBuild",
    "NativeBuildError",
    "dgetrs_pointer",
    "load",
    "reset",
]
