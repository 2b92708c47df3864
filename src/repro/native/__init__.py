"""The one native library behind every compiled fast path.

The GPU step kernel (``repro/gpu/_enginec.c``), the batched PDN solver
kernel (``repro/circuits/_solverc.c``) and the co-sim cycle kernel
(``repro/sim/_cyclec.c``, which calls the other two directly, runs
one cycle or a span of cycles per call, and also exports the controller
bank's RC filter, decision wave and pipeline pop) are linked into one
shared object, compiled by the system toolchain at
first use and driven through :mod:`ctypes`.  The library is required:
:func:`load` returns it or raises :class:`NativeBuildError` with the
reason and the compiler's output.  The second implementation of each
layer is its test oracle under ``tests/oracles/``.

The solver kernel back-substitutes on its own, with the operation
sequence of the LAPACK ``getrs`` the serial solver calls; its fused
body is compiled for the FMA instruction set and picked at run time on
a CPU that has it.  The GPU engine's kernel launch seeds its own
PCG64s from integer seeds, as NumPy's ``SeedSequence`` and ``PCG64``
do, and draws its streams with NumPy's own distribution code, as the
cycle kernel draws the fault injectors' random numbers through their
NumPy bit generators; so the library links the ``libnpyrandom.a``
archive NumPy ships for C extensions (:data:`ARCHIVES`), and a missing
or unlinkable archive fails the load too.  Struct pointers cross as
``void *``: each layer owns the ``ctypes.Structure`` mirror of its own
state struct.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

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
_U64 = ctypes.c_uint64

#: Exported symbol -> argtypes; every one returns an int64 status
#: except the ones in _VOID.
_SYMBOLS = {
    "engine_step": [_PTR, _I64],
    "engine_launch": [_PTR, _PTR, _I64, _U64, _PTR],
    "pcg64_seed_state": [_PTR, _I64, _PTR],
    "engine_step_batch": [_PTR, _I64, _PTR, _PTR, _PTR, _PTR],
    "engine_actuate": [_PTR, _PTR, _PTR, _PTR],
    "solver_step_n": [_PTR, _I64],
    "solver_step_n_checked": [_PTR, _I64, _PTR, _PTR],
    "cosim_cycle": [_PTR, _I64, _I64, _I64],
    "cosim_span": [_PTR, _I64, _I64],
    "bank_wave": [_PTR, _I64, _PTR, _PTR],
    "bank_filter": [_PTR, _PTR, _PTR, _PTR],
    "bank_pop": [_PTR, _I64, _I64],
}

_VOID = frozenset({"solver_step_n"})


def _configure(lib: ctypes.CDLL) -> None:
    for name, argtypes in _SYMBOLS.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None if name in _VOID else _I64


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
    """Forget the cached library."""
    LIBRARY.reset()


__all__ = [
    "KernelBuild",
    "NativeBuildError",
    "load",
    "reset",
]
