"""Compile-on-demand loader shared by the repo's C kernels.

No new dependencies: each kernel is plain C with no Python headers, so a
stock system compiler (``cc``/``gcc``/``clang``) produces the shared
object and stdlib :mod:`ctypes` drives it.  Build artifacts are cached
next to the kernel source under ``_cbuild_cache/`` keyed by a hash of
the C source, so the compiler runs once per source revision; concurrent
builders (e.g. parallel sweep workers) race benignly through an atomic
rename.

When no compiler is available or the build fails, :meth:`KernelBuild.load`
returns ``None`` and the consumer falls back to its pure-NumPy path —
same results (both are bit-identical by contract), just slower.  The
fallback is *loud*: one :class:`RuntimeWarning` per process plus a
fallback counter that the co-sim telemetry surfaces (e.g. as
``gpu.backend_fallback`` / ``solver.backend_fallback``), so a fleet
silently running 10x slower shows up in the first manifest instead of a
profiler session.

Setting a kernel's env var (``REPRO_GPU_CBUILD`` /
``REPRO_SOLVER_CBUILD``) to ``fail`` forces the build to fail (test hook
for the fallback path); ``quiet`` suppresses the warning while keeping
the counter.  A kernel built without one (the co-sim cycle kernel,
which falls back whenever either of its two libraries does) has no
such hook.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Optional

# IEEE-strict flags: no FMA contraction, no fast-math — double
# arithmetic must match CPython's operation for operation.
CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Sentinel cached in :attr:`KernelBuild.cache` after a failed load, so
#: repeated consumers hit the counter instead of re-running the compiler.
LOAD_FAILED = object()


def find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


class KernelBuild:
    """Build/cache/load state for one on-demand C kernel.

    Parameters
    ----------
    source:
        Path to the ``.c`` translation unit.
    env_var:
        Override variable (``fail`` forces the fallback path, ``quiet``
        suppresses the warn-once), or ``None`` for none.
    what:
        Human name used in the fallback warning ("C step kernel").
    fallback:
        Description of the slow path the consumer lands on.
    counter:
        Telemetry counter name quoted in the warning.
    configure:
        Called with the freshly loaded :class:`ctypes.CDLL` to set
        argtypes/restypes; an :class:`AttributeError` (missing symbol)
        is treated as a failed load.
    """

    def __init__(
        self,
        source: Path,
        env_var: Optional[str],
        what: str,
        fallback: str,
        counter: str,
        configure: Callable[[ctypes.CDLL], None],
    ) -> None:
        self.source = source
        self.env_var = env_var
        self.what = what
        self.fallback = fallback
        self.counter = counter
        self.configure = configure
        self.cache_dir = source.parent / "_cbuild_cache"
        # Shared mutable state; module-level back-compat aliases (e.g.
        # repro.gpu._cbuild._LIB_CACHE) bind these same objects.
        self.cache: dict = {}
        self.fallbacks = {"count": 0, "warned": False}

    # ------------------------------------------------------------------
    # Fallback accounting
    # ------------------------------------------------------------------
    def fallback_count(self) -> int:
        """How many times this process fell back to the slow path."""
        return self.fallbacks["count"]

    def reset(self) -> None:
        """Test hook: forget cached load failures and fallback accounting."""
        self.cache.pop("lib", None)
        self.fallbacks["count"] = 0
        self.fallbacks["warned"] = False

    def note_fallback(self, reason: str) -> None:
        self.fallbacks["count"] += 1
        if self.fallbacks["warned"] or self._env() == "quiet":
            return
        self.fallbacks["warned"] = True
        warnings.warn(
            f"{self.what} unavailable ({reason}); falling back to "
            f"{self.fallback} — results are identical but substantially "
            f"slower (telemetry counter: {self.counter})",
            RuntimeWarning,
            stacklevel=4,
        )

    def _env(self) -> Optional[str]:
        return os.environ.get(self.env_var) if self.env_var else None

    # ------------------------------------------------------------------
    # Build + load
    # ------------------------------------------------------------------
    def _build(self, so_path: Path) -> bool:
        compiler = find_compiler()
        if compiler is None:
            return False
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix=f"{self.source.stem}_", dir=str(so_path.parent)
        )
        os.close(fd)
        try:
            result = subprocess.run(
                [compiler, *CFLAGS, "-o", tmp, str(self.source), "-lm"],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return False
            os.replace(tmp, so_path)  # atomic: concurrent builders race safely
            return True
        except (OSError, subprocess.SubprocessError):
            return False
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def load(self) -> Optional[ctypes.CDLL]:
        """The compiled kernel, or ``None`` when unavailable."""
        cached = self.cache.get("lib")
        if cached is LOAD_FAILED:
            # Count every consumer that lands on the slow path, not just
            # the first failed build, so the telemetry counter reflects
            # how much of the run actually ran slow.
            self.fallbacks["count"] += 1
            return None
        if cached is not None:
            return cached
        if self._env() == "fail":
            # Forced-failure test hook: behaves exactly like a failed
            # build (short-circuits before the cached-.so check so a
            # previously built artifact cannot mask the fallback path).
            self.cache["lib"] = LOAD_FAILED
            self.note_fallback(f"forced by {self.env_var}=fail")
            return None
        try:
            digest = hashlib.sha256(self.source.read_bytes()).hexdigest()[:16]
            so_path = self.cache_dir / f"{self.source.stem}_{digest}.so"
            if not so_path.exists() and not self._build(so_path):
                self.cache["lib"] = LOAD_FAILED
                self.note_fallback("compiler missing or build failed")
                return None
            lib = ctypes.CDLL(str(so_path))
            self.configure(lib)
        except (OSError, AttributeError):
            self.cache["lib"] = LOAD_FAILED
            self.note_fallback("shared object failed to load")
            return None
        self.cache["lib"] = lib
        return lib
