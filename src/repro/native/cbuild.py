"""Compile-on-demand build of the repo's native library.

No new dependencies: the C sources are plain C with no Python headers,
so a stock system compiler (``cc``/``gcc``/``clang``) links them, and
any static archives given (NumPy's own C libraries), into one shared
object and stdlib :mod:`ctypes` drives it.  The artifact is cached
under ``_cbuild_cache/`` keyed by a hash of every source's and
archive's bytes, so the compiler runs once per revision of either;
concurrent builds (e.g. parallel sweep workers) race benignly through
an atomic rename.  A missing source or archive is a failed load.

When no compiler is available or the build fails, :meth:`KernelBuild.load`
returns ``None`` and every consumer runs its pure-NumPy path — same
results (both are bit-identical by contract), just slower.  The
fallback is *loud*: one :class:`RuntimeWarning` per process, a count of
every consumer that landed on a NumPy path, and one
``native.backend_fallback`` count in the telemetry of every co-sim run
on the fallback, so a fleet silently running 10x slower shows up in the
first manifest instead of in a profile.

Setting ``REPRO_CBUILD=fail`` forces the build to fail (the test hook
for the fallback paths).
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
from typing import Callable, Optional, Sequence

# IEEE-strict flags: no FMA contraction, no fast-math — double
# arithmetic must match CPython's and NumPy's operation for operation.
CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: ``fail`` forces the build to fail (test hook for the fallback paths).
CBUILD_ENV = "REPRO_CBUILD"
#: Telemetry counter of co-sim runs on the NumPy fallback.
COUNTER = "native.backend_fallback"

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
    """Build/cache/load state for one on-demand shared library.

    Parameters
    ----------
    sources:
        The ``.c`` translation units linked into the library.
    cache_dir:
        Where built artifacts are kept.
    configure:
        Called with the freshly loaded :class:`ctypes.CDLL` to set
        argtypes/restypes; an :class:`AttributeError` (missing symbol)
        or :class:`OSError` is treated as a failed load.
    archives:
        Static libraries linked after the sources.
    """

    def __init__(
        self,
        sources: Sequence[Path],
        cache_dir: Path,
        configure: Callable[[ctypes.CDLL], None],
        archives: Sequence[Path] = (),
    ) -> None:
        self.sources = list(sources)
        self.archives = list(archives)
        self.cache_dir = cache_dir
        self.configure = configure
        self.cache: dict = {}
        self.fallbacks = {"count": 0, "warned": False}

    # ------------------------------------------------------------------
    # Fallback accounting
    # ------------------------------------------------------------------
    def fallback_count(self) -> int:
        """How many times this process fell back to a NumPy path."""
        return self.fallbacks["count"]

    def reset(self) -> None:
        """Test hook: forget the cached load and fallback accounting."""
        self.cache.pop("lib", None)
        self.fallbacks["count"] = 0
        self.fallbacks["warned"] = False

    def _note_fallback(self, reason: str) -> None:
        self.cache["lib"] = LOAD_FAILED
        self.fallbacks["count"] += 1
        if self.fallbacks["warned"]:
            return
        self.fallbacks["warned"] = True
        warnings.warn(
            f"native library unavailable ({reason}); falling back to the "
            f"NumPy paths — results are identical but substantially "
            f"slower (telemetry counter: {COUNTER})",
            RuntimeWarning,
            stacklevel=4,
        )

    # ------------------------------------------------------------------
    # Build + load
    # ------------------------------------------------------------------
    def _build(self, so_path: Path) -> bool:
        compiler = find_compiler()
        if compiler is None:
            return False
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix="native_", dir=str(so_path.parent)
        )
        os.close(fd)
        try:
            result = subprocess.run(
                [compiler, *CFLAGS, "-o", tmp,
                 *[str(src) for src in self.sources + self.archives],
                 "-lm"],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return False
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
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
        """The compiled library, or ``None`` when unavailable."""
        cached = self.cache.get("lib")
        if cached is LOAD_FAILED:
            # Count every consumer that lands on the slow path, not just
            # the first failed build.
            self.fallbacks["count"] += 1
            return None
        if cached is not None:
            return cached
        if os.environ.get(CBUILD_ENV) == "fail":
            # Forced-failure test hook: behaves exactly like a failed
            # build (short-circuits before the cached-.so check so a
            # previously built artifact cannot mask the fallback path).
            self._note_fallback(f"forced by {CBUILD_ENV}=fail")
            return None
        try:
            digest = hashlib.sha256()
            for src in self.sources + self.archives:
                digest.update(src.name.encode())
                digest.update(src.read_bytes())
            so_path = self.cache_dir / f"native_{digest.hexdigest()[:16]}.so"
            if not so_path.exists() and not self._build(so_path):
                self._note_fallback("compiler missing or build failed")
                return None
            lib = ctypes.CDLL(str(so_path))
            self.configure(lib)
        except (OSError, AttributeError) as exc:
            self._note_fallback(f"shared object failed to load: {exc}")
            return None
        self.cache["lib"] = lib
        return lib
