"""Compile-on-demand build of the repo's native library.

No new dependencies: the C sources are plain C with no Python headers,
so a stock system compiler (``cc``/``gcc``/``clang``) links them, and
any static archives given (NumPy's own C libraries), into one shared
object and stdlib :mod:`ctypes` drives it.  The artifact is cached
under ``_cbuild_cache/`` keyed by a hash of every source's and
archive's bytes, so the compiler runs once per revision of either;
concurrent builds (e.g. parallel sweep workers) race benignly through
an atomic rename.

The library is required: when no compiler is found, the build fails, a
source or archive is missing, or the shared object does not load,
:meth:`KernelBuild.load` raises :class:`NativeBuildError` with the
reason and the compiler's output.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence

# IEEE-strict flags: no FMA contraction, no fast-math — double
# arithmetic must match CPython's and NumPy's operation for operation.
CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]


class NativeBuildError(RuntimeError):
    """The native library could not be built or loaded."""


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
        or :class:`OSError` fails the load.
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

    def reset(self) -> None:
        """Forget the cached library: the next :meth:`load` builds or
        loads it again."""
        self.cache.pop("lib", None)

    def _build(self, so_path: Path) -> None:
        compiler = find_compiler()
        if compiler is None:
            raise NativeBuildError(
                "no C compiler found (tried cc, gcc and clang)"
            )
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
                text=True,
                timeout=120,
            )
            if result.returncode != 0:
                raise NativeBuildError(
                    f"{compiler} exited {result.returncode}:\n"
                    f"{result.stderr}{result.stdout}"
                )
            os.replace(tmp, so_path)  # atomic: concurrent builds race safely
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeBuildError(f"{compiler} failed to run: {exc}") from exc
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def load(self) -> ctypes.CDLL:
        """The compiled library; raises :class:`NativeBuildError`."""
        lib = self.cache.get("lib")
        if lib is not None:
            return lib
        try:
            digest = hashlib.sha256()
            for src in self.sources + self.archives:
                digest.update(src.name.encode())
                digest.update(src.read_bytes())
            so_path = self.cache_dir / f"native_{digest.hexdigest()[:16]}.so"
            if not so_path.exists():
                self._build(so_path)
            lib = ctypes.CDLL(str(so_path))
            self.configure(lib)
        except (OSError, AttributeError) as exc:
            raise NativeBuildError(
                f"native library failed to load: {exc}"
            ) from exc
        self.cache["lib"] = lib
        return lib
