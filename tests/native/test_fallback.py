"""Failure contract of the native library (repro.native).

The library is required: every way it can fail to build or load raises
:class:`NativeBuildError` with the reason — no compiler, a source that
does not compile (the message carries the compiler's diagnostic) — and
``reset`` forgets the cached library.  Every compiled layer runs on the
one library.
"""

import pytest

from repro import native
from repro.gpu import GPU, KernelSpec
from repro.native import KernelBuild, NativeBuildError, cbuild
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    last_batch_solver_info,
    run_cosim_batch,
)

CONFIG = CosimConfig(cycles=40, warmup_cycles=10, seed=1)


class TestForcedFailure:
    def test_no_compiler_fails_the_build(self, tmp_path, monkeypatch):
        """The library's own sources, built into an empty cache with no
        compiler on the machine."""
        monkeypatch.setattr(cbuild, "find_compiler", lambda: None)
        build = KernelBuild(native.SOURCES, tmp_path / "cache",
                            native.LIBRARY.configure,
                            archives=native.ARCHIVES)
        with pytest.raises(NativeBuildError, match="no C compiler"):
            build.load()
        assert not list(tmp_path.rglob("*.so"))

    def test_compile_error_carries_the_diagnostic(self, tmp_path):
        source = tmp_path / "broken.c"
        source.write_text("long long broken(void) { return no_such_name; }\n")
        build = KernelBuild([source], tmp_path / "cache", lambda lib: None)
        with pytest.raises(NativeBuildError, match="exited") as failure:
            build.load()
        assert "no_such_name" in str(failure.value)
        assert not list(tmp_path.rglob("*.so"))

    def test_reset_forgets_the_cached_library(self):
        lib = native.load()
        assert native.load() is lib
        native.reset()
        assert native.LIBRARY.cache == {}
        reloaded = native.load()
        assert reloaded is not lib and reloaded._name == lib._name


class TestBackendSelection:
    def test_every_layer_shares_the_one_library(self):
        lib = native.load()
        gpu = GPU(KernelSpec("one-lib", body_length=40))
        assert gpu.engine.backend == "c" and gpu.engine._clib is lib
        run_cosim_batch([CosimLane("hotspot", CONFIG)])
        info = last_batch_solver_info()
        assert info["backend"] == "c"
        assert info["fused_cycles"] == CONFIG.warmup_cycles + CONFIG.cycles
