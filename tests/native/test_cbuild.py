"""KernelBuild: one compiler call links every source into one library.

Exercised on throwaway sources in a temporary directory, so nothing
here touches the repo's own native library.  The repo's own sources
are only compiled to objects, to keep them warning-free.
"""

import ctypes
import shutil
import subprocess

import pytest

from repro import native
from repro.native.cbuild import (
    CFLAGS,
    KernelBuild,
    NativeBuildError,
    find_compiler,
)

ENGINE = "long long twice(long long x) { return 2 * x; }\n"
CYCLE = (
    "long long twice(long long x);\n"
    "long long quad(long long x) { return twice(twice(x)); }\n"
)


def _configure(lib):
    lib.quad.argtypes = [ctypes.c_longlong]
    lib.quad.restype = ctypes.c_longlong


def _build(tmp_path, engine=ENGINE, cycle=CYCLE, configure=_configure):
    (tmp_path / "engine.c").write_text(engine)
    (tmp_path / "cycle.c").write_text(cycle)
    return KernelBuild(
        [tmp_path / "engine.c", tmp_path / "cycle.c"],
        tmp_path / "cache",
        configure,
    )


def test_one_library_links_every_source(tmp_path):
    build = _build(tmp_path)
    lib = build.load()
    # quad (cycle.c) calls twice (engine.c) directly.
    assert lib is not None and lib.quad(3) == 12
    assert build.load() is lib
    assert len(list((tmp_path / "cache").glob("*.so"))) == 1


def test_editing_any_source_rebuilds(tmp_path):
    assert _build(tmp_path).load() is not None
    edited = ENGINE.replace("2 * x", "3 * x")
    lib = _build(tmp_path, engine=edited).load()
    assert lib.quad(1) == 9
    assert len(list((tmp_path / "cache").glob("*.so"))) == 2


@pytest.mark.parametrize(
    "kwargs, reason",
    [
        ({"cycle": "this is not C\n"}, "exited"),
        ({"configure": lambda lib: lib.no_such_symbol}, "no_such_symbol"),
    ],
    ids=["build-error", "missing-symbol"],
)
def test_failed_load_raises(tmp_path, kwargs, reason):
    """Every load of a broken library raises, with the reason."""
    build = _build(tmp_path, **kwargs)
    for _ in range(2):
        with pytest.raises(NativeBuildError, match=reason):
            build.load()


def _archive(tmp_path, source=ENGINE):
    """``source`` compiled into a static archive, as NumPy ships one."""
    (tmp_path / "engine.c").write_text(source)
    obj, lib = tmp_path / "engine.o", tmp_path / "libengine.a"
    flags = [f for f in CFLAGS if f != "-shared"]
    subprocess.run([find_compiler(), *flags, "-c", str(tmp_path / "engine.c"),
                    "-o", str(obj)], check=True, timeout=120)
    lib.unlink(missing_ok=True)
    subprocess.run(["ar", "rcs", str(lib), str(obj)], check=True, timeout=60)
    return lib


def _archive_build(tmp_path, archive):
    (tmp_path / "cycle.c").write_text(CYCLE)
    return KernelBuild([tmp_path / "cycle.c"], tmp_path / "cache",
                       _configure, archives=[archive])


@pytest.mark.skipif(shutil.which("ar") is None, reason="no ar available")
def test_archive_bytes_are_part_of_the_cache_key(tmp_path):
    """The library links its archives, and rebuilds when an archive's
    bytes change with every source the same."""
    archive = _archive(tmp_path)
    assert _archive_build(tmp_path, archive).load().quad(3) == 12
    archive = _archive(tmp_path, ENGINE.replace("2 * x", "3 * x"))
    assert _archive_build(tmp_path, archive).load().quad(1) == 9
    assert len(list((tmp_path / "cache").glob("*.so"))) == 2


def test_missing_archive_is_a_loud_failed_load(tmp_path):
    build = _archive_build(tmp_path, tmp_path / "libmissing.a")
    with pytest.raises(NativeBuildError, match="libmissing.a"):
        build.load()
    assert not (tmp_path / "cache").exists()


def test_the_native_library_links_numpys_random_archive():
    assert [a.name for a in native.ARCHIVES] == ["libnpyrandom.a"]
    assert native.LIBRARY.archives == list(native.ARCHIVES)


@pytest.mark.parametrize("source", native.SOURCES, ids=lambda p: p.name)
def test_native_sources_compile_without_warnings(tmp_path, source):
    """Each native source compiles cleanly under the build's IEEE flags
    with every common warning turned into an error."""
    flags = [f for f in CFLAGS if f != "-shared"]
    result = subprocess.run(
        [find_compiler(), *flags, "-Wall", "-Wextra", "-Werror", "-c",
         str(source), "-o", str(tmp_path / "source.o")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
