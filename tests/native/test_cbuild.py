"""KernelBuild: one compiler call links every source into one library.

Exercised on throwaway sources in a temporary directory, so nothing
here touches the repo's own native library or its fallback counter
(nor obeys a ``REPRO_CBUILD=fail`` set for it).
"""

import ctypes
import warnings

import pytest

from repro.native.cbuild import CBUILD_ENV, KernelBuild, find_compiler

pytestmark = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def _real_builds(monkeypatch):
    monkeypatch.delenv(CBUILD_ENV, raising=False)


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
    "kwargs",
    [
        {"cycle": "this is not C\n"},
        {"configure": lambda lib: lib.no_such_symbol},
    ],
    ids=["build-error", "missing-symbol"],
)
def test_failed_load_is_a_counted_fallback(tmp_path, kwargs):
    build = _build(tmp_path, **kwargs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert build.load() is None
        assert build.load() is None
    assert build.fallback_count() == 2
    assert sum("falling back" in str(w.message) for w in caught) == 1
