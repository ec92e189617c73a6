"""Package-wide guards: submodules are the import surface, the sources use
only the standard library, and no check in them is an ``assert`` (which
``python -O`` strips)."""

import ast
import functools
import importlib
import sys
import types
from pathlib import Path

import chromaplex

SOURCES = sorted(Path(chromaplex.__file__).parent.glob("*.py"))
# ``__main__`` runs the CLI when imported
MODULES = [p.stem for p in SOURCES if p.stem not in ("__init__", "__main__")]


def test_submodule_imports_yield_modules():
    assert {"arrangement", "chromatic", "cli", "hypergraph", "scan", "series"} <= set(MODULES)
    for name in MODULES:
        namespace = {}
        exec(f"import chromaplex.{name} as m", namespace)
        assert isinstance(namespace["m"], types.ModuleType), name
        assert namespace["m"].__name__ == f"chromaplex.{name}"


def test_sources_import_only_the_standard_library():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "chromaplex" or top in sys.stdlib_module_names, (path.name, name)


def test_sources_have_no_assert():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_caches_are_bounded():
    """Every lru_cache in the package's modules, found the way the benchmark
    finds the caches it clears, has a finite bound."""
    caches = {}
    for name in MODULES:
        for value in vars(importlib.import_module(f"chromaplex.{name}")).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__name__}"] = value
    assert {"chromaplex.chromatic._block_tables", "chromaplex.series.binomial_poly"} <= set(caches)
    for name, fn in caches.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1 << 16, name


def test_bench_names_resolve(monkeypatch):
    """The names the benchmark reads exist: every traced (module, function)
    in ``bench/spans.py`` and every cache in ``bench/run.py`` whose hit ratio
    it reports, as an ``lru_cache`` under its own name.  ``run.py`` also
    counts flats through ``arrangement._poset_data``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import run
    import spans

    for mod, fn in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"chromaplex.{mod}"), fn, None)), (mod, fn)
    caches = [cache for _, cache in run.HIT_RATIOS] + ["arrangement._poset_data"]
    for cache in caches:
        mod, fn = cache.split(".")
        value = getattr(importlib.import_module(f"chromaplex.{mod}"), fn)
        assert isinstance(value, functools._lru_cache_wrapper), cache
        assert value.__name__ == fn, cache
