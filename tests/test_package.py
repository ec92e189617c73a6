"""Package-wide guards: submodules are the import surface, the sources use
only the standard library, and no check in them is an ``assert`` (which
``python -O`` strips)."""

import ast
import importlib
import os
import subprocess
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


def test_input_contract_is_checked_in_errors_only():
    """No module but ``errors`` raises a ValueError whose message says a value
    is outside 1..n or must be >= 0: sizes, vectors and vertex sets are
    checked by ``natural``, ``vector`` and ``vertex_set`` alone."""
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValueError":
                texts = [
                    part.value
                    for arg in exc.args
                    for part in ast.walk(arg)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                ]
                bad = [t for t in texts if "outside 1.." in t or ">= 0" in t]
                assert bad == [], (path.name, node.lineno, bad)


def test_caches_are_bounded():
    """Every lru_cache in the package's modules, found the way the benchmark
    finds the caches it clears, has a finite bound."""
    caches = {}
    for name in MODULES:
        for value in vars(importlib.import_module(f"chromaplex.{name}")).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__name__}"] = value
    assert {"chromaplex.chromatic._tables", "chromaplex.series.binomial_poly"} <= set(caches)
    for name, fn in caches.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1 << 16, name


def test_bench_names_resolve(monkeypatch):
    """The names the benchmark reads exist: every traced (module, function)
    in ``bench/spans.py`` and every cache in ``bench/run.py`` whose hit ratio
    it reports, as a cache that ``run.find_caches`` finds, under its own
    name.  ``run.py`` also counts flats through ``arrangement._poset_data``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import run
    import spans

    for mod, fn in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"chromaplex.{mod}"), fn, None)), (mod, fn)
    caches = [cache for _, cache in run.HIT_RATIOS] + ["arrangement._poset_data"]
    for cache in caches:
        mod, fn = cache.split(".")
        value = getattr(importlib.import_module(f"chromaplex.{mod}"), fn)
        assert run.find_caches().get(cache) is value, cache
        assert value.__name__ == fn, cache


def test_modules_import_no_private_sibling_names():
    """No module imports an underscore name from another module of the
    package: what one module shares with another is public."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "chromaplex"
            ):
                names = [alias.name for alias in node.names]
                private = [name for name in names if name[:1] == "_" and name[-2:] != "__"]
                assert private == [], (path.name, node.module, private)


def test_cli_import_loads_no_multiprocessing():
    """Only a scan that starts worker processes needs ``multiprocessing``;
    every command pays for what ``import chromaplex.cli`` loads.  The engine
    modules, though, must load with it: the benchmark reads them from
    ``sys.modules`` once it has imported the CLI, so a subcommand that
    imported its engine lazily would break every benchmark run."""
    src = str(Path(chromaplex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    engines = ("scan", "chromatic", "hypergraph", "series", "arrangement")
    probe = (
        "import sys, chromaplex.cli; print('multiprocessing' in sys.modules, "
        f"all('chromaplex.' + name in sys.modules for name in {engines!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (out.returncode, out.stdout.strip()) == (0, "False True"), out.stderr
