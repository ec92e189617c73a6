"""Package-wide guards: submodules are the import surface, the sources use
only the standard library, and no check in them is an ``assert`` (which
``python -O`` strips)."""

import ast
import sys
import types
from pathlib import Path

import chromaplex
import chromaplex.arrangement as arrangement
import chromaplex.chromatic as chromatic
import chromaplex.series as series

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
    """Every lru_cache has a finite bound, and the two the benchmark reads
    hit ratios from keep their names."""
    caches = [
        chromatic._partition_formula,
        series.binomial_poly,
        arrangement._poset_data,
        arrangement.characteristic_polynomial,
    ]
    for fn in caches:
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1 << 16, fn.__name__
    assert chromatic._partition_formula.__name__ == "_partition_formula"
    assert series.binomial_poly.__name__ == "binomial_poly"
