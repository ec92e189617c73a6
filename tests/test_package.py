"""Package-wide guards: submodules are the import surface, the sources use
only the standard library, and no check in them is an ``assert`` (which
``python -O`` strips)."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import chromaplex
from chromaplex.arrangement import Arrangement, Subspace
from chromaplex.hypergraph import Hypergraph, IndependenceSystem
from chromaplex.series import QPolynomial, TruncatedSeries

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
    every command pays for what ``import chromaplex.cli`` loads, so it loads
    neither ``dataclasses`` nor ``inspect`` (which ``dataclasses`` imports,
    with ``ast``, ``dis`` and ``tokenize``) either.  The engine modules are
    registered with the CLI, in ``sys.modules``, and each runs on its first
    use: the benchmark reads them from ``sys.modules`` once it has imported
    the CLI."""
    src = str(Path(chromaplex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    engines = ("scan", "chromatic", "hypergraph", "series", "arrangement")
    probe = (
        "import sys, chromaplex.cli; print(*(name in sys.modules for name in "
        "('multiprocessing', 'dataclasses', 'inspect')), "
        f"all('chromaplex.' + name in sys.modules for name in {engines!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (out.returncode, out.stdout.strip()) == (0, "False False False True"), out.stderr


@pytest.mark.parametrize("first", ["cli", "scan"])
def test_cli_import_keeps_the_benchmark_contract(first):
    """After ``import chromaplex.cli``, in a fresh interpreter, the
    benchmark's walk over the names of every chromaplex module in
    ``sys.modules`` completes and finds the caches it clears, although it
    runs the unrun engine modules as it goes; the CLI's engine module is the
    one ``import chromaplex.scan`` gives, imported before the CLI or after,
    and a bound attribute of the package once it has run."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(chromaplex.__file__).resolve().parents[1])}
    probe = (
        f"import sys; sys.path.insert(0, {str(root / 'bench')!r}); import run; "
        f"{'import chromaplex.scan; ' if first == 'scan' else ''}import chromaplex.cli as cli; "
        "caches = run.find_caches(); print(*sorted(caches)); import chromaplex.scan; "
        "print(chromaplex.scan is cli.SC is sys.modules['chromaplex.scan'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    caches, same = out.stdout.splitlines()
    assert {
        "arrangement._poset_data", "scan._orbit", "chromatic._partition_formula",
        "series.binomial_poly",
    } <= set(caches.split())
    assert same == "True"


_LINE = Subspace(((1, -1, 0),))
# per value class: the arguments of two equal instances, the repr they have
# (a frozen dataclass's), and an instance of another class with the same fields
_VALUES = {
    "Hypergraph": (
        Hypergraph, (3, ((1, 2),), ()), "Hypergraph(n=3, edges=((1, 2),), special=())",
        Arrangement(3, ((1, 2),), ()),
    ),
    "IndependenceSystem": (
        IndependenceSystem, (2, ((), (1,), (2,))),
        "IndependenceSystem(n=2, members=((), (1,), (2,)))", None,
    ),
    "Subspace": (Subspace, (((1, -1, 0),),), "Subspace(forms=((1, -1, 0),))", None),
    "Arrangement": (
        Arrangement, (3, (_LINE,), (1,)),
        "Arrangement(n=3, subspaces=(Subspace(forms=((1, -1, 0),)),), special=(1,))",
        Hypergraph(3, (_LINE,), (1,)),
    ),
    "TruncatedSeries": (
        TruncatedSeries, (1, (2,), {(1,): Fraction(3, 4), (0,): 2}),
        "TruncatedSeries(n=1, trunc=(2,), terms={(1,): Fraction(3, 4), (0,): 2})", None,
    ),
    "QPolynomial": (QPolynomial, ((1, Fraction(1, 2)),), "QPolynomial(num=(2, 1), den=2)", None),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_classes_keep_frozen_dataclass_semantics(name):
    """Each value class: equal fields give equal values with equal hashes
    (a series is unhashable); an instance of another class with the same
    fields, a subclass among them, or the plain tuple of the fields is
    unequal, both ways; no field can be assigned or deleted; the repr is a
    frozen dataclass's; pickle at every protocol, copy and deepcopy give an
    equal value."""
    cls, args, text, other = _VALUES[name]
    value, same = cls(*args), cls(*args)
    assert value == same and not value != same
    if cls is TruncatedSeries:
        assert cls.__hash__ is None
    else:
        assert hash(value) == hash(same)
    fields = tuple(getattr(value, field) for field in cls.__slots__)
    twin = type(f"{name}Twin", (cls,), {"__slots__": ()})(*args)
    for stranger in (fields, twin, other):
        if stranger is not None:
            assert value != stranger and stranger != value
            assert not value == stranger and not stranger == value
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(value, proto)) for proto in protocols]
    for clone in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text
        if cls is not TruncatedSeries:
            assert hash(clone) == hash(value)
