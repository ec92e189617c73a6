"""Spans around calls into chromaplex, recorded from the benchmark side.

The program is not edited.  ``Tracer.install`` replaces each traced function
by a timing wrapper in every ``chromaplex`` module namespace that binds it,
so calls between modules (``scan`` calling ``series_inverse``, ``cli``
calling ``count_complement``) are seen exactly where each module looks the
name up.  ``uninstall`` puts the original objects back.

Spans are aggregated in memory per function: call count and self time
(span time minus the time of traced spans nested inside it).
Generator functions get one span per resumed step, so their self time is
the time spent producing items, not the time the consumer holds them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

# (module, function) pairs, named as the per-layer metrics name them
TARGETS = (
    ("scan", "canonical_form"),
    ("scan", "inverse_nonneg_check"),
    ("scan", "enumerate_simple_hypergraphs"),
    ("series", "series_inverse"),
    ("series", "series_mul"),
    ("series", "series_int_pow"),
    ("chromatic", "coefficient_via_binomial"),
    ("chromatic", "marked_chromatic_poly"),
    ("chromatic", "count_Pk_mult"),
    ("chromatic", "brute_force_count"),
    ("hypergraph", "system_series"),
    ("hypergraph", "hypergraph_from_system"),
    ("hypergraph", "marked_independence_series"),
    ("hypergraph", "independent_sets"),
    ("hypergraph", "hypergraph"),
    ("arrangement", "characteristic_polynomial"),
    ("arrangement", "rref"),
    ("arrangement", "arrangement"),
    ("arrangement", "clan_lambda"),
    ("arrangement", "count_complement"),
    ("arrangement", "brute_force_arrangement_count"),
)


class Span:
    __slots__ = ("calls", "self_time", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.counts: dict[str, int] = {}


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "chromaplex" or name.startswith("chromaplex."))
    ]


class Tracer:
    """Aggregated spans for the functions in ``TARGETS``.

    ``counters`` maps a qualified name to a function ``(args, result, missed)
    -> {counter: amount}`` evaluated after each call, for counts taken at the
    same boundary as the span (terms produced, flats built, points visited).
    ``missed`` tells whether an ``lru_cache``d function computed the result
    (always true for uncached functions).
    """

    def __init__(self, counters: dict[str, Callable] | None = None) -> None:
        self.spans: dict[str, Span] = {f"{m}.{f}": Span() for m, f in TARGETS}
        self.counters = counters or {}
        # child time accumulated by the currently open spans, innermost last
        self._stack: list[float] = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, span: Span, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += dt
        span.self_time += dt - child

    def discount(self, seconds: float) -> None:
        """Count time spent by the benchmark itself inside the innermost open
        span as child time, so it is not that span's self time."""
        self._stack[-1] += seconds

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        span = self.spans[qualname]
        count = self.counters.get(qualname)
        cache_info = getattr(fn, "cache_info", None)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            misses = cache_info().misses if cache_info is not None else 0
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, t0)
            if count is not None:
                missed = cache_info is None or cache_info().misses > misses
                for key, amount in count(args, result, missed).items():
                    span.counts[key] = span.counts.get(key, 0) + amount
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"chromaplex.{mod_name}"]
            original = getattr(home, fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
