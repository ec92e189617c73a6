"""Error taxonomy shared across the package.

``ValueError`` (and subclasses) marks malformed or out-of-contract input.
``BudgetError`` marks a refused computation whose enumeration size exceeds
the configured budget.  ``VerificationError`` marks a cross-check mismatch
between two routes that must agree exactly.

The input contract lives here too: every size, vector and vertex set that a
public entry point takes goes through ``natural``, ``vector`` or
``vertex_set``, and no other module words a refusal of its own for them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured budget; nothing was computed."""


class VerificationError(RuntimeError):
    """Two independently computed values that must agree exactly did not."""


class BadPrimeError(ValueError):
    """A finite-field count was requested at a prime that changes the
    intersection poset; the message names members whose intersection
    changed."""


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """Report a KeyError, TypeError or ValueError raised while reading a JSON
    object and building the ``what`` from it as malformed input (a
    ValueError)."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} object: {exc}") from exc


def json_array(value: object, what: str, depth: int = 1) -> list:
    """value, refused unless a JSON array, of arrays down to the given depth:
    a string or an object is not read as one."""
    if not isinstance(value, list):
        raise ValueError(f"{what}: {value!r} is not a JSON array")
    return [json_array(v, what, depth - 1) for v in value] if depth > 1 else value


def int_tuple(values: Iterable[object], what: str) -> tuple[int, ...]:
    """values as a tuple, refused unless every entry is an ``int`` (a
    ``bool`` is not one): a float or a string is not silently truncated."""
    values = tuple(values)
    for v in values:
        # by type, since a bool is an instance of int
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {values}")
    return values


def natural(value: object, what: str) -> int:
    """value, refused unless an ``int`` >= 0: a size or a count."""
    (value,) = int_tuple((value,), what)
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def vector(values: Iterable[object], n: int, what: str) -> tuple[int, ...]:
    """values as a tuple, refused unless n ``int``s >= 0: a multiplicity
    vector, a truncation window or an exponent on n variables."""
    values = tuple(values)
    bad = len(values) != n
    for v in values:  # one pass, but every type before the length and signs
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {values}")
        bad = bad or v < 0
    if bad:
        raise ValueError(f"bad {what} {values}: need {n} entries, each >= 0")
    return values


def vertex_set(values: Iterable[object], n: int, what: str) -> tuple[int, ...]:
    """values as a sorted tuple of distinct ``int``s, refused unless each
    lies in 1..n."""
    out = sorted(set(int_tuple(values, what)))
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"{what} {tuple(out)} outside 1..{n}")
    return tuple(out)
