"""Error taxonomy shared across the package.

``ValueError`` (and subclasses) marks malformed or out-of-contract input.
``BudgetError`` marks a refused computation whose enumeration size exceeds
the configured budget.  ``VerificationError`` marks a cross-check mismatch
between two routes that must agree exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured budget; nothing was computed."""


class VerificationError(RuntimeError):
    """Two independently computed values that must agree exactly did not."""


class BadPrimeError(ValueError):
    """A finite-field count was requested at a prime where some intersection
    drops rank; the offending subsystem is reported in the message."""


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """Report a KeyError or TypeError raised while reading a JSON object and
    building the ``what`` from it as malformed input (a ValueError)."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} object: {exc}") from exc


def int_tuple(values: Iterable[object], what: str) -> tuple[int, ...]:
    """values as a tuple, refused unless every entry is an ``int`` (a
    ``bool`` is not one): a float or a string is not silently truncated."""
    values = tuple(values)
    # by type, since a bool is an instance of int
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be integers, got {values}")
    return values


def json_int(value: object) -> int:
    """A JSON integer: an ``int`` that is not a ``bool``.  Anything else (a
    float, a string, ``true``) raises TypeError, which ``malformed`` reports."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_ints(values: Iterable[object]) -> list[int]:
    """A JSON list of integers (see ``json_int``)."""
    return [json_int(v) for v in values]
