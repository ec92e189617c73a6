"""Exact truncated multivariate power series and univariate q-polynomials.

Representation
--------------
A truncated series in variables x_1..x_n is a sparse dict mapping exponent
tuples (e_1, ..., e_n) to nonzero ``Fraction`` coefficients, together with a
componentwise truncation vector ``trunc``: every exponent satisfies
e_i <= trunc[i], and all arithmetic silently drops terms that leave the
truncation window.  Coefficients are exact rationals throughout; there is no
floating point anywhere in this package.

``series_inverse`` works on the whole window at once: a dense list in
mixed-radix lex order, in which the coefficient at e - d sits at index(e) -
index(d).  An integral coefficient (and an integral 1/f_0) is carried as an
``int`` and any other as a ``Fraction``, so the inverse of an integral series
with constant term +-1, such as every signed independence series, is computed
in integers alone; the result holds ``Fraction``s like every series.

A ``QPolynomial`` is a dense univariate polynomial over ``Fraction`` in a
single variable q, used for counting polynomials.  Coefficients are stored
ascending with trailing zeros stripped, so equality of values is equality of
representations.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(value: int | str | Fraction) -> Fraction:
    if isinstance(value, float):
        raise ValueError("floating point coefficients are not accepted")
    return Fraction(value)


# ---------------------------------------------------------------------------
# truncated multivariate series
# ---------------------------------------------------------------------------


@dataclass
class TruncatedSeries:
    """Sparse exact series modulo (x_1^(t_1+1), ..., x_n^(t_n+1)).

    Instances are treated as immutable after construction; all operations
    return new series.
    """

    n: int
    trunc: tuple[int, ...]
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("need n >= 0")
        self.trunc = tuple(int(t) for t in self.trunc)
        if len(self.trunc) != self.n:
            raise ValueError("truncation vector length must equal n")
        if any(t < 0 for t in self.trunc):
            raise ValueError("truncation bounds must be >= 0")
        clean: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            e = tuple(int(v) for v in e)
            if len(e) != self.n or any(v < 0 for v in e):
                raise ValueError(f"bad exponent {e!r} for n={self.n}")
            if any(v > t for v, t in zip(e, self.trunc)):
                continue
            c = _as_fraction(c)
            if c != 0:
                clean[e] = c
        self.terms = clean

    def coeff(self, e: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(e), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.n, self.trunc, self.terms) == (other.n, other.trunc, other.terms)


def series_one(n: int, trunc: Sequence[int]) -> TruncatedSeries:
    return TruncatedSeries(n, tuple(trunc), {(0,) * n: ONE})


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.n != b.n or a.trunc != b.trunc:
        raise ValueError(
            f"incompatible series: n/trunc ({a.n}, {a.trunc}) vs ({b.n}, {b.trunc})"
        )


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product, discarding exponents outside the truncation window."""
    _check_compatible(a, b)
    trunc = a.trunc
    terms: dict[Exponent, Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(v1 + v2 for v1, v2 in zip(e1, e2))
            if any(v > t for v, t in zip(e, trunc)):
                continue
            s = terms.get(e, ZERO) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return TruncatedSeries(a.n, trunc, terms)


def _exact(c: Fraction) -> int | Fraction:
    """An integral coefficient as an ``int``, any other as it is."""
    return c.numerator if c.denominator == 1 else c


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term.

    The window is laid out densely in mixed-radix lex order, where every
    exponent comes after all exponents below it, and the coefficient of the
    inverse at e is determined by (a * g)[x^e] = [e == 0] once those are
    known; the one at e - d sits at index(e) - index(d).
    """
    zero = (0,) * a.n
    f0 = a.terms.get(zero, ZERO)
    if f0 == 0:
        raise ValueError("series has zero constant term, not invertible")
    inv0 = _exact(1 / f0)
    window = list(itertools.product(*(range(t + 1) for t in a.trunc)))
    strides = [math.prod(t + 1 for t in a.trunc[i + 1 :]) for i in range(a.n)]
    # one field per variable, its top bit a guard: e >= d componentwise
    # exactly when every guard survives (e | guards) - d
    width = max(a.trunc, default=0).bit_length() + 1
    shifts = [width * i for i in range(a.n)]
    guards = sum(1 << (s + width - 1) for s in shifts)

    def packed(e: Exponent) -> int:
        return sum(v << s for v, s in zip(e, shifts))

    nonconst = [
        (packed(d), sum(map(operator.mul, d, strides)), _exact(c))
        for d, c in a.terms.items()
        if d != zero
    ]
    g: list[int | Fraction] = [0] * len(window)
    g[0] = inv0
    for i in range(1, len(window)):
        pe = packed(window[i]) | guards
        acc = 0
        for pd, off, c in nonconst:
            if (pe - pd) & guards == guards:
                acc += c * g[i - off]
        if acc:
            g[i] = -acc * inv0
    return TruncatedSeries(a.n, a.trunc, {e: c for e, c in zip(window, g) if c})


def series_int_pow(a: TruncatedSeries, q: int) -> TruncatedSeries:
    """a**q for any integer q (negative powers invert first)."""
    if not isinstance(q, int):
        raise ValueError("exponent must be an integer")
    if q < 0:
        return series_int_pow(series_inverse(a), -q)
    result = series_one(a.n, a.trunc)
    base = a
    k = q
    while k:
        if k & 1:
            result = series_mul(result, base)
        base = series_mul(base, base) if k > 1 else base
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def fraction_to_str(c: Fraction) -> str:
    return str(c)


def series_to_json(a: TruncatedSeries) -> dict:
    items = sorted(a.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "n": a.n,
        "trunc": list(a.trunc),
        "terms": [{"e": list(e), "c": fraction_to_str(c)} for e, c in items],
    }


# ---------------------------------------------------------------------------
# polynomials in the color-count variable q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QPolynomial:
    """Univariate polynomial over Fraction, ascending coefficients."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = [_as_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def eval(self, v: int | Fraction) -> Fraction:
        v = _as_fraction(v)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __add__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            other = qpoly_const(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else ZERO)
                + (other.coeffs[i] if i < len(other.coeffs) else ZERO)
                for i in range(m)
            )
        )

    def __neg__(self) -> QPolynomial:
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            other = qpoly_const(other)
        return self + (-other)

    def __mul__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            c = _as_fraction(other)
            return QPolynomial(tuple(v * c for v in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return QPolynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, c: int | Fraction) -> QPolynomial:
        c = _as_fraction(c)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return QPolynomial(tuple(v / c for v in self.coeffs))


Q = QPolynomial((ZERO, ONE))


def qpoly_const(c: int | Fraction) -> QPolynomial:
    return QPolynomial((_as_fraction(c),))


@lru_cache(maxsize=None)
def binomial_poly(k: int) -> QPolynomial:
    """binomial(q, k) as a polynomial of degree k (k >= 0)."""
    return shifted_binomial_poly(0, k)


def shifted_binomial_poly(shift: int | Fraction, k: int) -> QPolynomial:
    """binomial(q - shift, k) as a polynomial in q."""
    if k < 0:
        raise ValueError("need k >= 0")
    p = qpoly_const(1)
    for j in range(k):
        p = p * (Q - (_as_fraction(shift) + j))
    return p / math.factorial(k)


def qpoly_interpolate(
    points: Iterable[tuple[int | Fraction, int | Fraction]],
) -> QPolynomial:
    """Exact Lagrange interpolation through the given (x, y) points."""
    pts = [(_as_fraction(x), _as_fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    total = QPolynomial()
    for i, (xi, yi) in enumerate(pts):
        if yi == 0:
            continue
        basis = qpoly_const(yi)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            basis = basis * (Q - xj) / (xi - xj)
        total = total + basis
    return total


def qpoly_to_json(p: QPolynomial) -> dict:
    return {"coeffs": [fraction_to_str(c) for c in p.coeffs]}


def qpoly_pretty(p: QPolynomial) -> str:
    """Human-readable form, descending powers: 'q^3 - 3/2*q + 1'."""
    if not p.coeffs:
        return "0"
    parts: list[tuple[str, str]] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
