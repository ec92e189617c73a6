"""Exact truncated multivariate power series and univariate q-polynomials.

Representation
--------------
A truncated series in variables x_1..x_n is a sparse dict mapping exponent
tuples (e_1, ..., e_n) to nonzero ``Fraction`` coefficients, together with a
componentwise truncation vector ``trunc``: every exponent satisfies
e_i <= trunc[i], and all arithmetic silently drops terms that leave the
truncation window.  Coefficients are exact rationals throughout; there is no
floating point anywhere in this package.

``series_mul``, ``series_int_pow`` and ``series_inverse`` share one kernel,
``DenseWindow``: the whole window as a dense list in mixed-radix lex order,
in which the coefficient at e - d sits at index(e) - index(d) and a guard bit
per packed field tests e >= d in one subtraction.  An integral coefficient
(and an integral 1/f_0) is carried as an ``int`` and any other as a
``Fraction``, so products, powers and the inverse of an integral series with
constant term +-1, such as every independence series, are computed in
integers alone.  A power squares on the dense list and becomes a series once,
at the end.  The window's size is charged to the budget before it is
allocated.

Every result holds ``Fraction``s like every series.  The public constructor
checks its input; series the package builds itself (results of the kernel,
independence series) go through ``TruncatedSeries._trusted``, which does not.

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
from typing import Iterable, Iterator, Sequence

from .budget import charge
from .errors import int_tuple

Exponent = tuple[int, ...]
# coefficients on a dense window, and its nonzero (packed, index, coefficient)
Dense = list[int | Fraction]
DenseTerms = list[tuple[int, int, int | Fraction]]

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
        self.trunc = int_tuple(self.trunc, "truncation bounds")
        if len(self.trunc) != self.n:
            raise ValueError("truncation vector length must equal n")
        if any(t < 0 for t in self.trunc):
            raise ValueError("truncation bounds must be >= 0")
        clean: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            e = int_tuple(e, "exponents")
            if len(e) != self.n or any(v < 0 for v in e):
                raise ValueError(f"bad exponent {e!r} for n={self.n}")
            if any(v > t for v, t in zip(e, self.trunc)):
                continue
            c = _as_fraction(c)
            if c != 0:
                clean[e] = c
        self.terms = clean

    @classmethod
    def _trusted(
        cls, n: int, trunc: tuple[int, ...], terms: dict[Exponent, Fraction]
    ) -> TruncatedSeries:
        """A series built inside the package, taken as it is: ``trunc`` a
        tuple of n ints >= 0 and ``terms`` nonzero ``Fraction``s at
        exponents inside it.  Nothing is checked."""
        self = object.__new__(cls)
        self.n, self.trunc, self.terms = n, trunc, terms
        return self

    def coeff(self, e: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(e), ZERO)


def series_one(n: int, trunc: Sequence[int]) -> TruncatedSeries:
    return TruncatedSeries(n, tuple(trunc), {(0,) * n: ONE})


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.n != b.n or a.trunc != b.trunc:
        raise ValueError(
            f"incompatible series: n/trunc ({a.n}, {a.trunc}) vs ({b.n}, {b.trunc})"
        )


def _exact(c: Fraction) -> int | Fraction:
    """An integral coefficient as an ``int``, any other as it is."""
    return c.numerator if c.denominator == 1 else c


class DenseWindow:
    """A truncation window laid out densely in mixed-radix lex order, where
    every exponent comes after all exponents below it.

    A series on the window is a list of coefficients, an ``int`` where it is
    integral and a ``Fraction`` otherwise.  Each exponent is also packed into
    one ``int`` with a field per variable whose top bit is a guard, so that
    componentwise comparisons are one subtraction: e >= d exactly when every
    guard survives (e | guards) - d, and then the coefficient at e - d sits
    at index(e) - index(d).  Building a window charges its size to the budget.
    """

    def __init__(self, trunc: tuple[int, ...]) -> None:
        size = math.prod(t + 1 for t in trunc)
        charge(size, f"dense series window of {size} coefficients")
        self.trunc = trunc
        self.strides = [math.prod(t + 1 for t in trunc[i + 1 :]) for i in range(len(trunc))]
        width = max(trunc, default=0).bit_length() + 1
        shifts = range(0, width * len(trunc), width)
        self.guards = sum(1 << (s + width - 1) for s in shifts)
        packs = [0]
        for t, s in zip(trunc, shifts):
            packs = [p + (v << s) for p in packs for v in range(t + 1)]
        self.packs = packs
        self.top = packs[-1]

    def exponents(self) -> Iterator[Exponent]:
        """Every exponent of the window, in its dense order."""
        return itertools.product(*(range(t + 1) for t in self.trunc))

    def values(self, a: TruncatedSeries) -> Dense:
        """The coefficients of a series on this window."""
        out: Dense = [0] * len(self.packs)
        for e, c in a.terms.items():
            out[sum(map(operator.mul, e, self.strides))] = _exact(c)
        return out

    def nonzero(self, x: Dense) -> DenseTerms:
        """(packed exponent, index, coefficient) for every nonzero entry."""
        return [(self.packs[j], j, c) for j, c in enumerate(x) if c]

    def mul(self, x: Dense, y_terms: DenseTerms) -> Dense:
        """x * y truncated to the window, y given by ``nonzero``: the product
        of the entries at e1 and e2 lands at index(e1) + index(e2) when
        e2 <= trunc - e1, that is when every guard survives
        ((top - packed(e1)) | guards) - packed(e2)."""
        packs, top, guards = self.packs, self.top, self.guards
        out: Dense = [0] * len(x)
        for i, c1 in enumerate(x):
            if c1:
                room = (top - packs[i]) | guards
                for pj, j, c2 in y_terms:
                    if (room - pj) & guards == guards:
                        out[i + j] += c1 * c2
        return out

    def inverse(self, x: Dense) -> Dense:
        """1/x: the entry at e is fixed by (x * g)[e] = [e == 0] once every
        entry before it is known, and the one at e - d sits at
        index(e) - index(d).  An integral 1/x_0 keeps integral inputs in
        ``int``s."""
        if not x[0]:
            raise ValueError("series has zero constant term, not invertible")
        inv0 = _exact(1 / Fraction(x[0]))
        packs, guards = self.packs, self.guards
        nonconst = self.nonzero(x)[1:]
        g: Dense = [0] * len(x)
        g[0] = inv0
        for i in range(1, len(x)):
            pe = packs[i] | guards
            acc = 0
            for pd, off, c in nonconst:
                if (pe - pd) & guards == guards:
                    acc += c * g[i - off]
            if acc:
                g[i] = -acc * inv0
        return g

    def series(self, x: Dense) -> TruncatedSeries:
        """The series with coefficients x, its terms as ``Fraction``s."""
        terms = {e: Fraction(c) for e, c in zip(self.exponents(), x) if c}
        return TruncatedSeries._trusted(len(self.trunc), self.trunc, terms)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product, discarding exponents outside the truncation window."""
    _check_compatible(a, b)
    w = DenseWindow(a.trunc)
    return w.series(w.mul(w.values(a), w.nonzero(w.values(b))))


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    w = DenseWindow(a.trunc)
    return w.series(w.inverse(w.values(a)))


def series_int_pow(a: TruncatedSeries, q: int) -> TruncatedSeries:
    """a**q for any integer q (negative powers invert first), by repeated
    squaring on the dense window."""
    (q,) = int_tuple((q,), "exponent")
    w = DenseWindow(a.trunc)
    base = w.values(a)
    if q < 0:
        base, q = w.inverse(base), -q
    result: Dense = [0] * len(base)
    result[0] = 1
    while q:
        if q & 1:
            result = w.mul(result, w.nonzero(base))
        q >>= 1
        if q:
            base = w.mul(base, w.nonzero(base))
    return w.series(result)


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
        cs = [c if type(c) is Fraction else _as_fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def eval(self, v: int | Fraction) -> Fraction:
        """The value at v, by Horner's rule in integers: with v = x/y and
        den the common denominator of the coefficients, the value is
        sum_i (c_i * den) * x^i * y^(d-i) over den * y^d."""
        v = _as_fraction(v)
        x, y = v.numerator, v.denominator
        den = math.lcm(*(c.denominator for c in self.coeffs))
        total = 0
        scale = 1  # y^(d-i)
        for c in reversed(self.coeffs):
            total = total * x + c.numerator * (den // c.denominator) * scale
            scale *= y
        return Fraction(total, den * y ** max(self.degree, 0))

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


@lru_cache(maxsize=256)
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
