"""Exact truncated multivariate power series and univariate q-polynomials.

Representation
--------------
A truncated series in variables x_1..x_n is a sparse dict mapping exponent
tuples (e_1, ..., e_n) to nonzero coefficients, together with a
componentwise truncation vector ``trunc``: every exponent satisfies
e_i <= trunc[i], and all arithmetic silently drops terms that leave the
truncation window.  Coefficients are exact rationals throughout, in one
form (``_exact``): an ``int`` where integral, a ``Fraction`` otherwise.
There is no floating point anywhere in this package.

``series_mul``, ``series_int_pow`` and ``series_inverse`` share one kernel,
``DenseWindow``: the whole window as a dense list in mixed-radix lex order,
in which the coefficient at e - d sits at index(e) - index(d) and a guard bit
per packed field tests e >= d in one subtraction.  Products, powers and the
inverse of an integral series with constant term +-1, such as every
independence series, are computed in integers alone.  A power squares on the
dense list and becomes a series once, at the end.  The inverse is a generator
in lex order (``inverse_entries``), so a caller that reads a prefix computes
no more.  Small windows are cached (``dense_window``); each call charges the
size before the cache is asked.  The public constructor checks its input;
series the package builds itself go through ``TruncatedSeries._trusted``,
which does not.

A ``QPolynomial`` is a dense univariate polynomial over Q in a single
variable q, used for counting polynomials: integer numerators, ascending,
over one positive denominator, in lowest terms and with trailing zeros
stripped, so equality of values is equality of representations.  Arithmetic
and ``eval`` run on ``int``s; ``Fraction``s are built only for the ``coeffs``
view and for values.  ``poly_from_binomial_coordinates`` is the one conversion
from integer coordinates in the basis binomial(q, k); every binomial
polynomial in the package goes through it.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .budget import charge
from .errors import Frozen, int_tuple, natural, vector

Exponent = tuple[int, ...]
# coefficients on a dense window, and its nonzero (packed, index, coefficient)
Dense = list[int | Fraction]
DenseTerms = list[tuple[int, int, int | Fraction]]


# ---------------------------------------------------------------------------
# truncated multivariate series
# ---------------------------------------------------------------------------


class TruncatedSeries(Frozen):
    """Sparse exact series modulo (x_1^(t_1+1), ..., x_n^(t_n+1)).  Its fields
    are set once, and all operations return new series; ``terms`` is a dict,
    so a series is not hashable."""

    __slots__ = ("n", "trunc", "terms")
    __hash__ = None

    def __init__(
        self, n: int, trunc: Sequence[int], terms: Mapping[Exponent, int | Fraction] | None = None
    ) -> None:
        n = natural(n, "n")
        trunc = vector(trunc, n, "truncation bounds")
        clean: dict[Exponent, int | Fraction] = {}
        for e, c in (terms or {}).items():
            e = vector(e, n, "exponents")
            if any(v > t for v, t in zip(e, trunc)):
                continue
            if c := _exact(_rational(c, "coefficients")):
                clean[e] = c
        self.__setstate__((n, trunc, clean))

    @classmethod
    def _trusted(
        cls, n: int, trunc: tuple[int, ...], terms: dict[Exponent, int | Fraction]
    ) -> TruncatedSeries:
        """A series built inside the package, taken as it is: ``trunc`` a
        tuple of n ints >= 0 and ``terms`` nonzero ``_exact`` coefficients at
        exponents inside it.  Nothing is checked."""
        self = object.__new__(cls)
        self.__setstate__((n, trunc, terms))
        return self

    def coeff(self, e: Sequence[int]) -> int | Fraction:
        """The coefficient at exponent e, refused outside the window, where
        the truncated series does not determine it."""
        e = tuple(e)
        # by type, so that (1.0,) and (True,), equal and hashed like (1,), are refused
        if (c := self.terms.get(e)) is not None and operator.countOf(map(type, e), int) == len(e):
            return c
        e = vector(e, self.n, "exponents")
        if any(map(operator.gt, e, self.trunc)):
            raise ValueError(f"exponent {e} lies outside the truncation window {self.trunc}")
        return 0


def _exact(c: int | Fraction) -> int | Fraction:
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
    at index(e) - index(d).  Windows are shared: see ``dense_window``.
    """

    def __init__(self, trunc: tuple[int, ...]) -> None:
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
        # the number of pairs (e1, e2) with e1 + e2 in the window
        self.pairs = math.prod((t + 1) * (t + 2) // 2 for t in trunc)
        self.fits: list[list[int]] | None = None

    def exponents(self) -> Iterator[Exponent]:
        """Every exponent of the window, in its dense order."""
        return itertools.product(*(range(t + 1) for t in self.trunc))

    def values(self, a: TruncatedSeries) -> Dense:
        """The coefficients of a series on this window."""
        out: Dense = [0] * len(self.packs)
        for e, c in a.terms.items():
            out[sum(map(operator.mul, e, self.strides))] = c
        return out

    def nonzero(self, x: Dense) -> DenseTerms:
        """(packed exponent, index, coefficient) for every nonzero entry."""
        return [(self.packs[j], j, c) for j, c in enumerate(x) if c]

    def mul(self, x: Dense, y: Dense) -> Dense:
        """x * y truncated to the window: the entries at e1 and e2 meet at
        index(e1) + index(e2) when e2 <= trunc - e1.  Each e1 reads its e2 from
        ``fits``, built once, if the window's pairs are at most nnz(x) * nnz(y)
        and 2^16 (a window of at most 1,024 entries, so a cached one); else
        each nonzero pair is tested: e2 fits when every guard survives
        ((top - packed(e1)) | guards) - packed(e2)."""
        out: Dense = [0] * len(x)
        if self.pairs <= min((len(x) - x.count(0)) * (len(y) - y.count(0)), 1 << 16):
            if self.fits is None:
                self.fits = [self._fit(e) for e in self.exponents()]
            for i, c1, fit in zip(range(len(x)), x, self.fits):
                if c1:
                    for j in fit:
                        if c2 := y[j]:
                            out[i + j] += c1 * c2
            return out
        packs, top, guards = self.packs, self.top, self.guards
        y_terms = self.nonzero(y)
        for i, c1 in enumerate(x):
            if c1:
                room = (top - packs[i]) | guards
                for pj, j, c2 in y_terms:
                    if (room - pj) & guards == guards:
                        out[i + j] += c1 * c2
        return out

    def _fit(self, e: Exponent) -> list[int]:
        """The indices of the exponents <= trunc - e."""
        room = itertools.product(*(range(t - v + 1) for t, v in zip(self.trunc, e)))
        return [sum(map(operator.mul, d, self.strides)) for d in room]

    def inverse_entries(self, x: Dense) -> Iterator[int | Fraction]:
        """The entries of 1/x in lex order, each computed when it is asked
        for: the entry at e is fixed by (x * g)[e] = [e == 0] once every
        entry before it is known, and the one at e - d sits at
        index(e) - index(d).  An integral 1/x_0 keeps integral inputs in
        ``int``s."""
        if not x[0]:
            raise ValueError("series has zero constant term, not invertible")
        inv0 = _exact(1 / Fraction(x[0]))
        packs, guards = self.packs, self.guards
        nonconst = self.nonzero(x)[1:]
        g: Dense = [inv0]
        yield inv0
        for i in range(1, len(x)):
            pe = packs[i] | guards
            acc = 0
            for pd, off, c in nonconst:
                if (pe - pd) & guards == guards:
                    acc += c * g[i - off]
            g.append(-acc * inv0 if acc else 0)
            yield g[i]

    def series(self, x: Dense) -> TruncatedSeries:
        """The series with coefficients x, an integral ``Fraction`` (which
        Fraction arithmetic can leave) as an ``int``."""
        terms = {e: _exact(c) for e, c in zip(self.exponents(), x) if c}
        return TruncatedSeries._trusted(len(self.trunc), self.trunc, terms)


def dense_window(trunc: tuple[int, ...]) -> DenseWindow:
    """The dense window of ``trunc``, shared by every caller.  Its size is
    charged first: windows of over 4,096 entries, large and cheap to build
    next to the work done on them, are built on every call and not kept."""
    size = math.prod(t + 1 for t in trunc)
    charge(size, f"dense series window of {size} coefficients")
    return _dense_window(trunc) if size <= 4096 else DenseWindow(trunc)


# bounded: a scan to n = 5 meets 21 windows, a coeffs round three
@lru_cache(maxsize=32)
def _dense_window(trunc: tuple[int, ...]) -> DenseWindow:
    return DenseWindow(trunc)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product, discarding exponents outside the truncation window."""
    if a.n != b.n or a.trunc != b.trunc:
        raise ValueError(f"incompatible series: n/trunc ({a.n}, {a.trunc}) vs ({b.n}, {b.trunc})")
    w = dense_window(a.trunc)
    return w.series(w.mul(w.values(a), w.values(b)))


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    w = dense_window(a.trunc)
    return w.series(list(w.inverse_entries(w.values(a))))


def series_int_pow(a: TruncatedSeries, q: int) -> TruncatedSeries:
    """a**q for any integer q (negative powers invert first), by repeated
    squaring on the dense window from the first factor needed: q = 1 takes
    no product.  Each product takes one of ``DenseWindow.mul``'s two loops
    by its operands' sizes: a sparse base tests its nonzero pairs, a dense
    one visits the fit lists."""
    (q,) = int_tuple((q,), "exponent")
    w = dense_window(a.trunc)
    base = w.values(a)
    if q < 0:
        base, q = list(w.inverse_entries(base)), -q
    result: Dense | None = None
    while q:
        if q & 1:
            result = base if result is None else w.mul(result, base)
        q >>= 1
        if q:
            base = w.mul(base, base)
    return w.series([1] + [0] * (len(base) - 1) if result is None else result)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def series_to_json(a: TruncatedSeries) -> dict:
    items = sorted(a.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "n": a.n,
        "trunc": list(a.trunc),
        "terms": [{"e": list(e), "c": str(c)} for e, c in items],
    }


# ---------------------------------------------------------------------------
# polynomials in the color-count variable q
# ---------------------------------------------------------------------------


def _rational(value: int | Fraction, what: str) -> int | Fraction:
    """value, refused unless an ``int`` or a ``Fraction`` by type (a bool is neither)."""
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"{what} must be integers or Fractions, got {value!r}")
    return value


class QPolynomial(Frozen):
    """Univariate polynomial over Q, ascending: integer numerators ``num``
    over one denominator ``den`` > 0, with no trailing zero and
    gcd(den, *num) = 1.  ``QPolynomial(coeffs)`` takes ints and Fractions."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[int | Fraction] = ()) -> None:
        cs = [_rational(c, "polynomial coefficients") for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._settle([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, num: list[int], den: int) -> QPolynomial:
        """The polynomial sum_i num[i] q^i / den, for ints and den != 0."""
        self = object.__new__(cls)
        self._settle(num, den)
        return self

    def _settle(self, num: list[int], den: int) -> None:
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        object.__setattr__(self, "num", tuple(v // g for v in num))
        object.__setattr__(self, "den", den // g)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, ascending, as ``Fraction``s."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.num) - 1

    def eval(self, v: int | Fraction) -> Fraction:
        """The value at v, by Horner's rule in integers: with v = x/y it is
        sum_i num_i * x^i * y^(d-i) over den * y^d."""
        v = _rational(v, "the point")
        x, y = v.numerator, v.denominator
        total = 0
        scale = 1  # y^(d-i)
        for c in reversed(self.num):
            total = total * x + c * scale
            scale *= y
        return Fraction(total, self.den * y ** max(self.degree, 0))

    def __add__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            other = qpoly_const(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = itertools.zip_longest(self.num, other.num, fillvalue=0)
        return QPolynomial._of([x * a + y * b for x, y in pairs], den)

    def __neg__(self) -> QPolynomial:
        return QPolynomial._of([-v for v in self.num], self.den)

    def __sub__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        return self + qpoly_const(-1) * other

    def __mul__(self, other: QPolynomial | int | Fraction) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            other = qpoly_const(other)
        num = [0] * max(len(self.num) + len(other.num) - 1, 0)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                num[i + j] += a * b
        return QPolynomial._of(num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, c: int | Fraction) -> QPolynomial:
        c = _rational(c, "scalars")
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return QPolynomial._of([v * c.denominator for v in self.num], self.den * c.numerator)


Q = QPolynomial((0, 1))


def qpoly_const(c: int | Fraction) -> QPolynomial:
    return QPolynomial((c,))


def poly_from_binomial_coordinates(c: Sequence[int]) -> QPolynomial:
    """The polynomial sum over k of c_k * binomial(q, k), for integers c_k.

    Over the common denominator d!, d the degree, the sum is
    sum_k c_k * (d!/k!) * (q)_k, and the coefficient of q^j in the falling
    factorial (q)_k is the Stirling number s(k, j) of the first kind.  The
    numerators are found in integers by Horner's rule in the falling-factorial
    basis, (q)_(k+1) = (q)_k * (q - k), and they are the polynomial's, over
    d!, once reduced by their gcd.
    """
    return _binomial_sum(tuple(c))


# bounded; cells recur across inputs: acceptance criterion 5 converts 441,456 cells, 560 distinct
@lru_cache(maxsize=1024)
def _binomial_sum(c: tuple[int, ...]) -> QPolynomial:
    d = len(c) - 1
    while d >= 0 and not c[d]:
        d -= 1
    acc: list[int] = []
    weight = 1  # d!/k!
    for k in range(d, -1, -1):
        # acc <- acc * (q - k) + c_k * d!/k!
        nxt = [0, *acc]
        for j, v in enumerate(acc):
            nxt[j] -= k * v
        nxt[0] += c[k] * weight
        acc = nxt
        weight *= k
    return QPolynomial._of(acc, math.factorial(max(d, 0)))


# typed, so that True is refused rather than answered from the entry of 1
@lru_cache(maxsize=256, typed=True)
def binomial_poly(k: int) -> QPolynomial:
    """binomial(q, k) as a polynomial of degree k (k >= 0)."""
    return shifted_binomial_poly(0, k)


def shifted_binomial_poly(shift: int, k: int) -> QPolynomial:
    """binomial(q - shift, k) as a polynomial in q: by Vandermonde's
    identity, the sum over j of binomial(-shift, k - j) * binomial(q, j)."""
    int_tuple((shift,), "shift")
    k = natural(k, "k")
    # binomial(-shift, i) = (-shift)(-shift - 1)...(-shift - i + 1) / i!
    return poly_from_binomial_coordinates(
        [math.prod(range(-shift, -shift - i, -1)) // math.factorial(i) for i in range(k, -1, -1)]
    )


def qpoly_interpolate(
    points: Iterable[tuple[int | Fraction, int | Fraction]],
) -> QPolynomial:
    """Exact Lagrange interpolation through the given (x, y) points."""
    pts = [tuple(_rational(v, "interpolation points") for v in pt) for pt in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    total = QPolynomial()
    for i, (xi, yi) in enumerate(pts):
        basis = qpoly_const(yi)
        for xj in xs[:i] + xs[i + 1 :]:
            basis = basis * (Q - xj) / (xi - xj)
        total = total + basis
    return total


def qpoly_to_json(p: QPolynomial) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def qpoly_pretty(p: QPolynomial) -> str:
    """Human-readable form, descending powers: 'q^3 - 3/2*q + 1'."""
    terms = []
    for k, c in reversed(list(enumerate(p.coeffs))):
        if c:
            var = "q" if k == 1 else f"q^{k}"
            body = str(abs(c)) if k == 0 else var if abs(c) == 1 else f"{abs(c)}*{var}"
            terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return (text[2:] if text[0] == "+" else "-" + text[2:]) if text else "0"
