import copy
import itertools
import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import FractionPoly, series_mul_sparse, series_one, series_pow_sparse

from chromaplex import budget
from chromaplex.errors import BudgetError
from chromaplex.series import (
    DenseWindow,
    Q,
    QPolynomial,
    shifted_binomial_poly,
    TruncatedSeries,
    _dense_window,
    binomial_poly,
    dense_window,
    poly_from_binomial_coordinates,
    qpoly_const,
    qpoly_interpolate,
    qpoly_pretty,
    qpoly_to_json,
    series_int_pow,
    series_inverse,
    series_mul,
    series_to_json,
)

F = Fraction


def s(n, trunc, terms):
    return TruncatedSeries(n, tuple(trunc), {tuple(e): F(c) for e, c in terms.items()})


def test_normalization():
    a = s(2, (2, 2), {(0, 0): 1, (1, 0): 0, (3, 0): 5})
    assert a.terms == {(0, 0): F(1)}
    assert a.trunc == (2, 2)
    with pytest.raises(ValueError):
        TruncatedSeries(2, (2, 2), {(0, 0): 0.5})
    with pytest.raises(ValueError):
        TruncatedSeries(2, (2, 2), {(0,): F(1)})
    with pytest.raises(ValueError):
        TruncatedSeries(1, (2,), {(-1,): F(1)})


def test_add_scale_mul():
    a = s(1, (3,), {(0,): 1, (1,): -1})
    b = s(1, (3,), {(1,): 1, (2,): 4})
    prod = series_mul(a, b)
    assert prod.terms == {(1,): F(1), (2,): F(3), (3,): F(-4)}
    assert series_mul(a, series_one(1, (3,))) == a
    assert series_mul(a, s(1, (3,), {})) == s(1, (3,), {})


def test_mul_truncates_to_window():
    a = s(1, (2,), {(1,): 1})
    assert series_mul(a, a).terms == {(2,): F(1)}
    assert series_mul(series_mul(a, a), a) == s(1, (2,), {})


def test_mul_refuses_different_windows():
    a = s(1, (2,), {(1,): 1})
    want = r"incompatible series: n/trunc \(1, \(2,\)\) vs \(1, \(3,\)\)"
    with pytest.raises(ValueError, match=want):
        series_mul(a, s(1, (3,), {(1,): 1}))


def test_coeff_is_refused_where_the_series_does_not_determine_it():
    a = TruncatedSeries(1, (2,), {(1,): 3})
    assert a.coeff((1,)) == F(3)
    assert a.coeff([2]) == 0
    with pytest.raises(ValueError, match=r"bad exponents \(1, 2\): need 1 entries"):
        a.coeff((1, 2))
    with pytest.raises(ValueError, match=r"bad exponents \(-1,\): need 1 entries"):
        a.coeff((-1,))
    with pytest.raises(ValueError, match=r"exponent \(5,\) lies outside the truncation window"):
        a.coeff((5,))


def test_coeff_refuses_exponents_that_only_hash_like_ints():
    """(1.0,) and (True,) equal (1,) and hash like it, so a dict lookup alone
    would answer them from the stored term; they are refused by type."""
    a = TruncatedSeries(1, (2,), {(1,): 3})
    for bad in ((1.0,), (True,), (0.0,)):
        with pytest.raises(ValueError, match="exponents must be integers"):
            a.coeff(bad)
    assert a.coeff((1,)) == F(3)
    assert a.coeff((0,)) == F(0)


def test_inverse_geometric():
    a = s(1, (5,), {(0,): 1, (1,): -1})
    inv = series_inverse(a)
    assert inv.terms == {(k,): F(1) for k in range(6)}


def test_inverse_known_coefficients():
    two = s(2, (1, 1), {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert series_inverse(two).terms[(1, 1)] == F(2)
    one = s(1, (2,), {(0,): 1, (1,): 1})
    assert series_int_pow(one, -2).terms[(2,)] == F(3)
    with pytest.raises(ValueError):
        series_inverse(s(1, (2,), {(1,): 1}))


def test_inverse_wide_window():
    # fields of several bits, at and past a power of two
    trunc = (4, 3, 7)
    terms = {(0, 0, 0): F(-1), (1, 0, 0): F(2), (0, 1, 1): F(-3), (2, 1, 0): F(1), (0, 0, 4): F(5)}
    f = s(3, trunc, terms)
    inv = series_inverse(f)
    assert series_mul_sparse(f, inv) == series_one(3, trunc)
    assert inv.terms[(4, 0, 0)] == F(-16)


def test_int_pow():
    f = s(2, (2, 2), {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    cube = series_int_pow(f, 3)
    assert cube.terms[(1, 1)] == F(6)
    assert series_int_pow(f, 0) == series_one(2, (2, 2))
    assert series_int_pow(f, 1) == f
    sq = series_mul(f, f)
    assert series_int_pow(f, 2) == sq
    assert series_mul(series_int_pow(f, -3), cube) == series_one(2, (2, 2))


def test_int_pow_takes_only_the_products_it_needs(monkeypatch):
    """|q| takes bit_length(|q|) - 1 squarings and popcount(|q|) - 1 other
    products, so q = 0, 1 and -1 take none, and every q in -3..4 still
    matches the sparse oracle."""
    calls = []
    mul = DenseWindow.mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(DenseWindow, "mul", counting)
    f = s(2, (2, 2), {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): -1})
    one = series_one(2, (2, 2))
    for q in range(-3, 5):
        calls.clear()
        power = series_int_pow(f, q)
        assert len(calls) == max(abs(q).bit_length() + bin(q).count("1") - 2, 0), q
        if q >= 0:
            assert power == series_pow_sparse(f, q)
        else:
            assert series_mul_sparse(power, series_pow_sparse(f, -q)) == one


def _random_series(rng, n, trunc, integral, constant):
    terms = {}
    for e in itertools.product(*(range(t + 1) for t in trunc)):
        if rng.random() < 0.5:
            k = rng.randint(-3, 3)
            terms[e] = F(k) if integral else F(k, 3)
    terms[(0,) * n] = constant
    return TruncatedSeries(n, trunc, terms)


def _all_fractions(f):
    return all(type(c) is Fraction for c in f.terms.values())


def test_int_pow_refuses_non_integer_exponents():
    """True is not read as the exponent 1, nor 2.0 as 2."""
    f = s(1, (2,), {(0,): 1, (1,): 1})
    for bad in (True, 2.0, 2.5, "2", F(2)):
        with pytest.raises(ValueError, match="exponent must be integers"):
            series_int_pow(f, bad)
    assert series_int_pow(f, 1) == f


def test_int_pow_matches_repeated_mul_random():
    """The dense kernel (mul, pow, inverse) against the sparse Fraction oracle
    on integral and non-integral coefficients, windows with zero bounds and
    unit and non-unit constants: the kernel runs on ints, on Fractions, or on
    a mix."""
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 3)
        trunc = tuple(rng.randint(0, 2) for _ in range(n))
        integral = rng.random() < 0.5
        f = _random_series(rng, n, trunc, integral, rng.choice([F(1), F(-1), F(2), F(1, 2)]))
        g = _random_series(rng, n, trunc, rng.random() < 0.5, rng.choice([F(0), F(1), F(-2)]))
        one = series_one(n, trunc)
        prod = series_mul(f, g)
        assert prod == series_mul_sparse(f, g)
        assert _all_fractions(prod)
        inv = series_inverse(f)
        assert _all_fractions(inv)
        assert series_mul_sparse(f, inv) == one
        for q in range(-3, 5):
            power = series_int_pow(f, q)
            assert _all_fractions(power)
            if q >= 0:
                assert power == series_pow_sparse(f, q)
            else:
                assert series_mul_sparse(power, series_pow_sparse(f, -q)) == one


def test_inverse_entries_are_the_inverse_in_lex_order():
    """The lazy inverse yields 1/x entry by entry in the window's dense
    order: all of it is ``series_inverse`` and the sparse oracle's inverse, and a
    prefix read alone is the same prefix, on integral and non-integral
    inputs and windows with zero bounds.  series_inverse still refuses a
    zero constant term at the call."""
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(1, 3)
        trunc = tuple(rng.randint(0, 2) for _ in range(n))
        constant = rng.choice([F(1), F(-1), F(2), F(1, 2)])
        f = _random_series(rng, n, trunc, rng.random() < 0.5, constant)
        w = dense_window(trunc)
        x = w.values(f)
        entries = list(w.inverse_entries(x))
        assert w.series(entries) == series_inverse(f)
        assert series_mul_sparse(f, w.series(entries)) == series_one(n, trunc)
        k = rng.randint(0, len(entries))
        assert list(itertools.islice(w.inverse_entries(x), k)) == entries[:k]
    with pytest.raises(ValueError, match="zero constant term"):
        series_inverse(s(2, (1, 2), {(1, 0): 1, (0, 2): 3}))


def test_dense_window_charges_before_allocating(monkeypatch):
    """A sparse series on a huge window is refused before the window is
    allocated (a million coefficients, past a budget of 2**12), and one on a
    window of exactly the budget is computed."""
    monkeypatch.setattr(budget, "_limit", 1 << 12)
    f = s(2, (999, 999), {(0, 0): 1, (1, 0): 1})
    for op in (lambda: series_mul(f, f), lambda: series_inverse(f), lambda: series_int_pow(f, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
    g = s(2, (63, 63), {(0, 0): 1, (1, 0): 1})
    assert series_inverse(g).terms[(63, 0)] == F(-1)
    assert series_int_pow(g, 2).terms[(2, 0)] == F(1)


def _random_dense(rng, trunc, density, integral):
    """A series with each coefficient nonzero with the given probability."""
    terms = {}
    for e in itertools.product(*(range(t + 1) for t in trunc)):
        if rng.random() < density:
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[e] = F(k) if integral else F(k, 3)
    return TruncatedSeries(len(trunc), trunc, terms)


def test_both_product_loops_match_the_sparse_oracle():
    """A product visits the fit lists when the window's pairs are at most
    nnz(x) * nnz(y), as for dense operands, and tests nonzero pairs by their
    guards otherwise; both loops give the sparse oracle's product, on
    integral and non-integral coefficients, windows with zero bounds and
    n = 0.  series_int_pow matches the oracle at q = -3..4 on both."""
    rng = random.Random(24)
    windows = [(2, 2, 2, 2), (2, 2, 2), (2, 0, 1), (0, 0), ()]
    for trunc, density, dense in itertools.product(windows, (1.0, 0.1), (True, False)):
        for integral in (True, False):
            f = _random_dense(rng, trunc, density, integral)
            g = _random_dense(rng, trunc, density if dense else 0.05, integral)
            w = DenseWindow(trunc)
            x, y = w.values(f), w.values(g)
            assert w.fits is None
            prod = w.series(w.mul(x, y))
            assert prod == series_mul_sparse(f, g)
            assert _all_fractions(prod)
            pairs = len(f.terms) * len(g.terms)
            assert (w.fits is not None) == (w.pairs <= pairs)
            if len(trunc) >= 3:
                # dense operands take the lists, sparse ones the guard loop
                assert (w.fits is not None) == (density == 1.0 and dense)
    _dense_window.cache_clear()
    for trunc, density in itertools.product(windows[1:], (1.0, 0.2)):
        f = _random_dense(rng, trunc, density, rng.random() < 0.5)
        f.terms[(0,) * len(trunc)] = rng.choice([F(1), F(-1), F(2)])
        for q in range(-3, 5):
            power = series_int_pow(f, q)
            if q >= 0:
                assert power == series_pow_sparse(f, q)
            else:
                assert series_mul_sparse(power, series_pow_sparse(f, -q)) == series_one(
                    len(trunc), trunc
                )
    assert dense_window((2, 2, 2)).fits is not None


def test_sparse_power_on_the_largest_cached_window_tests_pairs():
    """On (63, 63), 4,096 entries and 2,080^2 pairs, the square of a
    two-term series tests its few nonzero pairs by their guards: the window
    builds no fit lists, and the call stays small."""
    _dense_window.cache_clear()
    g = s(2, (63, 63), {(0, 0): 1, (1, 0): 1})
    tracemalloc.start()
    try:
        square = series_int_pow(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square == series_pow_sparse(g, 2)
    assert dense_window((63, 63)).fits is None
    assert peak < 1_000_000
    # past 2^16 pairs no window keeps lists, however dense its operands:
    # (25, 25) has 676 entries and 351^2 = 123,201 pairs
    rng = random.Random(25)
    f, h = (_random_dense(rng, (25, 25), density, True) for density in (1.0, 0.3))
    assert len(f.terms) * len(h.terms) > 351**2
    w = DenseWindow((25, 25))
    assert w.series(w.mul(w.values(f), w.values(h))) == series_mul_sparse(f, h)
    assert w.fits is None


def test_only_small_dense_windows_are_cached():
    """A window of up to 4,096 entries is built once and shared; a larger
    one is built on each call, so the cache holds no large window."""
    _dense_window.cache_clear()
    assert dense_window((63, 63)) is dense_window((63, 63))
    assert dense_window((64, 63)) is not dense_window((64, 63))
    assert _dense_window.cache_info().currsize == 1


def test_public_constructor_checks_its_input():
    # coefficients by type, as QPolynomial takes them: True is not read as
    # 1, nor "3/4" as 3/4, nor 0.5 as 1/2
    for bad in (True, "3/4", 0.5):
        with pytest.raises(ValueError, match="coefficients must be integers or Fractions"):
            TruncatedSeries(1, (2,), {(1,): bad})
    with pytest.raises(ValueError, match="bad exponent"):
        TruncatedSeries(2, (2, 2), {(0, -1): F(1)})
    with pytest.raises(ValueError, match="bad exponent"):
        TruncatedSeries(2, (2, 2), {(0, 0, 0): F(1)})
    # integral input is stored as Fractions
    assert _all_fractions(TruncatedSeries(1, (2,), {(1,): 3}))
    assert TruncatedSeries(1, (2,), {(1,): F(3, 4)}).terms == {(1,): F(3, 4)}

def test_public_constructor_refuses_non_integer_bounds():
    """A window (1.5,) is not read as (1,), nor an exponent (1.5,) as (1,)."""
    for bad in (1.5, True, "1", F(1)):
        with pytest.raises(ValueError, match="truncation bounds must be integers"):
            TruncatedSeries(1, (bad,), {})
        with pytest.raises(ValueError, match="exponents must be integers"):
            TruncatedSeries(1, (2,), {(bad,): F(1)})
    assert TruncatedSeries(1, (1,), {(1,): F(1)}).trunc == (1,)


def test_series_json_round_trip():
    f = s(2, (2, 1), {(0, 0): 1, (2, 1): F(-7, 3)})
    obj = series_to_json(f)
    assert obj == {
        "n": 2,
        "trunc": [2, 1],
        "terms": [{"e": [0, 0], "c": "1"}, {"e": [2, 1], "c": "-7/3"}],
    }
    assert json.dumps(series_to_json(f)) == json.dumps(series_to_json(f))


def test_qpolynomial_arithmetic():
    p = Q * Q - Q + 1
    assert p.coeffs == (F(1), F(-1), F(1))
    assert p.degree == 2
    assert p.eval(3) == F(7)
    assert p.eval(F(1, 2)) == F(3, 4)
    r = (Q * Q * Q / 6 - Q / 4 + F(2, 3)) * F(-5, 7)
    for v in (-3, 0, 2, F(5, 3)):
        assert r.eval(v) == F(-5, 7) * (F(v) ** 3 / 6 - F(v) / 4 + F(2, 3))
    assert (p - p).coeffs == ()
    assert (p * 0).degree == -1
    assert (Q * 2 / 2) == Q
    assert QPolynomial((F(1), F(0))).coeffs == (F(1),)


def test_qpolynomial_refuses_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="division of polynomial by zero"):
        Q / 0


def test_qpolynomial_negation():
    """-p is p with every coefficient negated, over the same denominator."""
    p = Q * Q / 6 - F(2, 3) * Q + 1
    assert (-p).coeffs == (F(-1), F(2, 3), F(-1, 6))
    assert (-p).den == p.den == 6
    assert -p == p * -1 and -(-p) == p and p + -p == QPolynomial()
    assert -QPolynomial() == QPolynomial()


def test_binomial_and_falling():
    assert binomial_poly(0) == QPolynomial((F(1),))
    assert binomial_poly(2) == Q * (Q - 1) / 2
    assert binomial_poly(3) * 6 == Q * (Q - 1) * (Q - 2)
    shifted = shifted_binomial_poly(3, 2)
    assert shifted.eval(5) == F(1)
    assert shifted.eval(7) == F(6)
    for q in range(8):
        assert binomial_poly(3).eval(q) == F(math.comb(q, 3))


def test_interpolation():
    p = Q * Q * Q - 7 * Q + 2
    pts = [(q, p.eval(q)) for q in range(4)]
    assert qpoly_interpolate(pts) == p
    target = (Q * Q * Q * Q - 2 * Q * Q * Q + 11 * Q * Q + 14 * Q + 24) / 24
    pts = [(q, target.eval(q)) for q in (0, 1, 2, 3, 4)]
    assert qpoly_interpolate(pts) == target
    with pytest.raises(ValueError):
        qpoly_interpolate([(1, F(1)), (1, F(2))])


def test_qpoly_json_and_pretty():
    p = Q * Q * (Q - 1) * (Q - 1) * (Q * Q - 4) / 4
    assert qpoly_pretty(p) == "1/4*q^6 - 1/2*q^5 - 3/4*q^4 + 2*q^3 - q^2"
    assert qpoly_to_json(p) == {"coeffs": ["0", "0", "-1", "2", "-3/4", "-1/2", "1/4"]}
    assert qpoly_pretty(QPolynomial()) == "0"
    assert qpoly_pretty(QPolynomial((F(1),))) == "1"
    assert qpoly_pretty(Q * Q - 2 * Q + 1) == "q^2 - 2*q + 1"


def _random_rational(rng):
    """An int or a Fraction with one of a few denominators, so that sums and
    products mix denominators."""
    den = rng.choice([1, 1, 2, 3, 4, 6, 9, 35])
    value = rng.randint(-40, 40)
    return value if den == 1 else F(value, den)


def test_qpolynomial_matches_fraction_oracle():
    """Integer numerators over one denominator against the Fraction-tuple
    arithmetic: +, -, *, / and eval on seeded polynomials with mixed
    denominators, and the binomial-coordinate conversion."""
    rng = random.Random(1212)
    for _ in range(300):
        a_cs = [_random_rational(rng) for _ in range(rng.randint(0, 6))]
        b_cs = [_random_rational(rng) for _ in range(rng.randint(0, 6))]
        a, b = QPolynomial(a_cs), QPolynomial(b_cs)
        fa, fb = FractionPoly(a_cs), FractionPoly(b_cs)
        c = _random_rational(rng) or 1
        assert fa == a and fb == b
        assert fa + fb == a + b
        assert fa - fb == a - b
        assert fa * fb == a * b
        assert fa * c == a * c == c * a
        assert fa / c == a / c
        for v in (0, 1, -2, 5, F(1, 3), F(-7, 4)):
            assert a.eval(v) == fa.eval(v)
            assert type(a.eval(v)) is Fraction
        coords = [rng.randint(-60, 60) for _ in range(rng.randint(0, 9))]
        coords += [0] * rng.randint(0, 2)
        assert poly_from_binomial_coordinates(coords) == FractionPoly.from_binomial_coordinates(
            coords
        )


def test_qpolynomial_representation_invariants():
    """den > 0, lowest terms, no trailing zero numerator; equal values built
    from ints or from Fractions have equal fields and hashes; pickle and
    copy keep the value."""
    rng = random.Random(34)
    polys = [QPolynomial(), Q, Q / -6, (Q * 2 - 4) / F(-2, 3), QPolynomial((F(4, 6), 0, 0))]
    for _ in range(100):
        polys.append(QPolynomial([_random_rational(rng) for _ in range(rng.randint(0, 6))]))
        polys.append(poly_from_binomial_coordinates([rng.randint(-9, 9) for _ in range(7)]))
    for p in polys:
        assert p.den > 0
        assert math.gcd(p.den, *p.num) == 1
        assert not p.num or p.num[-1] != 0
        assert all(type(v) is int for v in (p.den, *p.num))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert QPolynomial(p.coeffs) == p
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p and hash(clone) == hash(p) and clone.coeffs == p.coeffs
    ints, fractions = QPolynomial((2, -3, 0, 1)), QPolynomial((F(4, 2), F(-3), F(0), F(5, 5)))
    assert ints == fractions and hash(ints) == hash(fractions)
    assert (ints.num, ints.den) == (fractions.num, fractions.den) == ((2, -3, 0, 1), 1)
    half = QPolynomial((F(1, 2), F(-3, 4)))
    assert (half.num, half.den) == ((2, -3), 4)
    assert len({QPolynomial((F(1, 2),)), qpoly_const(F(2, 4)), Q / 2 - Q / 2 + F(1, 2)}) == 1


_BAD_SCALARS = (True, False, 0.5, 1.0, "1")
_SCALAR_ENTRIES = {
    "constructor": lambda v: QPolynomial((1, v)),
    "qpoly_const": qpoly_const,
    "eval": lambda v: QPolynomial((1, 2)).eval(v),
    "mul": lambda v: QPolynomial((1, 2)) * v,
    "rmul": lambda v: v * QPolynomial((1, 2)),
    "add": lambda v: Q + v,
    "sub": lambda v: Q - v,
    "truediv": lambda v: Q / v,
    "interpolate": lambda v: qpoly_interpolate([(0, 1), (v, 2)]),
}


@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRIES))
def test_qpolynomial_takes_only_ints_and_fractions(entry):
    """A bool is not read as 0 or 1, nor 0.5 or "1" as a number: every
    entry point of QPolynomial refuses them, and takes ints and Fractions."""
    call = _SCALAR_ENTRIES[entry]
    for bad in _BAD_SCALARS:
        with pytest.raises(ValueError, match="must be integers or Fractions"):
            call(bad)
    call(2)
    call(F(3, 2))
