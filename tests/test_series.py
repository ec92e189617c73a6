import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import series_mul_sparse, series_pow_sparse

from chromaplex.errors import BudgetError
from chromaplex.series import (
    Q,
    QPolynomial,
    shifted_binomial_poly,
    TruncatedSeries,
    binomial_poly,
    fraction_to_str,
    qpoly_interpolate,
    qpoly_pretty,
    qpoly_to_json,
    series_int_pow,
    series_inverse,
    series_mul,
    series_one,
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


def test_dense_window_charges_before_allocating(monkeypatch):
    """A sparse series on a huge window is refused before the window is
    allocated (a million coefficients, past a budget of 2**12), and one on a
    window of exactly the budget is computed."""
    monkeypatch.setenv("CHROMAPLEX_BUDGET", "12")
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


def test_public_constructor_checks_its_input():
    with pytest.raises(ValueError, match="floating point"):
        TruncatedSeries(1, (2,), {(1,): 0.5})
    with pytest.raises(ValueError, match="bad exponent"):
        TruncatedSeries(2, (2, 2), {(0, -1): F(1)})
    with pytest.raises(ValueError, match="bad exponent"):
        TruncatedSeries(2, (2, 2), {(0, 0, 0): F(1)})
    # integral input is stored as Fractions
    assert _all_fractions(TruncatedSeries(1, (2,), {(1,): 3}))


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


def test_fraction_strings():
    assert fraction_to_str(F(-7, 3)) == "-7/3"
    assert fraction_to_str(F(5)) == "5"
    assert F(fraction_to_str(F(-7, 3))) == F(-7, 3)


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
