"""Acceptance suite: ten end-to-end criteria, one test each.

Every check is exact (integer or rational equality, no tolerances).  Each
test prints a single PASS line with its elapsed time; run with ``pytest -v``
to get one line per criterion.
"""

import itertools
import random
import time
import warnings
from fractions import Fraction

from helpers import (
    downward_closed_families,
    random_chordal_edges,
    random_hyperplane_arrangement,
    random_hypergraph,
)

from chromaplex.arrangement import (
    arrangement,
    brute_force_arrangement_count,
    characteristic_polynomial,
    count_complement,
    graphical_arrangement,
    marked_chromatic_arrangement,
    region_count,
)
from chromaplex.chromatic import (
    brute_force_count,
    chordal_marked_chromatic,
    chromatic_via_blowup,
    coefficient_via_binomial,
    full_edge_closed_form,
    marked_chromatic_poly,
    ordinary_chromatic_poly,
)
from chromaplex.hypergraph import (
    hypergraph,
    hypergraph_from_system,
    independence_system,
    marked_independence_series,
)
from chromaplex.scan import (
    enumerate_simple_hypergraphs,
    odd_edge_witness,
    scan_hypergraphs,
)
from chromaplex.series import Q, series_int_pow, shifted_binomial_poly

BOOLEAN3 = arrangement(3, [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]])
BRAID3 = arrangement(3, [[[1, -1, 0]], [[1, 0, -1]], [[0, 1, -1]]])
PLANE = arrangement(3, [[[1, 1, -1]]])


def _report(label: str, t0: float) -> float:
    elapsed = time.monotonic() - t0
    print(f"PASS {label} ({elapsed:.2f}s)")
    return elapsed


def test_criterion_01_worked_example():
    t0 = time.monotonic()
    g = hypergraph(4, [(1, 2, 3), (3, 4)], special=(1,))
    m = (2, 1, 1, 2)
    want = Q * Q * (Q - 1) * (Q - 1) * (Q * Q - 4) / 4
    assert marked_chromatic_poly(g, m) == want
    assert chromatic_via_blowup(g, m) == want
    base = marked_independence_series(g, m)
    for q in range(7):
        assert brute_force_count(g, m, q) == want.eval(q)
        power = series_int_pow(base, q)
        assert power.terms.get(m, Fraction(0)) == want.eval(q)
    elapsed = _report("criterion 1: golden worked example, four agreeing routes", t0)
    assert elapsed < 5


def test_criterion_02_series_identity():
    t0 = time.monotonic()
    instances = []
    for n in range(1, 4):
        for g in enumerate_simple_hypergraphs(n):
            for k in range(n + 1):
                for sp in itertools.combinations(range(1, n + 1), k):
                    instances.append(hypergraph(n, g.edges, sp))
    rng = random.Random(20260819)
    while len(instances) < 82 + 50:
        g = random_hypergraph(rng, 4, rng.randint(1, 4))
        sp = tuple(v for v in range(1, 5) if rng.random() < 0.4)
        instances.append(hypergraph(4, g.edges, sp))
    checked = 0
    for g in instances:
        window = (2,) * g.n
        base = marked_independence_series(g, window)
        for q in range(-3, 5):
            power = series_int_pow(base, q)
            for m in itertools.product(range(3), repeat=g.n):
                expect = marked_chromatic_poly(g, m).eval(q)
                assert power.terms.get(m, Fraction(0)) == expect
                checked += 1
    assert checked == sum(8 * 3**g.n for g in instances)
    elapsed = _report("criterion 2: series powers match evaluated polynomials", t0)
    assert elapsed < 120


def test_criterion_03_full_edge_closed_form():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        g = hypergraph(n, [tuple(range(1, n + 1))])
        for m in itertools.product(range(4), repeat=n):
            assert marked_chromatic_poly(g, m) == full_edge_closed_form(m)
    _report("criterion 3: single-full-edge closed form", t0)


def test_criterion_04_chordal_formulas():
    t0 = time.monotonic()
    rng = random.Random(424242)
    for trial in range(30):
        n = rng.randint(2, 7)
        g_edges = random_chordal_edges(rng, n)
        special = tuple(v for v in range(1, n + 1) if rng.random() < 0.3)
        g = hypergraph(n, g_edges, special)
        while True:
            m = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(m) <= 9:
                break
        poly = marked_chromatic_poly(g, m)
        assert chordal_marked_chromatic(g, m) == poly
    _report("criterion 4: chordal closed forms equal the partition formula", t0)


def test_criterion_05_independence_systems():
    t0 = time.monotonic()
    family_counts = {1: 2, 2: 5, 3: 19, 4: 167}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for n in range(1, 5):
            families = list(downward_closed_families(n))
            assert len(families) == family_counts[n]
            for members in families:
                a = independence_system(n, members)
                for k in range(n + 1):
                    for sp in itertools.combinations(range(1, n + 1), k):
                        g = hypergraph_from_system(a, sp)
                        for m in itertools.product(range(3), repeat=n):
                            assert coefficient_via_binomial(a, sp, m) == marked_chromatic_poly(g, m)
    _report("criterion 5: binomial coefficients equal marked polynomials", t0)


def test_criterion_06_characteristic_polynomials():
    t0 = time.monotonic()
    k4 = graphical_arrangement(
        hypergraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    )
    cases = [(BOOLEAN3, 4), (BRAID3, 4), (k4, 5), (PLANE, 4)]
    primes = (2, 3, 5, 7, 11)
    for arr, need in cases:
        chi = characteristic_polynomial(arr)
        for p in primes[:need]:
            assert count_complement(arr, p) == chi.eval(p)
    for n in range(1, 5):
        for g in enumerate_simple_hypergraphs(n):
            chi = characteristic_polynomial(graphical_arrangement(g))
            assert chi == ordinary_chromatic_poly(g)
    _report("criterion 6: characteristic polynomials count field points", t0)


def test_criterion_07_marked_arrangement():
    t0 = time.monotonic()
    for m3 in (1, 2, 3):
        m = (2, 2, m3)
        closed = Q * Q * (Q - 1) / 2 * shifted_binomial_poly(3, m3) + Q * Q * (
            Q - 1
        ) * (Q - 3) / 4 * shifted_binomial_poly(4, m3)
        poly = marked_chromatic_arrangement(PLANE, (), m)
        assert poly == closed
        for p in (7, 11, 13):
            assert brute_force_arrangement_count(PLANE, (), m, p) == poly.eval(p)
    assert marked_chromatic_arrangement(PLANE, (), (2, 2, 1)).eval(7) == 1470
    elapsed = _report("criterion 7: marked arrangement closed form and counts", t0)
    assert elapsed < 180


def test_criterion_08_region_counts():
    t0 = time.monotonic()
    assert region_count(arrangement(2, [[[1, 0]], [[0, 1]]])) == 4
    assert region_count(PLANE) == 2
    assert region_count(BRAID3) == 6
    _report("criterion 8: region counts by the alternating evaluation", t0)


def test_criterion_09_conjecture_scan():
    t0 = time.monotonic()
    report = scan_hypergraphs(5)
    assert report.total == 208
    assert report.even_failures == []
    assert report.odd_passes == []
    for v in report.verdicts:
        if v.even:
            assert v.nonneg
        else:
            assert not v.nonneg
            g = hypergraph(v.canon[0], v.canon[1])
            witness = odd_edge_witness(g)
            assert witness is not None
            e, value = witness
            assert value == 2 + (-2) ** len(e)
            assert value < 0
    elapsed = _report("criterion 9: exhaustive scan, parity decides the sign", t0)
    assert elapsed < 600


def test_conjecture_scan_at_window_4():
    """Criterion 9's scan with every exponent up to 4: parity still decides
    the sign for all 208 classes on up to five vertices."""
    t0 = time.monotonic()
    report = scan_hypergraphs(5, 4)
    assert report.total == 208
    assert report.even_failures == []
    assert report.odd_passes == []
    _report("scan at window 4: parity decides the sign", t0)


def test_criterion_10_hyperplane_nonnegativity():
    t0 = time.monotonic()
    rng = random.Random(777)
    for trial in range(20):
        n = rng.randint(1, 3)
        arr = random_hyperplane_arrangement(rng, n)
        for m in itertools.product(range(3), repeat=n):
            poly = marked_chromatic_arrangement(arr, (), m)
            for q in (1, 2, 3):
                assert (-1) ** sum(m) * poly.eval(-q) >= 0
    _report("criterion 10: inverted-series coefficients are non-negative", t0)
