import itertools
import random
from fractions import Fraction

import pytest

import chromaplex.chromatic as chromatic_module
from chromaplex.chromatic import (
    blow_up,
    blow_up_vertex_labels,
    brute_force_count,
    chordal_marked_chromatic,
    chordal_multichromatic,
    chromatic_via_blowup,
    coefficient_via_binomial,
    count_Pk_mult,
    cycle_graph,
    cycle_multichromatic,
    duplication_factor,
    enumerate_partition_tuples,
    find_peo,
    full_edge_closed_form,
    marked_chromatic_poly,
    ordinary_chromatic_poly,
    partitions_of,
)
from chromaplex.errors import VerificationError
from chromaplex.hypergraph import (
    hypergraph,
    hypergraph_from_system,
    independence_system,
    marked_independence_series,
)
from chromaplex.series import Q, QPolynomial, series_int_pow
from helpers import chromatic_delcon, count_Pk_ordered_debug, random_hypergraph

F = Fraction

WORKED = hypergraph(4, [(1, 2, 3), (3, 4)], special=(1,))
WORKED_M = (2, 1, 1, 2)
WORKED_POLY = Q * Q * (Q - 1) * (Q - 1) * (Q * Q - 4) / 4


def all_special_subsets(n):
    for k in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), k)


def test_worked_example_partition_formula():
    assert marked_chromatic_poly(WORKED, WORKED_M) == WORKED_POLY


def test_worked_example_brute_force():
    poly = marked_chromatic_poly(WORKED, WORKED_M)
    values = [brute_force_count(WORKED, WORKED_M, q) for q in range(7)]
    assert values == [poly.eval(q) for q in range(7)]
    assert values[6] == 7200


def test_worked_example_blowup():
    assert chromatic_via_blowup(WORKED, WORKED_M) == WORKED_POLY


def test_brute_force_tiny():
    v = hypergraph(1, [])
    assert brute_force_count(v, (1,), 5) == 5
    e = hypergraph(2, [(1, 2)])
    assert brute_force_count(e, (1, 1), 3) == 6
    assert brute_force_count(e, (0, 0), 3) == 1
    sp = hypergraph(1, [], special=(1,))
    assert brute_force_count(sp, (3,), 2) == 4
    assert brute_force_count(hypergraph(1, []), (2,), 1) == 0


def test_count_Pk_examples():
    e = hypergraph(2, [(1, 2)])
    assert count_Pk_mult(e, (1, 1), 1) == 0
    assert count_Pk_mult(e, (1, 1), 2) == 2
    sp = hypergraph(1, [], special=(1,))
    assert count_Pk_mult(sp, (2,), 1) == 1
    assert count_Pk_mult(sp, (2,), 2) == 1
    assert count_Pk_mult(e, (0, 0), 0) == 1
    assert count_Pk_mult(e, (1, 1), 3) == 0


def test_count_Pk_ordered_matches_multiset_route():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        g = random_hypergraph(rng, n, rng.randint(0, 3))
        g = hypergraph(
            n, g.edges, special=tuple(v for v in range(1, n + 1) if rng.random() < 0.4)
        )
        m = tuple(rng.randint(0, 2) for _ in range(n))
        for k in range(0, sum(m) + 1):
            assert count_Pk_mult(g, m, k) == count_Pk_ordered_debug(g, m, k)


def test_partition_formula_against_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        g = random_hypergraph(rng, n, rng.randint(0, 4))
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.35)
        g = hypergraph(n, g.edges, special=sp)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        poly = marked_chromatic_poly(g, m)
        for q in (0, 2, 4):
            assert poly.eval(q) == brute_force_count(g, m, q)


def test_blowup_matches_partition():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = random_hypergraph(rng, n, rng.randint(0, 3))
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.35)
        g = hypergraph(n, g.edges, special=sp)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        assert chromatic_via_blowup(g, m) == marked_chromatic_poly(g, m)


def test_marked_chromatic_validation():
    assert marked_chromatic_poly(WORKED, (0, 0, 0, 0)) == QPolynomial((F(1),))
    with pytest.raises(ValueError):
        marked_chromatic_poly(WORKED, (1, 1, 1))
    with pytest.raises(ValueError):
        marked_chromatic_poly(WORKED, (-1, 0, 0, 0))


def test_partition_blocks_and_duplication():
    assert list(partitions_of(4))[0] == (4,)
    assert len(list(partitions_of(4))) == 5
    assert list(partitions_of(3, cap=2)) == [(2, 1), (1, 1, 1)]
    assert duplication_factor((2,)) == 1
    assert duplication_factor((1, 1)) == 2
    assert duplication_factor((2, 2, 1)) == 2
    assert duplication_factor((1, 1, 1)) == 6
    tuples = list(enumerate_partition_tuples((2, 2), (1,)))
    assert tuples == [((2,), (1, 1)), ((1, 1), (1, 1))]
    zero = list(enumerate_partition_tuples((0, 1), ()))
    assert zero == [((), (1,))]


def test_blow_up_structure():
    g = hypergraph(2, [(1, 2)])
    lam = ((1, 1), (1,))
    assert blow_up_vertex_labels(lam, (2, 1)) == [(1, 1), (1, 2), (2, 1)]
    b = blow_up(g, lam, (2, 1))
    assert b.n == 3
    assert b.edges == ((1, 2), (1, 3), (2, 3))
    assert b.special == ()
    g0 = hypergraph(2, [(1, 2)])
    b0 = blow_up(g0, ((1,), ()), (1, 0))
    assert b0.n == 1
    assert b0.edges == ()
    with pytest.raises(ValueError):
        blow_up(g, ((1,), (1,)), (2, 1))


def test_full_edge_closed_form():
    assert full_edge_closed_form((1, 1, 1)) == Q * Q * Q - Q
    w = full_edge_closed_form((2, 2, 2))
    assert w.eval(-1) == F(-6)
    assert full_edge_closed_form((2, 2, 2, 2)).eval(-1) == F(18)
    for n in (2, 3):
        for m in itertools.product(range(3), repeat=n):
            g = hypergraph(n, [tuple(range(1, n + 1))])
            assert full_edge_closed_form(m) == marked_chromatic_poly(g, m)


def test_ordinary_chromatic_matches_delcon():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = set()
        for _ in range(rng.randint(0, n * 2)):
            if n >= 2:
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        g = hypergraph(n, sorted(edges))
        assert ordinary_chromatic_poly(g) == chromatic_delcon(n, sorted(edges))


def test_find_peo():
    assert find_peo(cycle_graph(4)) is None
    assert find_peo(cycle_graph(5)) is None
    assert find_peo(cycle_graph(3)) is not None
    path = hypergraph(4, [(1, 2), (2, 3), (3, 4)])
    order = find_peo(path)
    assert order is not None and len(order) == 4
    with pytest.raises(ValueError):
        find_peo(hypergraph(3, [(1, 2, 3)]))


def test_chordal_multichromatic():
    tri = hypergraph(3, [(1, 2), (1, 3), (2, 3)])
    assert chordal_multichromatic(tri, (1, 1, 1)) == Q * (Q - 1) * (Q - 2)
    path = hypergraph(3, [(1, 2), (2, 3)])
    for m in itertools.product(range(3), repeat=3):
        assert chordal_multichromatic(path, m) == marked_chromatic_poly(path, m)
    with pytest.raises(ValueError):
        chordal_multichromatic(cycle_graph(4), (1, 1, 1, 1))
    sp = hypergraph(2, [(1, 2)], special=(1,))
    with pytest.raises(ValueError):
        chordal_multichromatic(sp, (1, 1))


def test_chordal_marked_chromatic():
    sp = hypergraph(2, [(1, 2)], special=(1,))
    for m in itertools.product(range(3), repeat=2):
        assert chordal_marked_chromatic(sp, m) == marked_chromatic_poly(sp, m)
    iso = hypergraph(1, [], special=(1,))
    assert chordal_marked_chromatic(iso, (3,)).eval(4) == F(20)
    tri2 = hypergraph(3, [(1, 2), (1, 3), (2, 3)], special=(2,))
    for m in ((1, 2, 1), (2, 2, 2), (0, 2, 1)):
        assert chordal_marked_chromatic(tri2, m) == marked_chromatic_poly(tri2, m)


def test_multiset_count_identity():
    iso = hypergraph(1, [], special=(1,))
    poly = chordal_marked_chromatic(iso, (3,))
    for q in range(2, 6):
        assert poly.eval(q) == F(q * (q + 1) * (q + 2), 6)


def test_cycle_formula():
    assert cycle_multichromatic((1, 1, 1)) == Q * (Q - 1) * (Q - 2)
    c4 = (Q - 1) * (Q - 1) * (Q - 1) * (Q - 1) + (Q - 1)
    assert cycle_multichromatic((1, 1, 1, 1)) == c4
    assert cycle_multichromatic((2, 1, 1)) == marked_chromatic_poly(cycle_graph(3), (2, 1, 1))
    rng = random.Random(77)
    for _ in range(6):
        n = rng.randint(3, 6)
        m = tuple(rng.randint(1, 3) for _ in range(n))
        assert cycle_multichromatic(m) == marked_chromatic_poly(cycle_graph(n), m)
    # min(m) > n: spectral terms beyond k = n contribute
    for m in [(4, 4, 4), (5, 4, 4), (5, 5, 5, 5)]:
        want = marked_chromatic_poly(cycle_graph(len(m)), m)
        assert cycle_multichromatic(m, verify=False) == want
    with pytest.raises(ValueError):
        cycle_multichromatic((1, 1))


def test_cycle_gate_raises(monkeypatch):
    monkeypatch.setattr(chromatic_module, "marked_chromatic_poly", lambda g, m: QPolynomial())
    with pytest.raises(VerificationError):
        cycle_multichromatic((1, 1, 1))


def test_coefficient_via_binomial_known():
    a = independence_system(1, [(), (1,)])
    assert coefficient_via_binomial(a, (1,), (2,)) == Q * (Q + 1) / 2
    assert coefficient_via_binomial(a, (), (0,)) == QPolynomial((F(1),))
    assert coefficient_via_binomial(a, (), (1,)) == Q


def test_coefficient_via_binomial_matches_marked_poly():
    a = independence_system(3, [(), (1,), (2,), (3,), (1, 2)])
    for sp in all_special_subsets(3):
        g = hypergraph_from_system(a, sp)
        for m in itertools.product(range(3), repeat=3):
            assert coefficient_via_binomial(a, sp, m) == marked_chromatic_poly(g, m)


def test_series_identity_small():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 3)
        g = random_hypergraph(rng, n, rng.randint(0, 3))
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        g = hypergraph(n, g.edges, special=sp)
        trunc = (2,) * n
        base = marked_independence_series(g, trunc)
        for q in (-2, -1, 0, 1, 3):
            power = series_int_pow(base, q)
            for m in itertools.product(range(3), repeat=n):
                want = marked_chromatic_poly(g, m).eval(q)
                assert power.terms.get(m, F(0)) == want
