import random
from fractions import Fraction

import pytest

import chromaplex.arrangement as arrangement_module
from chromaplex.arrangement import (
    _poset_data,
    arrangement,
    arrangement_from_json,
    arrangement_to_json,
    brute_force_arrangement_count,
    characteristic_polynomial,
    clan,
    clan_lambda,
    count_complement,
    graphical_arrangement,
    marked_chromatic_arrangement,
    rank_mod_p,
    region_count,
    rref,
    subspace,
)
from chromaplex.chromatic import marked_chromatic_poly, ordinary_chromatic_poly
from chromaplex.errors import BadPrimeError, VerificationError
from chromaplex.hypergraph import hypergraph
from chromaplex.series import Q, QPolynomial, shifted_binomial_poly

from helpers import (
    poset_oracle,
    random_hyperplane_arrangement,
    random_subspace_arrangement,
)

F = Fraction

PLANE = arrangement(3, [[[1, 1, -1]]])
BOOL2 = arrangement(2, [[[1, 0]], [[0, 1]]])
K3 = graphical_arrangement(hypergraph(3, [(1, 2), (1, 3), (2, 3)]))


def test_rref_canonical():
    assert rref([[2, 4], [1, 2]], 2) == ((1, 2),)
    assert rref([[0, 3], [2, 0]], 2) == ((1, 0), (0, 1))
    assert rref([[-2, 2, 0]], 3) == ((1, -1, 0),)
    assert rref([], 3) == ()
    assert rref([[0, 0]], 2) == ()
    assert len(rref([[1, 1, 0], [0, 1, 1], [1, 0, -1]], 3)) == 2
    with pytest.raises(ValueError):
        rref([[1, 2, 3]], 2)


def test_rref_row_space_invariance():
    rng = random.Random(17)
    for _ in range(50):
        w = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(w)] for _ in range(rng.randint(1, 4))]
        base = rref(rows, w)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [[2 * v for v in r] for r in shuffled]
        if rows:
            extra = [a + b for a, b in zip(rows[0], rows[-1])]
            scaled.append(extra)
        assert rref(scaled, w) == base


def test_rank_mod_p():
    assert rank_mod_p([[1, 1], [1, -1]], 2, 2) == 1
    assert rank_mod_p([[1, 1], [1, -1]], 2, 3) == 2
    assert rank_mod_p([[2, 4]], 2, 2) == 0
    # later rows vanish only after reduction against earlier ones
    assert rank_mod_p([[1, 2], [2, 1]], 2, 3) == 1
    assert rank_mod_p([[0, 1], [1, 1], [1, 0]], 2, 5) == 2
    assert rank_mod_p([[1, 1, 0], [1, 0, 1], [0, 1, -1]], 3, 7) == 2
    with pytest.raises(ValueError):
        rank_mod_p([[0, 0, 1]], 2, 5)
    with pytest.raises(ValueError, match="4 is not prime"):
        rank_mod_p([[2, 1], [2, 0]], 2, 4)
    rng = random.Random(19)
    for _ in range(30):
        w = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(w)] for _ in range(rng.randint(1, 3))]
        assert rank_mod_p(rows, w, 101) == len(rref(rows, w))


def test_subspace_and_arrangement_construction():
    s = subspace([[2, 2, -2], [1, 1, -1]], 3)
    assert s.forms == ((1, 1, -1),)
    assert s.codim == 1
    assert s.support == (1, 2, 3)
    with pytest.raises(ValueError):
        subspace([[0, 0, 0]], 3)
    a = arrangement(2, [[[1, 0]], [[2, 0]], [[0, 1]]])
    assert len(a.subspaces) == 2
    with pytest.raises(ValueError):
        arrangement(2, [], special=(3,))


def test_intersection_poset_braid_k3():
    by_dim = {}
    for el in _poset_data(K3):
        by_dim.setdefault(el.dim, []).append(el)
    assert len(by_dim[3]) == 1 and by_dim[3][0].mobius == 1
    assert len(by_dim[2]) == 3
    assert all(el.mobius == -1 for el in by_dim[2])
    assert len(by_dim[1]) == 1 and by_dim[1][0].mobius == 2
    assert 0 not in by_dim


def test_poset_matches_definition_oracle():
    """Forms, dims and Mobius values of mixed-codimension arrangements, nested
    members included, against the subset-closure oracle."""
    fixed = [
        K3,
        # a line inside a plane, and beside another plane
        arrangement(3, [[[0, 0, 1]], [[1, 0, 0], [0, 0, 1]], [[0, 1, 0]]]),
        # the origin, a line through it and two planes
        arrangement(
            3,
            [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, -1, 0], [0, 1, -1]], [[1, 1, 0]], [[0, 0, 1]]],
        ),
        arrangement(2, [[[1, 0]], [[0, 1]], [[1, 1]], [[1, -1]]]),
    ]
    rng = random.Random(29)
    seeded = [
        random_subspace_arrangement(rng, rng.randint(2, 4), rng.randint(1, 5)) for _ in range(120)
    ]
    assert any(len({s.codim for s in arr.subspaces}) == 3 for arr in seeded)
    for arr in fixed + seeded:
        assert [tuple(el) for el in _poset_data(arr)] == poset_oracle(arr), arrangement_to_json(arr)


def test_characteristic_polynomials():
    assert characteristic_polynomial(BOOL2) == (Q - 1) * (Q - 1)
    assert characteristic_polynomial(K3) == Q * (Q - 1) * (Q - 2)
    k4 = graphical_arrangement(
        hypergraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    )
    assert characteristic_polynomial(k4) == Q * (Q - 1) * (Q - 2) * (Q - 3)
    assert characteristic_polynomial(PLANE) == Q * Q * Q - Q * Q
    empty = arrangement(2, [])
    assert characteristic_polynomial(empty) == Q * Q


def test_count_complement_matches_chi():
    for arr in (BOOL2, K3, PLANE):
        chi = characteristic_polynomial(arr)
        for p in (2, 3, 5, 7):
            assert count_complement(arr, p) == chi.eval(p)
    with pytest.raises(ValueError):
        count_complement(BOOL2, 4)


def test_bad_prime_detection():
    a = arrangement(2, [[[1, 1]], [[1, -1]]])
    with pytest.raises(BadPrimeError):
        count_complement(a, 2)
    assert count_complement(a, 3) == characteristic_polynomial(a).eval(3)


def test_region_counts():
    assert region_count(BOOL2) == 4
    assert region_count(arrangement(3, [[[1, 1, -1]]])) == 2
    assert region_count(K3) == 6
    deep = arrangement(3, [[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValueError):
        region_count(deep)


def test_region_count_gate_raises(monkeypatch):
    monkeypatch.setattr(
        arrangement_module, "characteristic_polynomial", lambda arr: QPolynomial((F(1, 2),))
    )
    with pytest.raises(VerificationError):
        region_count(BOOL2)


def test_whitney_sign_property():
    rng = random.Random(29)
    for _ in range(10):
        arr = random_hyperplane_arrangement(rng, rng.randint(1, 3))
        for el in _poset_data(arr):
            codim = arr.n - el.dim
            assert (-1) ** codim * el.mobius >= 0


def test_graphical_arrangement_structure():
    assert K3.n == 3
    assert all(s.codim == 1 for s in K3.subspaces)
    g = hypergraph(4, [(1, 2, 3), (3, 4)], special=(1,))
    arr = graphical_arrangement(g)
    assert arr.special == (1,)
    codims = sorted(s.codim for s in arr.subspaces)
    assert codims == [1, 2]
    with pytest.raises(ValueError):
        graphical_arrangement(hypergraph(2, [(1,)]))


def test_chi_of_graphical_equals_chromatic():
    cases = [
        hypergraph(3, [(1, 2, 3)]),
        hypergraph(4, [(1, 2, 3), (3, 4)]),
        hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        hypergraph(5, [(1, 2, 3), (2, 4, 5), (1, 4)]),
    ]
    for g in cases:
        assert characteristic_polynomial(graphical_arrangement(g)) == ordinary_chromatic_poly(g)


def test_clan_structure():
    c = clan(PLANE, (), (2, 2, 1))
    assert c.n == 5
    assert len(c.subspaces) == 4
    assert all(s.codim == 1 for s in c.subspaces)
    cs = clan(PLANE, (1,), (2, 2, 1))
    assert len(cs.subspaces) == 5
    c0 = clan(PLANE, (), (2, 0, 1))
    assert c0.n == 3
    assert len(c0.subspaces) == 0
    lam = ((2,), (1, 1), (1,))
    cl = clan_lambda(PLANE, lam, (2, 2, 1))
    assert cl.n == 4
    assert len(cl.subspaces) == 1 + 2
    with pytest.raises(ValueError):
        clan_lambda(PLANE, ((1,), (1, 1), (1,)), (2, 2, 1))


def test_marked_chromatic_arrangement_closed_form():
    for m3 in (1, 2, 3):
        got = marked_chromatic_arrangement(PLANE, (), (2, 2, m3))
        want = Q * Q * (Q - 1) / 2 * shifted_binomial_poly(3, m3) + Q * Q * (Q - 1) * (
            Q - 3
        ) / 4 * shifted_binomial_poly(4, m3)
        assert got == want
    assert marked_chromatic_arrangement(PLANE, (), (2, 2, 1)).eval(7) == F(1470)


def test_marked_chromatic_arrangement_validation():
    assert marked_chromatic_arrangement(PLANE, (), (0, 0, 0)).eval(9) == F(1)
    with pytest.raises(ValueError):
        marked_chromatic_arrangement(PLANE, (3,), (2, 2, 0))


def test_marked_arrangement_matches_hypergraph_route():
    cases = [
        (hypergraph(3, [(1, 2), (2, 3)]), (), (1, 1, 1)),
        (hypergraph(3, [(1, 2), (2, 3)]), (2,), (1, 2, 1)),
        (hypergraph(3, [(1, 2, 3)]), (1,), (2, 1, 1)),
        (hypergraph(4, [(1, 2, 3), (3, 4)]), (1,), (2, 1, 1, 2)),
    ]
    for g, sp, m in cases:
        arr = graphical_arrangement(g)
        gsp = hypergraph(g.n, g.edges, special=sp)
        assert marked_chromatic_arrangement(arr, sp, m) == marked_chromatic_poly(gsp, m)


def test_brute_force_arrangement_examples():
    assert brute_force_arrangement_count(PLANE, (), (1, 1, 1), 5) == 100
    assert brute_force_arrangement_count(PLANE, (), (2, 2, 1), 7) == 1470
    empty1 = arrangement(1, [])
    assert brute_force_arrangement_count(empty1, (), (1,), 3) == 3
    assert brute_force_arrangement_count(PLANE, (), (0, 0, 0), 5) == 1


def test_brute_force_matches_polynomial_at_primes():
    rng = random.Random(37)
    for _ in range(8):
        arr = random_hyperplane_arrangement(rng, rng.randint(1, 3))
        n = arr.n
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.3)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        sp = tuple(v for v in sp if m[v - 1] > 0)
        poly = marked_chromatic_arrangement(arr, sp, m)
        for p in (5, 7):
            assert poly.eval(p) == brute_force_arrangement_count(arr, sp, m, p)


def test_arrangement_json_round_trip():
    obj = arrangement_to_json(PLANE)
    assert obj == {"n": 3, "special": [], "subspaces": [{"forms": [[1, 1, -1]]}]}
    assert arrangement_from_json(obj) == PLANE
    with pytest.raises(ValueError, match="malformed arrangement object"):
        arrangement_from_json({"n": 2, "subspaces": [{}]})
