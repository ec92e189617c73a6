import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import chromaplex.arrangement as arrangement_module
from chromaplex.arrangement import (
    _count_colorings,
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
from chromaplex.errors import BadPrimeError, BudgetError, VerificationError
from chromaplex.hypergraph import hypergraph
from chromaplex.series import Q, QPolynomial, shifted_binomial_poly

from helpers import (
    naive_arrangement_count,
    naive_complement_count,
    poset_oracle,
    random_hyperplane_arrangement,
    random_subspace_arrangement,
    rref_oracle,
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


def test_rref_matches_gauss_jordan_oracle():
    """Insertion into the echelon basis gives the Gauss-Jordan form on
    seeded matrices of widths 1-7 with 0-7 rows and entries up to 9 in size,
    among them zero rows and repeated or proportional rows."""
    rng = random.Random(31)
    shapes, kinds = set(), set()
    for _ in range(3000):
        w, count = rng.randint(1, 7), rng.randint(0, 7)
        rows = [[rng.randint(-9, 9) for _ in range(w)] for _ in range(count)]
        for i in range(1, count):
            kind = rng.choice(("random", "zero", "repeat", "multiple"))
            if kind == "zero":
                rows[i] = [0] * w
            elif kind != "random":
                k = 1 if kind == "repeat" else rng.choice((-3, -2, 2, 3))
                rows[i] = [k * v for v in rng.choice(rows[:i])]
            kinds.add((kind, w))
        shapes.add((w, count))
        assert rref(rows, w) == rref_oracle(rows, w), rows
    assert shapes == set(itertools.product(range(1, 8), range(8)))
    assert kinds == set(itertools.product(("random", "zero", "repeat", "multiple"), range(1, 8)))


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


def _tuple_count(sp, m, p):
    """The number of collection tuples the naive walk visits."""
    sizes = [
        sum(math.comb(p, k) for k in range(1, v + 1)) if i in sp else math.comb(p, v)
        for i, v in enumerate(m, start=1)
        if v
    ]
    return math.prod(sizes)


def test_counter_matches_naive_oracles():
    """The level-by-level F_p counter against the per-point loop and the
    per-tuple walk: seeded arrangements in dimension n <= 4 with members of
    codimension 1-3, p in {2, 3, 5, 7}, with and without special vertices,
    at bad primes too; then the edge cases by name."""
    rng = random.Random(43)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 4)
        arr = random_subspace_arrangement(rng, n, rng.randint(1, 4))
        p = rng.choice((2, 3, 5, 7))
        m = tuple(rng.randint(0, 2) for _ in range(n))
        sp = tuple(v for v in range(1, n + 1) if m[v - 1] and rng.random() < 0.4)
        assert _count_colorings(arr, (), (1,) * n, p) == naive_complement_count(arr, p)
        if _tuple_count(sp, m, p) <= 5000:
            want = naive_arrangement_count(arr, sp, m, p)
            assert brute_force_arrangement_count(arr, sp, m, p) == want, (arr, sp, m, p)
            seen.update((p, bool(sp), s.codim) for s in arr.subspaces)
    assert seen >= set(itertools.product((2, 3, 5, 7), (False, True), (1, 2, 3)))

    line_x = [[1, 0, 0]]
    edge_cases = {
        "m = 0": (PLANE, (), (0, 0, 0), 5),
        "n = 0": (arrangement(0, []), (), (), 3),
        "a coefficient 0 mod p": (arrangement(2, [[[2, 1]]]), (1,), (2, 1), 2),
        "a form 0 mod p": (arrangement(2, [[[3, 6]], [[1, -1]]]), (), (1, 2), 3),
        "a column 0 mod p": (arrangement(3, [[[1, 5, 0], [0, 5, 1]]]), (2,), (1, 2, 1), 5),
        "a member on one vertex": (arrangement(3, [line_x, [[1, -1, 0]]]), (1,), (2, 1, 1), 3),
        "a member on one vertex, alone": (arrangement(1, [[[1]]]), (1,), (3,), 5),
        "a member skipping a level": (arrangement(3, [[[1, 0, 1]]]), (2,), (1, 2, 1), 5),
        "a support outside supp(m)": (PLANE, (1,), (2, 2, 0), 5),
        "a bad prime": (arrangement(2, [[[1, 1]], [[1, -1]]]), (), (1, 1), 2),
    }
    for label, (arr, sp, m, p) in edge_cases.items():
        want = naive_arrangement_count(arr, sp, m, p)
        assert brute_force_arrangement_count(arr, sp, m, p) == want, label
        assert _count_colorings(arr, (), (1,) * arr.n, p) == naive_complement_count(arr, p), label
    assert brute_force_arrangement_count(PLANE, (), (0, 0, 0), 5) == 1
    assert count_complement(arrangement(0, []), 3) == 1
    # x3 gets no color, so the plane constrains nothing
    assert brute_force_arrangement_count(PLANE, (), (1, 1, 0), 5) == 25
    # a bad prime changes the coloring count, which is still defined, while
    # the point count refuses it
    bad = edge_cases["a bad prime"][0]
    assert brute_force_arrangement_count(bad, (), (1, 1), 2) == 2
    assert characteristic_polynomial(bad).eval(2) == 1
    with pytest.raises(BadPrimeError):
        count_complement(bad, 2)


def test_counter_drops_closed_members():
    """A member leaves the state at its last level, so the levels after it
    add no memo entries for what it saw.  x2 = x3 (x2 special, 63 color
    sets at p = 7) closes at level 2 while x1 = x_n stays open; with one or
    with four free vertices between, the peak memory is about the same (it
    grew 2.9-fold when the closed member was carried along)."""

    def peak(free):
        n = 4 + free
        first, second = [0] * n, [0] * n
        first[1], first[2], second[0], second[-1] = 1, -1, 1, -1
        arr = arrangement(n, [[first], [second]])
        m = (1, 3) + (1,) * (n - 2)
        # x1 and x_n: 7 * 6; x2 on k colors (C(2, k - 1) multisets each) and
        # x3 off them: 7 * 6 + 21 * 2 * 5 + 35 * 4 = 392
        assert _count_colorings(arr, (2,), m, 7) == 42 * 392 * 7**free
        tracemalloc.start()  # after a first run, which allocates once per process
        try:
            _count_colorings(arr, (2,), m, 7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) < 1.5 * peak(1)


def test_oracles_keep_their_refusals(monkeypatch):
    """The budget estimates and messages, the prime check and the bad-prime
    refusal are those of the enumerations the counter replaced."""
    monkeypatch.setenv("CHROMAPLEX_BUDGET", "9")
    assert count_complement(K3, 7) == 7 * 6 * 5  # 343 points
    with pytest.raises(BudgetError, match=r"point enumeration over F_11\^3"):
        count_complement(K3, 11)  # 1331 points
    # at m = (2, 2, 0) a vertex has C(7, 2) = 21 color sets, or 7 + 21 = 28
    # when special: 21 * 21 = 441 tuples fit in 2**9, 28 * 21 = 588 do not
    assert brute_force_arrangement_count(PLANE, (), (2, 2, 0), 7) == 441
    with pytest.raises(BudgetError, match="arrangement coloring enumeration"):
        brute_force_arrangement_count(PLANE, (1,), (2, 2, 0), 7)
    monkeypatch.delenv("CHROMAPLEX_BUDGET")
    with pytest.raises(ValueError, match="4 is not prime"):
        count_complement(BOOL2, 4)
    with pytest.raises(ValueError, match="4 is not prime"):
        brute_force_arrangement_count(PLANE, (), (1, 1, 1), 4)
    with pytest.raises(BadPrimeError, match="prime 2 makes the rows"):
        count_complement(arrangement(2, [[[1, 1]], [[1, -1]]]), 2)


_INTEGER_ENTRY_POINTS = {
    "rref": lambda v: rref([[v, 1]], 2),
    "rank_mod_p": lambda v: rank_mod_p([[v, 1]], 2, 5),
    "arrangement_forms": lambda v: arrangement(2, [[[v, 1]]]),
    "arrangement_special": lambda v: arrangement(2, [[[1, 1]]], [v]),
    "clan": lambda v: clan(PLANE, [v], (2, 1, 1)),
    "clan_lambda": lambda v: clan_lambda(PLANE, ((2,), (1,), (1,)), (2, v, 1)),
    "marked_chromatic_arrangement": lambda v: marked_chromatic_arrangement(PLANE, [v], (2, 1, 1)),
    "brute_force_arrangement_count": lambda v: brute_force_arrangement_count(
        PLANE, [v], (2, 1, 1), 5
    ),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_arrangement_inputs_must_be_integers(entry):
    """Forms, special vertices and multiplicities are refused unless every
    entry is an int: 1.5 is not read as 1, nor True as 1."""
    call = _INTEGER_ENTRY_POINTS[entry]
    for bad in (1.5, 1.0, True, "1", F(1)):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)
    call(1)  # the same call with an int goes through


def test_arrangement_json_round_trip():
    obj = arrangement_to_json(PLANE)
    assert obj == {"n": 3, "special": [], "subspaces": [{"forms": [[1, 1, -1]]}]}
    assert arrangement_from_json(obj) == PLANE
    with pytest.raises(ValueError, match="malformed arrangement object"):
        arrangement_from_json({"n": 2, "subspaces": [{}]})
