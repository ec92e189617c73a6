import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import chromaplex.arrangement as arrangement_module
from chromaplex import budget
from chromaplex.arrangement import (
    _assert_good_prime,
    _count_colorings,
    _poset_data,
    _walk,
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
    region_count,
    rref,
    subspace,
    verification_primes,
)
from chromaplex.chromatic import (
    blow_up,
    marked_chromatic_poly,
    ordinary_chromatic_poly,
)
from chromaplex.errors import BadPrimeError, BudgetError, VerificationError
from chromaplex.hypergraph import hypergraph
from chromaplex.series import Q, QPolynomial, shifted_binomial_poly

from helpers import (
    flats_oracle,
    mobius_oracle,
    naive_arrangement_count,
    naive_complement_count,
    partition_tuple_sum,
    poset_oracle,
    random_hyperplane_arrangement,
    random_subspace_arrangement,
    rref_oracle,
)

F = Fraction

PLANE = arrangement(3, [[[1, 1, -1]]])
BOOL2 = arrangement(2, [[[1, 0]], [[0, 1]]])
K3 = graphical_arrangement(hypergraph(3, [(1, 2), (1, 3), (2, 3)]))
# the member x2 + x3 = x4 = 0 meets each of the planes x1 = x2 = 0 and
# x1 + x2 = x3 + x4 = 0 in the origin, two ranks down, and the origin lies in
# the other plane: skipping it there, with no rank test, would lose the line
# where the two planes meet
NESTED = arrangement(
    4,
    [[[1, 1, 0, 0]], [[0, 1, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0]],
     [[1, 1, 0, 0], [0, 0, 1, 1]]],
)


def braid(n: int):
    """The braid arrangement K_n: the hyperplanes x_i = x_j for i < j <= n."""
    return graphical_arrangement(hypergraph(n, list(itertools.combinations(range(1, n + 1), 2))))


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


def _oracle_arrangements() -> list:
    """The fixed and seeded arrangements of the poset oracle test."""
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
    return fixed + seeded


def test_poset_matches_definition_oracle():
    """Forms, dims and Mobius values of mixed-codimension arrangements, nested
    members included, against the subset-closure oracle.  A poset element
    carries no forms; they are read from ``_walk`` by the element's mask."""
    for arr in _oracle_arrangements():
        forms = {mask: tuple(row for _, row in basis) for basis, mask in _walk(arr)[0].items()}
        got = [(forms[el.mask], el.dim, el.mobius) for el in _poset_data(arr)]
        got.sort(key=lambda t: (len(t[0]), t[0]))
        assert got == poset_oracle(arr), arrangement_to_json(arr)


def _codim2_clans() -> list:
    """The clans of x1 + x2 + x3 = 0 with x1 = x2 = x3, and of seeded
    two-member arrangements in R^3, at every copy-count vector <= (2, 2, 2):
    each lifted member of codimension 2 meets some flat X in a flat of rank
    rank(X) + 2."""
    rng = random.Random(43)
    bases = [arrangement(3, [[[1, 1, 1]], [[1, -1, 0], [0, 1, -1]]])]
    while len(bases) < 5:
        arr = random_subspace_arrangement(rng, 3, 2)
        if any(s.codim == 2 for s in arr.subspaces):
            bases.append(arr)
    clans = {clan_lambda(arr, k): None for arr in bases for k in itertools.product(range(3), repeat=3)}
    assert sum(any(s.codim == 2 for s in arr.subspaces) for arr in clans) >= 30
    return list(clans)


def test_flats_match_walk_oracle():
    """The walk by covers and by known covers finds the same flats with the
    same masks as the walk that meets each flat with every member outside
    it, over Q and mod small primes, good or bad.  The clans with members of
    codimension 2 check that a known flat of rank rank(X) + 2 inside X and
    H_i is never taken for X & H_i."""
    rng = random.Random(37)
    cases = _oracle_arrangements() + [
        random_hyperplane_arrangement(rng, rng.randint(1, 4)) for _ in range(60)
    ]
    cases += [braid(n) for n in (5, 6)] + _codim2_clans()
    assert len(_walk(NESTED)[0]) == 8
    for arr in cases + [NESTED]:
        for p in (0, 2, 3, 5, 7):
            assert _walk(arr, p)[0] == flats_oracle(arr, p), (arrangement_to_json(arr), p)


def test_known_covers_need_no_meet(monkeypatch):
    """On K8 every meet finds a new flat: a meet that would land on a known
    cover is answered by the bitsets, so ``_walk`` makes one ``_insert``
    call per flat but the whole space, 4,139, over Q and at p = 11 (the
    walk by covers alone made 28,337)."""
    k8 = braid(8)
    calls = []
    real = arrangement_module._insert
    monkeypatch.setattr(arrangement_module, "_insert", lambda *a: calls.append(1) or real(*a))
    for p in (0, 11):
        calls.clear()
        assert len(_walk(k8, p)[0]) == 4140
        assert len(calls) == 4139, p


def test_mobius_bitsets_match_pairwise_oracle():
    """The Mobius sum on bitsets gives the poset elements of the pairwise sum,
    dims, mu values and masks in the same order, on the oracle arrangements,
    braid K5-K7, the nested case, and the clans of seeded one- and
    two-member arrangements at every copy-count vector <= (2, 2, 2), which
    are the clans of every m <= (2, 2, 2) with all supported vertices
    special, and the codimension-2 clans of the walk oracle test."""
    rng = random.Random(71)
    cases = _oracle_arrangements() + [braid(n) for n in (5, 6, 7)] + [NESTED] + _codim2_clans()
    clans: dict = {}
    for count in [1] * 4 + [2] * 8:
        arr = random_subspace_arrangement(rng, 3, count)
        for counts in itertools.product(range(3), repeat=3):
            clans[clan_lambda(arr, counts)] = None
    assert len(clans) > 100
    for arr in cases + list(clans):
        assert _poset_data(arr) == mobius_oracle(arr), arrangement_to_json(arr)


def test_characteristic_polynomial_braid_k8():
    """The Mobius sum on K8's 4,140 flats: chi is q(q - 1)...(q - 7)."""
    k8 = braid(8)
    assert len(_poset_data(k8)) == 4140
    assert characteristic_polynomial(k8) == math.prod((Q - k for k in range(1, 8)), start=Q)


def test_flat_walk_is_charged(monkeypatch):
    """Each level of the flat walk is charged the flats found so far times
    the members, over Q and over F_p: K8 (4,140 flats, 28 members) is
    refused at a budget of 2^16, and K7 (877 flats, 21 members) still fits."""
    monkeypatch.setattr(budget, "_limit", 1 << 16)
    for p in (0, 11):
        with pytest.raises(BudgetError, match="intersection poset walk over 28 members"):
            _walk(braid(8), p)[0]
    # with the caches cleared, the walk itself refuses K8
    characteristic_polynomial.cache_clear()
    _poset_data.cache_clear()
    with pytest.raises(BudgetError, match="intersection poset walk"):
        characteristic_polynomial(braid(8))
    assert len(_walk(braid(7), 11)[0]) == 877
    assert characteristic_polynomial(braid(7)) == math.prod((Q - k for k in range(1, 7)), start=Q)


def test_cached_poset_is_answered_uncharged(monkeypatch):
    """A poset or polynomial in its cache was computed under the budget,
    which is fixed per process, and is returned with no charge: K8,
    computed at the default budget, is answered from the caches with no
    call to ``charge``.  With the caches cleared, K8 is refused at 2^16 with
    the walk's message, and K7 still fits."""
    k7, k8 = braid(7), braid(8)
    chi7, chi8 = characteristic_polynomial(k7), characteristic_polynomial(k8)
    poset8 = _poset_data(k8)
    charges = []
    monkeypatch.setattr(arrangement_module, "charge", lambda *args: charges.append(args))
    hits = characteristic_polynomial.cache_info().hits
    assert characteristic_polynomial(k8) == chi8 and _poset_data(k8) == poset8
    assert characteristic_polynomial.cache_info().hits == hits + 1 and charges == []
    monkeypatch.undo()
    characteristic_polynomial.cache_clear()
    _poset_data.cache_clear()
    monkeypatch.setattr(budget, "_limit", 1 << 16)
    for fn in (characteristic_polynomial, _poset_data):
        with pytest.raises(BudgetError, match="intersection poset walk over 28 members"):
            fn(k8)
    assert characteristic_polynomial(k7) == chi7
    assert len(_poset_data(k7)) == 877


def test_walk_charge_at_its_exact_boundary(monkeypatch):
    """K7 is charged its 877 flats times its 21 members, 18,417, when it is
    computed: at a budget of exactly that, the polynomial and the poset are
    computed with cold caches and then answered from them; at one less, both
    are refused whenever the caches are cold."""
    k7 = braid(7)
    chi7 = math.prod((Q - k for k in range(1, 7)), start=Q)
    refused = "intersection poset walk over 21 members: estimated enumeration size 18417 "
    checks = (
        (characteristic_polynomial, lambda chi: chi == chi7),
        (_poset_data, lambda poset: len(poset) == 877),
    )
    for fn, check in checks:
        characteristic_polynomial.cache_clear()
        _poset_data.cache_clear()
        monkeypatch.setattr(budget, "_limit", 18_416)
        with pytest.raises(BudgetError, match=refused):
            fn(k7)
        monkeypatch.setattr(budget, "_limit", 18_417)
        computed = fn(k7)  # the refused call counted a miss too
        assert fn.cache_info().misses == 2 and fn.cache_info().hits == 0 and check(computed)
        assert fn(k7) == computed and fn.cache_info().hits == 1
        characteristic_polynomial.cache_clear()
        _poset_data.cache_clear()
        monkeypatch.setattr(budget, "_limit", 18_416)
        with pytest.raises(BudgetError, match=refused):
            fn(k7)


def test_marked_arrangement_groups_partition_tuples():
    """The arrangement route's sum over copy counts equals the paper's sum
    over partition tuples at a special vertex with m_v = 4 or 5, where two
    partitions share a copy count: seeded arrangements in R^2 and R^3, the
    oracle ``partition_tuple_sum`` over the same clans; a few also against
    the coloring count at both verification primes, and graphical
    arrangements against the block-partition formula."""
    rng = random.Random(89)
    for case in range(8):
        n = rng.randint(2, 3)
        arr = random_subspace_arrangement(rng, n, rng.randint(1, 2))
        sp = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        m = [rng.randint(1, 4 - n) if v in sp else rng.randint(0, 1) for v in range(1, n + 1)]
        m[sp[0] - 1] = 4 + case % 2
        m = tuple(m)
        poly = marked_chromatic_arrangement(arr, sp, m)
        assert poly == partition_tuple_sum(
            m, sp, lambda lam: characteristic_polynomial(clan_lambda(arr, tuple(map(len, lam))))
        ), (arrangement_to_json(arr), sp, m)
        if case < 2:
            for p in verification_primes(arr, m):
                assert poly.eval(p) == brute_force_arrangement_count(arr, sp, m, p)
    path = hypergraph(3, [(1, 2), (2, 3)], special=(1, 2))
    for m in ((4, 1, 1), (1, 5, 0)):
        assert marked_chromatic_arrangement(
            graphical_arrangement(path), (1, 2), m
        ) == marked_chromatic_poly(path, m)


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


def test_prime_keeping_the_poset_is_good():
    """Rows x1 + p x2 + x3, x1 and x3 are independent over Q and dependent
    mod p, yet every intersection of the three members keeps its rank, so p
    is good: the count of points is chi(p) = p^4 - 3p^2 + 2."""
    for p, want in ((2, 6), (3, 56), (5, 552)):
        forms = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]]
        arr = arrangement(4, forms + [[[1, p, 1, 0], [0, 1, 0, 1]]])
        _assert_good_prime(arr, p)
        assert count_complement(arr, p) == characteristic_polynomial(arr).eval(p) == want
        assert naive_complement_count(arr, p) == want


def test_certified_primes_count_chi():
    """Wherever the certificate accepts a small prime, the points of F_p^n
    off the members number chi(p); it refuses some primes and accepts most."""
    rng = random.Random(61)
    accepted = refused = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        arr = random_subspace_arrangement(rng, n, rng.randint(1, 4))
        chi = characteristic_polynomial(arr)
        for p in (2, 3, 5):
            try:
                _assert_good_prime(arr, p)
            except BadPrimeError:
                refused += 1
                continue
            accepted += 1
            assert naive_complement_count(arr, p) == chi.eval(p), (arrangement_to_json(arr), p)
    assert refused > 0 and accepted > 4 * refused


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
    cl = clan_lambda(PLANE, (1, 2, 1))
    assert cl.n == 4
    assert len(cl.subspaces) == 1 + 2
    with pytest.raises(ValueError, match="copy counts"):
        clan_lambda(PLANE, (1, 2))


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


def test_special_set_outside_support_is_refused_alike():
    """The polynomial and its F_p oracle refuse a special vertex outside
    supp(m) in the same words."""
    want = r"special set \(3,\) must lie inside the support \(1, 2\) of m"
    with pytest.raises(ValueError, match=want):
        marked_chromatic_arrangement(PLANE, (3,), (2, 2, 0))
    with pytest.raises(ValueError, match=want):
        brute_force_arrangement_count(PLANE, (3,), (2, 2, 0), 5)


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
        for p in verification_primes(arr, m):
            assert poly.eval(p) == brute_force_arrangement_count(arr, sp, m, p)


def test_verification_primes_skip_bad_primes():
    """The primes certified for the clan with one copy per unit of m are
    good for every clan of the copy-count sum, and the coloring count
    matches the polynomial at them; a bad prime below them can break that."""
    lines = arrangement(2, [[[1, 2]], [[1, -3]]])
    assert verification_primes(lines, (1, 1)) == (7, 11)
    assert brute_force_arrangement_count(lines, (), (1, 1), 5) == 20
    assert marked_chromatic_arrangement(lines, (), (1, 1)).eval(5) == 16
    assert verification_primes(PLANE, (2, 2, 1)) == (5, 7)
    assert verification_primes(PLANE, (0, 0, 0)) == (5, 7)
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        arr = random_subspace_arrangement(rng, n, rng.randint(1, 3))
        m = tuple(rng.randint(0, 2) for _ in range(n))
        sp = tuple(v for v in range(1, n + 1) if m[v - 1] and rng.random() < 0.5)
        finest = clan_lambda(arr, m)
        ranges = [range(min(v, 1) if i in sp else v, v + 1) for i, v in enumerate(m, start=1)]
        for p in (2, 3, 5, 7):
            try:
                _assert_good_prime(finest, p)
            except BadPrimeError:
                continue
            for counts in itertools.product(*ranges):
                _assert_good_prime(clan_lambda(arr, counts), p)
                checked += 1
        p, r = verification_primes(arr, m)
        poly = marked_chromatic_arrangement(arr, sp, m)
        for prime in (p, r):
            assert poly.eval(prime) == brute_force_arrangement_count(arr, sp, m, prime)
    assert checked > 100


def test_blow_up_arrangement_is_the_clan():
    """The graphical arrangement of a blow-up is the clan of the graphical
    arrangement at the same copy counts: seeded simple hypergraphs with
    special vertices, every copy-count vector <= 2."""
    rng = random.Random(61)
    cases = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        edges: list[frozenset] = []
        for _ in range(rng.randint(1, 3)):
            e = frozenset(rng.sample(range(1, n + 1), rng.randint(2, n)))
            if all(not (e <= f or f <= e) for f in edges):
                edges.append(e)
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        g = hypergraph(n, edges, special=sp)
        arr = graphical_arrangement(g)
        for counts in itertools.product(range(3), repeat=n):
            assert graphical_arrangement(blow_up(g, counts)) == clan_lambda(arr, counts)
            cases += 1
    assert cases > 500


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


def test_count_complement_charges_before_its_walks(monkeypatch):
    """The p^n points are charged right after the prime check, before the
    flat walks of the good-prime check: K8 at p = 13, 13^8 points, is
    refused at 2^16 with no walk made, and K4 at p = 13 still counts
    13 * 12 * 11 * 10 points at the default budget."""
    walks = []
    real = arrangement_module._walk
    monkeypatch.setattr(arrangement_module, "_walk", lambda *a: walks.append(a) or real(*a))
    monkeypatch.setattr(budget, "_limit", 1 << 16)
    with pytest.raises(BudgetError, match=r"point enumeration over F_13\^8: .* 815730721 "):
        count_complement(braid(8), 13)
    assert walks == []
    monkeypatch.setattr(budget, "_limit", 1 << budget.DEFAULT_EXPONENT)
    assert count_complement(braid(4), 13) == 17160


def test_oracles_keep_their_refusals(monkeypatch):
    """The budget estimates and messages, the prime check and the bad-prime
    refusal are those of the enumerations the counter replaced."""
    monkeypatch.setattr(budget, "_limit", 1 << 9)
    assert count_complement(K3, 7) == 7 * 6 * 5  # 343 points
    with pytest.raises(BudgetError, match=r"point enumeration over F_11\^3"):
        count_complement(K3, 11)  # 1331 points
    # at m = (2, 2, 0) a vertex has C(7, 2) = 21 color sets, or 7 + 21 = 28
    # when special: 21 * 21 = 441 tuples fit in 2**9, 28 * 21 = 588 do not
    assert brute_force_arrangement_count(PLANE, (), (2, 2, 0), 7) == 441
    with pytest.raises(BudgetError, match="arrangement coloring enumeration"):
        brute_force_arrangement_count(PLANE, (1,), (2, 2, 0), 7)
    monkeypatch.setattr(budget, "_limit", 1 << budget.DEFAULT_EXPONENT)
    with pytest.raises(ValueError, match="4 is not prime"):
        count_complement(BOOL2, 4)
    with pytest.raises(ValueError, match="4 is not prime"):
        brute_force_arrangement_count(PLANE, (), (1, 1, 1), 4)
    with pytest.raises(BadPrimeError, match="prime 2 changes the intersection poset"):
        count_complement(arrangement(2, [[[1, 1]], [[1, -1]]]), 2)


_INTEGER_ENTRY_POINTS = {
    "rref": lambda v: rref([[v, 1]], 2),
    "arrangement_dimension": lambda v: arrangement(v, []),
    "arrangement_forms": lambda v: arrangement(2, [[[v, 1]]]),
    "arrangement_special": lambda v: arrangement(2, [[[1, 1]]], [v]),
    "clan": lambda v: clan(PLANE, [v], (2, 1, 1)),
    "clan_lambda": lambda v: clan_lambda(PLANE, (1, v, 1)),
    "marked_chromatic_arrangement": lambda v: marked_chromatic_arrangement(PLANE, [v], (2, 1, 1)),
    "brute_force_arrangement_count": lambda v: brute_force_arrangement_count(
        PLANE, [v], (2, 1, 1), 5
    ),
    "brute_force_arrangement_count_p": lambda v: brute_force_arrangement_count(
        PLANE, (), (1, 1, 1), v
    ),
    "count_complement": lambda v: count_complement(PLANE, v),
}
# the int each entry takes; the refused values stand for the same number
_GOOD_VALUE = {"brute_force_arrangement_count_p": 7, "count_complement": 5}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_arrangement_inputs_must_be_integers(entry):
    """Dimensions, forms, special vertices, multiplicities and primes are
    refused unless every entry is an int: 1.5 is not read as 1, nor True as
    1, nor 5.0 as the prime 5."""
    call = _INTEGER_ENTRY_POINTS[entry]
    good = _GOOD_VALUE.get(entry, 1)
    for bad in (good + 0.5, float(good), True, str(good), F(good)):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)
    call(good)  # the same call with an int goes through


def test_arrangement_json_round_trip():
    obj = arrangement_to_json(PLANE)
    assert obj == {"n": 3, "special": [], "subspaces": [{"forms": [[1, 1, -1]]}]}
    assert arrangement_from_json(obj) == PLANE
    with pytest.raises(ValueError, match="malformed arrangement object"):
        arrangement_from_json({"n": 2, "subspaces": [{}]})
