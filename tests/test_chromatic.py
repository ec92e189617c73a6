import itertools
import math
import operator
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from chromaplex import budget
import chromaplex.chromatic as chromatic_module
from chromaplex.chromatic import (
    blow_up,
    brute_force_count,
    chordal_marked_chromatic,
    chordal_multichromatic,
    chromatic_via_blowup,
    coefficient_via_binomial,
    copy_count_sum,
    count_Pk_mult,
    cycle_graph,
    cycle_multichromatic,
    find_peo,
    full_edge_closed_form,
    marked_chromatic_poly,
    ordinary_chromatic_poly,
)
from chromaplex.errors import BudgetError, VerificationError
import chromaplex.hypergraph as hypergraph_module
import chromaplex.series as series_module
from chromaplex.hypergraph import (
    hypergraph,
    hypergraph_from_system,
    independence_system,
    marked_independence_series,
)
from chromaplex.series import (
    Q,
    QPolynomial,
    binomial_poly,
    poly_from_binomial_coordinates,
    series_int_pow,
    shifted_binomial_poly,
)
from helpers import (
    chordal_partition_oracle,
    chromatic_delcon,
    count_Pk_ordered_debug,
    downward_closed_families,
    duplication_factor,
    enumerate_partition_tuples,
    partition_tuple_sum,
    partitions_of,
    random_chordal_edges,
    random_hypergraph,
    series_one,
)

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


def test_brute_force_refuses_non_integer_q():
    """True is not read as one color, nor 2.0 as two."""
    e = hypergraph(2, [(1, 2)])
    for bad in (True, 2.0, 2.5, "2", F(2)):
        with pytest.raises(ValueError, match="must be integers"):
            brute_force_count(e, (1, 1), bad)
    assert brute_force_count(e, (1, 1), 2) == 2


def test_brute_force_charges_before_building(monkeypatch):
    """The estimate is the product of C(q, m_v) color sets at plain vertices
    and C(q + m_v - 1, m_v) multisets at special ones, charged before any
    set is built: 125,970 sets of 8 of 20 colors are refused in under 1 MB,
    and a budget of exactly the product computes."""
    monkeypatch.setattr(budget, "_limit", 1 << 10)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="brute-force coloring enumeration of size 125970"):
            brute_force_count(hypergraph(1), (8,), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # C(4, 2) = 6 sets at vertex 1 and C(5, 2) = 10 multisets at vertex 2
    g = hypergraph(2, [(1, 2)], special=(2,))
    monkeypatch.setattr(budget, "_limit", 60)
    assert brute_force_count(g, (2, 2), 4) == marked_chromatic_poly(g, (2, 2)).eval(4)
    monkeypatch.setattr(budget, "_limit", 59)
    with pytest.raises(BudgetError, match="brute-force coloring enumeration of size 60"):
        brute_force_count(g, (2, 2), 4)
    # no colors: one empty multiset at m_v = 0, none above it
    assert brute_force_count(hypergraph(2, [], special=(1, 2)), (0, 0), 0) == 1
    assert brute_force_count(hypergraph(2, [], special=(1, 2)), (0, 1), 0) == 0


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
    """The partition-tuple enumerators of the oracle ``partition_tuple_sum``."""
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


def test_copy_count_sum_refuses_bad_input():
    """A negative multiplicity is not read as 0, and a special vertex must
    lie in 1..n."""
    with pytest.raises(ValueError, match="multiplicities"):
        copy_count_sum((-1, 2), (2,), lambda k: Q)
    with pytest.raises(ValueError, match="special vertices"):
        copy_count_sum((1, 2), (3,), lambda k: Q)


# a path whose two ends are special, for multiplicities that are 0 there
PATH_ENDS = hypergraph(3, [(1, 2), (2, 3)], special=(1, 3))


def test_special_vertex_without_multiplicity_takes_no_copies():
    """A special vertex with m_v = 0 takes k_v = 0 alone, not an empty range
    of copy counts that would make the whole sum 0: the blow-up, chordal and
    block-partition polynomials agree, and brute force at q = 2, 3."""
    seen: list = []
    copy_count_sum((0, 2, 3), (1, 3), lambda k: seen.append(k) or Q)
    assert seen == [(0, 2, 1), (0, 2, 2), (0, 2, 3)]
    for m in ((0, 2, 3), (4, 1, 0), (4, 0, 4)):
        poly = marked_chromatic_poly(PATH_ENDS, m)
        assert poly != QPolynomial()
        assert chromatic_via_blowup(PATH_ENDS, m) == poly
        assert chordal_marked_chromatic(PATH_ENDS, m) == poly
        for q in (2, 3):
            assert poly.eval(q) == brute_force_count(PATH_ENDS, m, q), (m, q)


def test_copy_counts_group_partition_tuples():
    """Both hypergraph routes that sum over copy counts equal the paper's sum
    over partition tuples, at a special vertex with m_v = 4 or 5, where two
    partitions share a copy count ((3, 1) and (2, 2) give 2): seeded chordal
    graphs with special vertices, each route against the oracle
    ``partition_tuple_sum`` over the same term, and against the
    block-partition formula; a few also against brute force."""
    rng = random.Random(97)
    for case in range(30):
        n = rng.randint(1, 4)
        sp = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        g = hypergraph(n, random_chordal_edges(rng, n), special=sp)
        m = [rng.randint(0, 2) for _ in range(n)]
        m[rng.choice(sp) - 1] = 4 + case % 2
        m = tuple(m)
        poly = marked_chromatic_poly(g, m)
        blowup = chromatic_via_blowup(g, m)
        assert blowup == poly, (g, m)
        assert blowup == partition_tuple_sum(
            m, sp, lambda lam: ordinary_chromatic_poly(blow_up(g, tuple(map(len, lam))))
        )
        assert chordal_marked_chromatic(g, m) == chordal_partition_oracle(g, m) == poly
        if case < 4:
            for q in (2, 3):
                assert poly.eval(q) == brute_force_count(g, m, q), (g, m, q)


def test_blow_up_structure():
    g = hypergraph(2, [(1, 2)])
    b = blow_up(g, (2, 1))
    assert b.n == 3
    assert b.edges == ((1, 2), (1, 3), (2, 3))
    assert b.special == ()
    b0 = blow_up(g, (1, 0))
    assert b0.n == 1
    assert b0.edges == ()
    for bad in ((2,), (2, -1), (2.0, 1)):
        with pytest.raises(ValueError, match="copy counts"):
            blow_up(g, bad)


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


def test_closed_forms_refuse_non_integer_multiplicities():
    """(2.7, 1) is not read as (2, 1), nor (1.5, 1, 1) as (1, 1, 1)."""
    with pytest.raises(ValueError, match="must be integers"):
        full_edge_closed_form((2.7, 1))
    with pytest.raises(ValueError, match="must be integers"):
        full_edge_closed_form((True, 1))
    with pytest.raises(ValueError, match="must be integers"):
        cycle_multichromatic((1.5, 1, 1))
    with pytest.raises(ValueError, match="must be integers"):
        cycle_multichromatic((F(1), 1, 1))
    assert full_edge_closed_form((2, 1)) == Q * (Q - 1) * (Q - 2) / 2
    assert cycle_multichromatic((1, 1, 1)) == Q * (Q - 1) * (Q - 2)


_COUNT_ENTRY_POINTS = {
    "copy_count_sum": lambda v: copy_count_sum((v, 1), (), lambda k: Q),
    "copy_count_sum_special": lambda v: copy_count_sum((2, 1), (v,), lambda k: Q),
    "count_Pk_mult": lambda v: count_Pk_mult(hypergraph(2, [(1, 2)]), (1, 1), v),
    "binomial_poly": lambda v: binomial_poly(v),
    "shifted_binomial_poly": lambda v: shifted_binomial_poly(v, 2),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_counts_must_be_integers(entry):
    """A multiplicity, a special vertex, a block count k or a binomial index
    is refused unless it is an int: 1.0 and True are not read as 1, even
    after the call with 1 has filled a cache."""
    call = _COUNT_ENTRY_POINTS[entry]
    call(1)
    for bad in (1.5, 1.0, True, "1", F(1)):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)


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
        assert cycle_multichromatic(m) == marked_chromatic_poly(cycle_graph(len(m)), m)
    # every m in {1,2,3}^n with |m| <= 11, for n = 3..5
    for n in (3, 4, 5):
        for m in itertools.product((1, 2, 3), repeat=n):
            if sum(m) <= 11:
                assert cycle_multichromatic(m) == marked_chromatic_poly(cycle_graph(n), m), m
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle_multichromatic((1, 1))
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle_graph(2)
    with pytest.raises(ValueError, match="all multiplicities >= 1"):
        cycle_multichromatic((0, 1, 1))


def test_cycle_gate_raises(monkeypatch):
    monkeypatch.setattr(chromatic_module, "marked_chromatic_poly", lambda g, m: QPolynomial())
    with pytest.raises(VerificationError):
        cycle_multichromatic((1, 1, 1))


def test_poly_from_binomial_coordinates():
    """The integer conversion that ends both coefficient routes, against the
    sum of binomial(q, k) product polynomials and against values at q."""
    rng = random.Random(3141)
    vectors = [[], [0], [0, 0, 0], [1], [0, 0, 5, 0, 0], [0] * 11]
    for _ in range(60):
        d = rng.randint(0, 10)
        c = [rng.randint(-50, 50) for _ in range(d + 1)]
        vectors.append(c + [0] * rng.randint(0, 2))
    for c in vectors:
        poly = poly_from_binomial_coordinates(c)
        assert all(type(v) is Fraction for v in poly.coeffs)
        expect = QPolynomial()
        for k, ck in enumerate(c):
            expect = expect + shifted_binomial_poly(0, k) * ck
        assert poly == expect
        for q in range(len(c) + 1):
            assert poly.eval(q) == sum(ck * math.comb(q, k) for k, ck in enumerate(c))


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


def clear_tables():
    for cache in (chromatic_module._tables, chromatic_module._partition_formula):
        cache.cache_clear()


def assert_block_table_matches_oracle(g, window):
    table = chromatic_module._block_table(g, window)
    assert list(table) == list(itertools.product(*(range(t + 1) for t in window)))
    for m, cell in table.items():
        assert cell == tuple(count_Pk_ordered_debug(g, m, k) for k in range(sum(m) + 1)), m


def test_block_table_matches_ordered_oracle():
    """Every cell of a block table against the direct recursion over ordered
    tuples: at window (2,...,2) for n <= 5, with and without special
    vertices; at uneven windows with zero bounds; at n = 0; and with special
    vertices at caps 3 and 4, where one block repeats up to four times."""
    rng = random.Random(2024)
    for trial in range(30):
        n = rng.randint(1, 4) if trial < 24 else 5
        g = random_hypergraph(rng, n, rng.randint(0, 3))
        sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.5) if trial % 2 else ()
        assert_block_table_matches_oracle(hypergraph(n, g.edges, special=sp), (2,) * n)
    for window in ((3, 0, 2), (0, 0), (0, 2, 0, 1), (4, 1, 3)):
        for _ in range(3):
            n = len(window)
            g = random_hypergraph(rng, n, rng.randint(0, 3))
            sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
            assert_block_table_matches_oracle(hypergraph(n, g.edges, special=sp), window)
    assert_block_table_matches_oracle(hypergraph(0), ())
    for edges, sp, window in (
        ([], (1, 2), (4, 4)),
        ([(1, 2)], (1, 2), (4, 3)),
        ([(1, 3)], (1,), (4, 2, 1)),
        ([(1, 2, 3)], (1, 2, 3), (3, 3, 3)),
        ([(2, 3)], (1, 3), (3, 3, 3)),
    ):
        assert_block_table_matches_oracle(hypergraph(len(window), edges, special=sp), window)


def test_block_table_stays_off_the_series_route(monkeypatch):
    """The block table multiplies no series, so the two coefficient routes
    stay two computations."""

    def refuse(*args):
        raise AssertionError("the block table multiplied series")

    monkeypatch.setattr(series_module.DenseWindow, "mul", refuse)
    monkeypatch.setattr(chromatic_module, "_series_table", refuse)
    g = hypergraph(3, [(1, 2)], special=(1, 3))
    assert_block_table_matches_oracle(g, (2, 2, 2))


def test_edgeless_closed_forms_at_large_windows():
    """An edgeless hypergraph counts each vertex alone: C(q + m_v - 1, m_v)
    multisets at a special vertex, C(q, m_v) sets at a plain one.  At
    (6,6,6) the block table holds 342 blocks over 343 cells."""
    clear_tables()
    t0 = time.monotonic()
    multisets = shifted_binomial_poly(-5, 6)  # C(q + 5, 6)
    want = multisets * multisets * multisets
    assert marked_chromatic_poly(hypergraph(3, [], (1, 2, 3)), (6, 6, 6)) == want
    sets = binomial_poly(3)
    assert marked_chromatic_poly(hypergraph(4), (3, 3, 3, 3)) == sets * sets * sets * sets
    assert time.monotonic() - t0 < 1.0


def record_builds(monkeypatch) -> list[tuple[str, tuple]]:
    """(builder name, window) for each table either route builds from now on."""
    builds: list[tuple[str, tuple]] = []
    for name in ("_block_table", "_series_table"):
        build = getattr(chromatic_module, name)

        def recording(*args, name=name, build=build):
            builds.append((name, args[-1]))
            return build(*args)

        monkeypatch.setattr(chromatic_module, name, recording)
    return builds


def test_tables_answer_every_order(monkeypatch):
    """Over all m <= (2,...,2) in lex, reverse and shuffled order, both
    routes agree with the ordered-block oracle and with a call made on
    cleared caches, and each route rebuilds its table only at a window
    strictly above the last one.  In lex order the growth to a cube builds
    each table at most 3 times: at (0,...,0), (1,...,1) and (2,...,2)."""
    builds = record_builds(monkeypatch)
    rng = random.Random(77)
    families = {n: list(downward_closed_families(n)) for n in (2, 3, 4)}
    with warnings.catch_warnings():
        # families that miss a ground element warn
        warnings.simplefilter("ignore", UserWarning)
        for n in (2, 3, 3, 4, 4):
            a = independence_system(n, rng.choice(families[n]))
            sp = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
            g = hypergraph_from_system(a, sp)
            ms = list(itertools.product(range(3), repeat=n))
            oracle = {
                m: poly_from_binomial_coordinates(
                    [count_Pk_ordered_debug(g, m, k) for k in range(sum(m) + 1)]
                )
                for m in ms
            }
            fresh = {}
            for m in ms:
                clear_tables()
                fresh[m] = (marked_chromatic_poly(g, m), coefficient_via_binomial(a, sp, m))
            shuffled = ms[:]
            rng.shuffle(shuffled)
            for order in (ms, ms[::-1], shuffled):
                clear_tables()
                builds.clear()
                for m in order:
                    got = (marked_chromatic_poly(g, m), coefficient_via_binomial(a, sp, m))
                    assert got == fresh[m] == (oracle[m], oracle[m]), (a, sp, m)
                for name in ("_block_table", "_series_table"):
                    windows = [w for who, w in builds if who == name]
                    for low, high in zip(windows, windows[1:]):
                        assert low != high and all(map(operator.le, low, high)), windows
                    assert windows[-1] == (2,) * n
                    if order is ms:
                        assert len(windows) <= 3, windows


def test_table_growth_skips_a_far_larger_cube(monkeypatch):
    """After a table at (10,0,0,0,0,0), a call at (0,1,0,0,0,0) grows it to
    the join (10,1,0,0,0,0): the cube (10,...,10) fits the budget but has
    more than 2^6 times the join's 22 cells."""
    builds = record_builds(monkeypatch)
    clear_tables()
    a = independence_system(6, [(), (1,), (2,), (3,), (1, 2)])
    g = hypergraph_from_system(a, (1,))
    with warnings.catch_warnings():
        # ground elements 4..6 are in no member
        warnings.simplefilter("ignore", UserWarning)
        for m in ((10, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (10, 1, 0, 0, 0, 0)):
            want = poly_from_binomial_coordinates(
                [count_Pk_ordered_debug(g, m, k) for k in range(sum(m) + 1)]
            )
            assert marked_chromatic_poly(g, m) == coefficient_via_binomial(a, (1,), m) == want
    for name in ("_block_table", "_series_table"):
        windows = [w for who, w in builds if who == name]
        assert windows == [(10, 0, 0, 0, 0, 0), (10, 1, 0, 0, 0, 0)], windows


def test_cached_cells_are_answered_uncharged(monkeypatch):
    """A cell already computed is returned with no charge, since the budget
    is fixed per process; a call that needs a new table is charged m's own
    cells, naming m, before any work."""
    clear_tables()
    g = hypergraph(2, [(1, 2)], special=(1, 2))
    a = independence_system(2, [(), (1,), (2,)])
    calls = (
        lambda: marked_chromatic_poly(g, (4, 4)),
        lambda: coefficient_via_binomial(a, (1, 2), (4, 4)),
        lambda: count_Pk_mult(g, (4, 4), 1),
    )
    for m in itertools.product(range(5), repeat=2):
        marked_chromatic_poly(g, m)
        coefficient_via_binomial(a, (1, 2), m)
        count_Pk_mult(g, m, 1)
    warm = [call() for call in calls]
    charges = []

    def recording(estimate, what):
        charges.append((estimate, what))
        budget.charge(estimate, what)

    monkeypatch.setattr(chromatic_module, "charge", recording)
    monkeypatch.setattr(budget, "_limit", 1 << 4)
    assert [call() for call in calls] == warm
    assert charges == []
    clear_tables()
    for call in calls:
        with pytest.raises(BudgetError, match=r"m=\(4, 4\): estimated enumeration size 25 "):
            call()
    assert charges == [(25, "coefficient table at m=(4, 4)")] * 3
    assert marked_chromatic_poly(g, (3, 3)) == coefficient_via_binomial(a, (1, 2), (3, 3))


def test_series_table_gates_every_build(monkeypatch):
    """A table rebuilt for a larger window runs the system-series gate
    again, over the whole new window."""
    clear_tables()
    a = independence_system(2, [(), (1,), (2,)])
    assert coefficient_via_binomial(a, (1,), (1, 0)) == Q
    monkeypatch.setattr(
        hypergraph_module, "marked_independence_series", lambda g, trunc: series_one(g.n, trunc)
    )
    assert coefficient_via_binomial(a, (1,), (0, 0)) == QPolynomial((F(1),))
    with pytest.raises(VerificationError):
        coefficient_via_binomial(a, (1,), (1, 1))


def test_table_growth_stays_within_budget(monkeypatch):
    """When the grown window is over budget the table is rebuilt at m alone,
    so a call is refused only when m's own window is over budget."""
    monkeypatch.setattr(budget, "_limit", 1 << 4)
    clear_tables()
    g = hypergraph(2, [(1, 2)], special=(1, 2))
    a = independence_system(2, [(), (1,), (2,)])
    multisets = shifted_binomial_poly(-14, 15)  # C(q + 14, 15)
    assert marked_chromatic_poly(g, (15, 0)) == multisets
    assert coefficient_via_binomial(a, (1, 2), (15, 0)) == multisets
    assert marked_chromatic_poly(g, (0, 1)) == Q
    assert coefficient_via_binomial(a, (1, 2), (0, 1)) == Q
    with pytest.raises(BudgetError):
        marked_chromatic_poly(g, (16, 0))
    with pytest.raises(BudgetError):
        coefficient_via_binomial(a, (1, 2), (16, 0))
