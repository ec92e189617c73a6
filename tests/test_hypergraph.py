import itertools
import random
from fractions import Fraction

import pytest

from chromaplex.chromatic import coefficient_via_binomial, count_Pk_mult, marked_chromatic_poly
from chromaplex.errors import BudgetError, VerificationError
from chromaplex.hypergraph import (
    hypergraph,
    hypergraph_from_json,
    hypergraph_from_system,
    hypergraph_to_json,
    independence_system,
    independent_sets,
    is_even,
    is_simple,
    marked_independence_series,
    marked_independent_vectors,
    system_from_json,
    system_series,
    system_validate,
    validate,
)
import chromaplex.hypergraph as hypergraph_module
from chromaplex.series import TruncatedSeries

F = Fraction

FIG1 = hypergraph(5, [(1, 2, 3), (2, 4, 5), (1, 4)], special=(2, 3))


def test_constructor_normalizes():
    g = hypergraph(4, [(3, 4), (2, 1, 3), (3, 4)], special=(2, 2))
    assert g.edges == ((3, 4), (1, 2, 3))
    assert g.special == (2,)
    with pytest.raises(ValueError):
        hypergraph(3, [(1, 5)])
    with pytest.raises(ValueError):
        hypergraph(3, [()])
    with pytest.raises(ValueError):
        hypergraph(2, [], special=(3,))
    with pytest.raises(ValueError):
        hypergraph(-1, [])


def test_shape_flags():
    assert validate(FIG1) == (True, False)
    assert is_simple(FIG1) and not is_even(FIG1)
    assert is_even(hypergraph(4, [(1, 2), (3, 4)]))
    assert is_even(hypergraph(3, []))
    assert not is_simple(hypergraph(3, [(1,)]))
    assert not is_simple(hypergraph(3, [(1, 2), (1, 2, 3)]))


def test_independent_sets():
    g = hypergraph(3, [(1, 2, 3)])
    got = independent_sets(g)
    assert got[0] == ()
    assert len(got) == 7
    assert (1, 2, 3) not in got
    sizes = [len(s) for s in got]
    assert sizes == sorted(sizes)
    fig1 = independent_sets(FIG1)
    assert fig1 == sorted(fig1, key=lambda s: (len(s), s))
    assert len(fig1) == 1 + 5 + 9 + 5
    assert (1, 4) not in fig1
    assert (2, 3, 5) in fig1


def test_marked_independent_vectors_match_window_filter():
    """Content and order against a filter of the whole window, with and
    without special vertices."""
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        edges = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        marked = hypergraph(n, edges, [v for v in range(1, n + 1) if rng.random() < 0.5])
        cap = tuple(rng.randint(0, 3) for _ in range(n))
        for g in (marked, hypergraph(n, edges)):
            want = []
            for e in itertools.product(*(range(t + 1) for t in cap)):
                supp = tuple(v for v, mult in enumerate(e, start=1) if mult)
                plain_ok = all(mult <= 1 or v in g.special for v, mult in enumerate(e, start=1))
                if plain_ok and not any(set(f) <= set(supp) for f in g.edges):
                    want.append((len(supp), supp, e))
            assert list(marked_independent_vectors(g, cap)) == [e for *_, e in sorted(want)]


def test_enumerations_charge_their_window(monkeypatch):
    """With the budget at 2**4 each caller of the enumerator accepts a window
    of 16 and refuses one of 17 or more."""
    monkeypatch.setenv("CHROMAPLEX_BUDGET", "4")
    independent_sets(hypergraph(4))
    with pytest.raises(BudgetError):
        independent_sets(hypergraph(5))
    loop = hypergraph(1, [], special=(1,))
    marked_independence_series(loop, (15,))
    with pytest.raises(BudgetError):
        marked_independence_series(loop, (16,))
    count_Pk_mult(loop, (15,), 2)
    with pytest.raises(BudgetError):
        count_Pk_mult(loop, (16,), 2)


def test_vectors_must_be_integers():
    """Multiplicities and windows are refused unless every entry is an int:
    a float, a string or a bool is not truncated or read as a number."""
    g = hypergraph(2, [(1, 2)], special=(1,))
    a = independence_system(2, [(), (1,), (2,)])
    for bad in ((2.7, 1), (1.9, True), (True, 1), ("2", 1), (F(2), 1)):
        calls = [
            lambda: marked_chromatic_poly(g, bad),
            lambda: count_Pk_mult(g, bad, 1),
            lambda: coefficient_via_binomial(a, (1,), bad),
            lambda: marked_independence_series(g, bad),
            lambda: system_series(a, (1,), bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="must be integers"):
                call()
    assert marked_chromatic_poly(g, (2, 1)) == coefficient_via_binomial(a, (1,), (2, 1))


def test_independence_polynomial():
    g = hypergraph(2, [(1, 2)])
    p = marked_independence_series(g, (1, 1))
    assert p.terms == {(0, 0): F(1), (1, 0): F(1), (0, 1): F(1)}


def test_marked_series_fig1_coefficients():
    s = marked_independence_series(FIG1, (2, 3, 2, 2, 2))
    assert s.terms[(0, 3, 0, 0, 0)] == F(1)
    assert s.terms[(1, 2, 0, 0, 1)] == F(1)
    assert (1, 0, 0, 1, 0) not in s.terms
    assert s.terms[(0, 1, 1, 1, 0)] == F(1)
    assert (0, 1, 0, 1, 1) not in s.terms
    assert s.terms[(0, 2, 2, 0, 1)] == F(1)
    assert (2, 0, 0, 0, 0) not in s.terms


def test_marked_series_special_geometric():
    g = hypergraph(1, [], special=(1,))
    s = marked_independence_series(g, (4,))
    assert s.terms == {(k,): F(1) for k in range(5)}
    # series built in the package skip the constructor's checks, so the
    # window is checked up front
    for bad in ((4, 4), (-1,)):
        with pytest.raises(ValueError, match="truncation"):
            marked_independence_series(g, bad)


def test_system_validate():
    a = independence_system(3, [(), (1,), (2,), (3,), (1, 2)])
    assert system_validate(a).simple is True
    partial = independence_system(2, [(), (1,)])
    assert system_validate(partial).simple is False
    with pytest.raises(ValueError):
        system_validate(independence_system(2, [(), (1, 2)]))
    with pytest.raises(ValueError):
        system_validate(independence_system(2, [(1,)]))


def test_hypergraph_from_system():
    a = independence_system(3, [(), (1,), (2,), (3,), (1, 2)])
    g = hypergraph_from_system(a)
    assert g.edges == ((1, 3), (2, 3))
    assert g.special == ()
    members = set(a.members)
    assert set(independent_sets(g)) == members
    g2 = hypergraph_from_system(a, special=(1,))
    assert g2.special == (1,)


def test_system_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = hypergraph(n, [])
        edges = []
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(2, n) if n >= 2 else 0
            if size >= 2:
                e = tuple(sorted(rng.sample(range(1, n + 1), size)))
                edges.append(e)
        try:
            g = hypergraph(n, edges)
        except ValueError:
            continue
        members = independent_sets(g)
        a = independence_system(n, members)
        if not is_simple(g):
            continue
        back = hypergraph_from_system(a)
        assert set(independent_sets(back)) == set(members)


def test_system_series_matches_hypergraph_series():
    a = independence_system(3, [(), (1,), (2,), (3,), (1, 2)])
    s = system_series(a, (1,), (2, 1, 1))
    g = hypergraph_from_system(a, (1,))
    assert s == marked_independence_series(g, (2, 1, 1))
    assert s.terms[(2, 0, 0)] == F(1)
    assert s.terms[(1, 1, 0)] == F(1)
    assert (1, 0, 1) not in s.terms
    for bad in ((2, 1), (2, -1, 1)):
        with pytest.raises(ValueError, match="truncation"):
            system_series(a, (1,), bad)


def test_system_series_gate_raises(monkeypatch):
    monkeypatch.setattr(
        hypergraph_module, "marked_independence_series", lambda g, trunc: TruncatedSeries(g.n, trunc)
    )
    a = independence_system(2, [(), (1,), (2,)])
    with pytest.raises(VerificationError):
        system_series(a, (), (1, 1))


def test_system_series_warns_on_uncovered():
    a = independence_system(2, [(), (1,)])
    with pytest.warns(UserWarning):
        system_series(a, (), (1, 1))


def test_json_round_trips():
    obj = hypergraph_to_json(FIG1)
    assert obj == {
        "n": 5,
        "edges": [[1, 4], [1, 2, 3], [2, 4, 5]],
        "special": [2, 3],
    }
    assert hypergraph_from_json(obj) == FIG1
    a = independence_system(2, [(), (1,), (2,)])
    assert system_from_json({"n": 2, "members": [[], [1], [2]]}) == a
    with pytest.raises(ValueError):
        hypergraph_from_json({"n": 2})
