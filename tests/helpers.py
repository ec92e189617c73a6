"""Shared test utilities: independent oracles and seeded instance generators.

The oracles here deliberately avoid the code paths they are used to check:
the deletion-contraction recursion knows nothing about partitions or blocks,
and the enumeration generators build instances from raw randomness.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from chromaplex.arrangement import Arrangement, arrangement
from chromaplex.chromatic import support
from chromaplex.hypergraph import Hypergraph, hypergraph, marked_independent_vectors
from chromaplex.series import Q, QPolynomial, TruncatedSeries, series_one


def chromatic_delcon(n: int, edges) -> QPolynomial:
    """Ordinary chromatic polynomial of a simple 2-uniform graph by
    deletion-contraction. Independent of every partition-based path."""

    def rec(verts: frozenset, es: frozenset) -> QPolynomial:
        if not es:
            p = QPolynomial((Fraction(1),))
            for _ in verts:
                p = p * Q
            return p
        e = min(es, key=sorted)
        u, v = sorted(e)
        deleted = rec(verts, es - {e})
        merged = set()
        for f in es - {e}:
            g = frozenset(u if w == v else w for w in f)
            if len(g) == 2:
                merged.add(g)
        contracted = rec(verts - {v}, frozenset(merged))
        return deleted - contracted

    return rec(
        frozenset(range(1, n + 1)),
        frozenset(frozenset(e) for e in edges),
    )


def count_Pk_ordered_debug(g: Hypergraph, m, k: int) -> int:
    """Debug route for count_Pk_mult: direct recursion over ordered k-tuples
    of nonzero marked-independent blocks summing to m."""
    m = tuple(m)
    blocks = [b for b in marked_independent_vectors(g, m) if any(b)]

    @lru_cache(maxsize=None)
    def rec(remaining: tuple, j: int) -> int:
        if j == 0:
            return 0 if any(remaining) else 1
        total = 0
        for b in blocks:
            if all(bv <= rv for bv, rv in zip(b, remaining)):
                total += rec(tuple(rv - bv for rv, bv in zip(remaining, b)), j - 1)
        return total

    return rec(m, k)


def series_mul_sparse(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Oracle for the dense series kernel: the product term by term over the
    sparse ``Fraction`` dicts, dropping exponents outside the window."""
    assert (a.n, a.trunc) == (b.n, b.trunc)
    terms: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(v1 + v2 for v1, v2 in zip(e1, e2))
            if any(v > t for v, t in zip(e, a.trunc)):
                continue
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return TruncatedSeries(a.n, a.trunc, terms)


def series_pow_sparse(a: TruncatedSeries, q: int) -> TruncatedSeries:
    """a**q for q >= 0 by q products of the sparse oracle."""
    acc = series_one(a.n, a.trunc)
    for _ in range(q):
        acc = series_mul_sparse(acc, a)
    return acc


def random_hypergraph(rng: random.Random, n: int, max_edges: int) -> Hypergraph:
    """Random simple hypergraph: an antichain of random subsets of size >= 2."""
    chosen: list[frozenset] = []
    if n >= 2:
        for _ in range(max_edges):
            size = rng.randint(2, n)
            e = frozenset(rng.sample(range(1, n + 1), size))
            if all(not (e <= f or f <= e) for f in chosen):
                chosen.append(e)
    return hypergraph(n, [tuple(sorted(e)) for e in chosen])


def random_chordal_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Chordal graph by clique gluing: each new vertex attaches to a random
    subset of an existing clique, so insertion order is an elimination order."""
    cliques: list[tuple[int, ...]] = [(1,)]
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        base = rng.choice(cliques)
        k = rng.randint(0, len(base))
        glue = tuple(sorted(rng.sample(base, k)))
        edges.extend((u, v) for u in glue)
        cliques.append(glue + (v,))
    return edges


def random_hyperplane_arrangement(rng: random.Random, n: int) -> Arrangement:
    """Random hyperplanes with small integer coefficients; three hyperplanes
    in dimension <= 2, one or two in dimension 3 to keep clans tractable."""
    count = 3 if n <= 2 else rng.randint(1, 2)
    members = []
    while len(members) < count:
        row = [rng.randint(-2, 2) for _ in range(n)]
        if any(row):
            members.append([row])
    return arrangement(n, members)


def rref_oracle(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Oracle for ``rref``: Gauss-Jordan elimination column by column over
    the integers, each row scaled to a primitive row with a positive leading
    entry.  No input checks."""

    def primitive(row: list[int]) -> list[int]:
        g = math.gcd(*row)
        if g == 0:
            return row
        lead = next(v for v in row if v)
        return [v // (g if lead > 0 else -g) for v in row]

    mat = [list(r) for r in rows if any(r)]
    rank = 0
    for c in range(width):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        a = mat[rank][c]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                b = mat[i][c]
                mat[i] = primitive([x * a - y * b for x, y in zip(mat[i], mat[rank])])
        rank += 1
    return tuple(tuple(primitive(mat[i])) for i in range(rank))


def poset_oracle(arr: Arrangement) -> list[tuple]:
    """Oracle for the intersection poset from its definitions, with no member
    masks: the flats are the distinct canonical forms of the rows of every
    subset of members, Y lies below X when Y's forms lie in X's row space,
    and mu is 1 at the whole space and minus the sum of mu strictly below
    elsewhere.  Returns (forms, dim, mu) by codimension, then forms."""
    n = arr.n
    flats = {
        rref_oracle([row for s in subset for row in s.forms], n)
        for k in range(len(arr.subspaces) + 1)
        for subset in itertools.combinations(arr.subspaces, k)
    }
    order = sorted(flats, key=lambda f: (len(f), f))
    mobius: dict = {}
    for x in order:
        below = [y for y in order if y != x and rref_oracle(x + y, n) == x]
        mobius[x] = -sum(mobius[y] for y in below) if x else 1
    return [(x, n - len(x), mobius[x]) for x in order]


def random_subspace_arrangement(rng: random.Random, n: int, count: int) -> Arrangement:
    """``count`` random members in R^n of codimension 1 to min(3, n), forms
    in {-1, 0, 1}^n; about a third of them are cut out of an earlier member
    by one more form, so that members nest (a line inside a plane)."""
    members: list[list[list[int]]] = []
    while len(members) < count:
        row = [rng.randint(-1, 1) for _ in range(n)]
        if members and rng.random() < 0.35:
            forms = rng.choice(members) + [row]
        else:
            extra = rng.randint(0, 2)
            forms = [row] + [[rng.randint(-1, 1) for _ in range(n)] for _ in range(extra)]
        codim = len(rref_oracle(forms, n))
        if 1 <= codim <= min(3, n):
            members.append(forms)
    return arrangement(n, members)


def downward_closed_families(n: int):
    """All downward-closed nonempty set families on [n] (each contains the
    empty set), emitted as sorted member tuples. One family per antichain of
    maximal members."""
    subsets = []
    for size in range(0, n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    sets = [frozenset(s) for s in subsets]

    def closure(chosen: list[int]) -> tuple[tuple[int, ...], ...]:
        members = {s for i in chosen for s in sets if s <= sets[i]}
        return tuple(sorted((tuple(sorted(s)) for s in members), key=lambda t: (len(t), t)))

    def rec(idx: int, chosen: list[int]):
        if idx == len(subsets):
            if chosen:
                yield closure(chosen)
            return
        yield from rec(idx + 1, chosen)
        s = sets[idx]
        if all(not (sets[i] <= s or s <= sets[i]) for i in chosen):
            chosen.append(idx)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def naive_complement_count(arr: Arrangement, p: int) -> int:
    """Oracle for the F_p point count: every point of F_p^n in turn, kept
    when no member's forms all vanish at it.  No prime or budget checks."""
    members = [[tuple(v % p for v in row) for row in s.forms] for s in arr.subspaces]
    count = 0
    for x in itertools.product(range(p), repeat=arr.n):
        if not any(
            all(sum(c * v for c, v in zip(row, x)) % p == 0 for row in forms)
            for forms in members
        ):
            count += 1
    return count


def naive_arrangement_count(arr: Arrangement, special, m, p: int) -> int:
    """Oracle for the F_p coloring count: a depth-first walk over every tuple
    of color collections, one per vertex of supp(m) (a multiset of size m_v
    at a special vertex, counted by its underlying set and weighted by the
    multisets on it; a set of size m_v elsewhere).  Each member with support
    inside supp(m) carries the set of its partial form values and kills the
    tuple at its last vertex when the zero vector is among them.  Nothing is
    memoized and no input is checked."""
    m = tuple(m)
    sp = set(special)
    supp = support(m)
    level_of = {v: i for i, v in enumerate(supp)}
    choices = []
    for v in supp:
        mult = m[v - 1]
        if v in sp:
            sizes = [(k, math.comb(mult - 1, k - 1)) for k in range(1, mult + 1)]
        else:
            sizes = [(mult, 1)]
        choices.append([(u, w) for k, w in sizes for u in itertools.combinations(range(p), k)])
    plans = []
    for s in arr.subspaces:
        if set(s.support) <= set(supp):
            cols = {level_of[v]: tuple(row[v - 1] for row in s.forms) for v in s.support}
            plans.append((cols, max(cols), s.codim))

    def descend(level: int, states: tuple) -> int:
        if level == len(supp):
            return 1
        total = 0
        for u, w in choices[level]:
            nxt = []
            for (cols, last, codim), st in zip(plans, states):
                if level in cols:
                    coef = cols[level]
                    st = {tuple((a + c * x) % p for a, c in zip(s0, coef)) for s0 in st for x in u}
                    if level == last and (0,) * codim in st:
                        break
                nxt.append(st)
            else:
                total += w * descend(level + 1, tuple(nxt))
        return total

    return descend(0, tuple({(0,) * codim} for _, _, codim in plans))
