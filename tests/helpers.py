"""Shared test utilities: independent oracles and seeded instance generators.

The oracles here deliberately avoid the code paths they are used to check:
the deletion-contraction recursion knows nothing about partitions or blocks,
and the enumeration generators build instances from raw randomness.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from chromaplex.arrangement import Arrangement, arrangement
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
