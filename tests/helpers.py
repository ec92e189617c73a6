"""Shared test utilities: independent oracles and seeded instance generators.

The oracles here deliberately avoid the code paths they are used to check:
the deletion-contraction recursion knows nothing about partitions or blocks,
and the enumeration generators build instances from raw randomness.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from chromaplex.arrangement import (
    Arrangement,
    PosetElement,
    _insert,
    _reduce,
    _walk,
    arrangement,
)
from chromaplex.chromatic import find_peo, support
from chromaplex.hypergraph import Hypergraph, hypergraph
from chromaplex.series import Q, QPolynomial, TruncatedSeries, series_inverse


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


def marked_independent_vectors_oracle(g: Hypergraph, cap):
    """Oracle for ``hypergraph.marked_independent_vectors``: each candidate
    support among the vertices of cap >= 1, by size then lexicographically,
    tested as a frozenset against frozenset edges, and lifted to every
    multiplicity vector on it in lex order."""
    edge_sets = [frozenset(e) for e in g.edges]
    allowed = [v for v in range(1, g.n + 1) if cap[v - 1] >= 1]
    for size in range(len(allowed) + 1):
        for supp in itertools.combinations(allowed, size):
            if any(e <= frozenset(supp) for e in edge_sets):
                continue
            ranges = [range(1, cap[v - 1] + 1) if v in g.special else (1,) for v in supp]
            for mults in itertools.product(*ranges):
                e = [0] * g.n
                for v, mult in zip(supp, mults):
                    e[v - 1] = mult
                yield tuple(e)


def count_Pk_ordered_debug(g: Hypergraph, m, k: int) -> int:
    """Debug route for count_Pk_mult: direct recursion over ordered k-tuples
    of nonzero marked-independent blocks summing to m, shared across the m
    of one hypergraph: the blocks that fit the remainder are the nonzero
    marked-independent vectors below it."""
    return _ordered_tuples(g, tuple(m), k)


@lru_cache(maxsize=1 << 18)
def _ordered_tuples(g: Hypergraph, remaining: tuple, j: int) -> int:
    if j == 0:
        return 0 if any(remaining) else 1
    return sum(
        _ordered_tuples(g, tuple(rv - bv for rv, bv in zip(remaining, b)), j - 1)
        for b in _blocks_below(g, remaining)
    )


@lru_cache(maxsize=1 << 14)
def _blocks_below(g: Hypergraph, cap: tuple) -> list:
    return [b for b in marked_independent_vectors_oracle(g, cap) if any(b)]


def partitions_of(k: int, cap: int | None = None):
    """Integer partitions of k with parts at most cap, parts descending, in
    reverse-lex order."""
    if k == 0:
        yield ()
        return
    top = k if cap is None else min(cap, k)
    for first in range(top, 0, -1):
        for rest in partitions_of(k - first, first):
            yield (first,) + rest


def duplication_factor(part) -> int:
    """prod over part sizes d of (number of parts equal to d) factorial."""
    return math.prod(math.factorial(c) for c in Counter(part).values())


def enumerate_partition_tuples(m, special) -> list:
    """All tuples (lambda_1, ..., lambda_n) with lambda_i a partition of m_i,
    restricted to the all-ones partition at non-special vertices."""
    choices = [
        list(partitions_of(v)) if i in special else [(1,) * v] for i, v in enumerate(m, start=1)
    ]
    return [tuple(combo) for combo in itertools.product(*choices)]


def partition_tuple_sum(m, special, term) -> QPolynomial:
    """Oracle for ``chromatic.copy_count_sum``, the paper's form of the sum:
    term(lambda) / dup(lambda) over the partition tuples lambda of m, dup
    the product of the duplication factors of its parts.  A term that reads
    lambda only through its copy counts gets them as ``map(len, lambda)``."""
    total = QPolynomial()
    for lam in enumerate_partition_tuples(m, special):
        total = total + term(lam) / math.prod(duplication_factor(part) for part in lam)
    return total


def chordal_partition_oracle(g: Hypergraph, m) -> QPolynomial:
    """Oracle for ``chromatic.chordal_marked_chromatic`` in the paper's form:
    along a perfect elimination ordering, vertex v with lambda_v of l_v parts
    contributes l_v! * binomial(q - b_v, l_v) ordered block choices, b_v the
    parts of its earlier neighbors, summed over partition tuples."""
    order = find_peo(g)
    supp = sorted(support(m), key=order.index)
    earlier = {
        v: [u for u in supp[:r] if tuple(sorted((u, v))) in g.edges] for r, v in enumerate(supp)
    }

    def term(lam) -> QPolynomial:
        poly = QPolynomial((1,))
        for v in supp:
            b, ell = sum(len(lam[u - 1]) for u in earlier[v]), len(lam[v - 1])
            for j in range(ell):
                poly = poly * (Q - (b + j))
        return poly

    return partition_tuple_sum(m, g.special, term)


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


def series_one(n: int, trunc) -> TruncatedSeries:
    """The series 1 on n variables, truncated at trunc."""
    return TruncatedSeries(n, tuple(trunc), {(0,) * n: 1})


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


def simple_hypergraphs_oracle(n: int):
    """Oracle for the scan's enumeration: the edge tuples of every simple
    hypergraph on {1..n}, by recursion over the candidate edges (size >= 2,
    by size then lexicographically) on frozensets, each candidate left out
    before it is taken in."""
    candidates = [
        e for size in range(2, n + 1) for e in itertools.combinations(range(1, n + 1), size)
    ]
    sets = [frozenset(e) for e in candidates]

    def rec(idx: int, chosen: list[int]):
        if idx == len(candidates):
            yield tuple(candidates[i] for i in chosen)
            return
        yield from rec(idx + 1, chosen)
        s = sets[idx]
        if all(not (sets[i] <= s or s <= sets[i]) for i in chosen):
            chosen.append(idx)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def relabelings_oracle(g: Hypergraph):
    """The edge family of g under every vertex permutation, each sorted by
    size then lexicographically (with repeats where g has automorphisms)."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        yield tuple(
            sorted(
                (tuple(sorted(perm[v - 1] for v in e)) for e in g.edges),
                key=lambda e: (len(e), e),
            )
        )


def canonical_form_oracle(g: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Oracle for ``scan.canonical_form``: the least relabeling of g."""
    return (g.n, min(relabelings_oracle(g)))


def inverse_nonneg_oracle(g: Hypergraph, window):
    """Oracle for ``scan.inverse_nonneg_check``: the first negative
    coefficient of 1/I(G, -x) in lex order, from the sparse terms of
    ``series_inverse`` of the series built from
    ``marked_independent_vectors_oracle``, as (nonneg, neg_at, coeff)."""
    window = tuple(window)
    terms = dict.fromkeys(marked_independent_vectors_oracle(g, window), 1)
    inv = series_inverse(TruncatedSeries(g.n, window, terms)).terms
    for e in sorted(inv):
        c = -inv[e] if sum(e) % 2 else inv[e]
        if c < 0:
            return False, e, c
    return True, None, None


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


def flats_oracle(arr: Arrangement, p: int = 0) -> dict:
    """Oracle for the flats of ``arrangement._walk``: each flat is met with
    every member outside its mask, and each new flat's mask is built by
    testing every member; the canonical basis of each flat -> its mask."""
    hyps = [s.forms for s in arr.subspaces]

    def mask_of(basis) -> int:
        mask = 0
        for i, h in enumerate(hyps):
            if not any(any(_reduce(row, basis, p)) for row in h):
                mask |= 1 << i
        return mask

    masks: dict = {(): 0}
    frontier: list = [()]
    while frontier:
        fresh = []
        for basis in frontier:
            mask = masks[basis]
            for i, h in enumerate(hyps):
                if not (mask >> i) & 1:
                    inter = basis
                    for row in h:
                        inter = _insert(inter, row, p)
                    if inter not in masks:
                        masks[inter] = mask_of(inter)
                        fresh.append(inter)
        frontier = fresh
    return masks


def mobius_oracle(arr: Arrangement) -> tuple[PosetElement, ...]:
    """Oracle for ``arrangement._poset_data``: the flats of ``_walk`` in
    (rank, mask) order, each with mu minus the sum of mu over every earlier
    flat whose mask lies inside its own, tested pair by pair."""
    elements: list[PosetElement] = []
    for rank, mask in sorted((len(basis), mask) for basis, mask in _walk(arr)[0].items()):
        mu = -sum(v for _, v, other in elements if other & mask == other) if rank else 1
        elements.append(PosetElement(arr.n - rank, mu, mask))
    return tuple(elements)


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


class FractionPoly:
    """Oracle for ``QPolynomial``: the polynomial as a tuple of ``Fraction``
    coefficients, ascending, trailing zeros stripped, with the schoolbook
    arithmetic that ``QPolynomial`` carried before it kept integer
    numerators over one denominator."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == tuple(other.coeffs)

    def _coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly(self._coeff(i) + other._coeff(i) for i in range(size))

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            return FractionPoly(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def __truediv__(self, c):
        return FractionPoly(v / c for v in self.coeffs)

    def eval(self, v):
        return sum((c * Fraction(v) ** i for i, c in enumerate(self.coeffs)), Fraction(0))

    @staticmethod
    def from_binomial_coordinates(c):
        """sum_k c_k * binomial(q, k), each binomial(q, k) built as the
        product of (q - j) / (j + 1) over j < k."""
        total = FractionPoly()
        for k, ck in enumerate(c):
            term = FractionPoly((ck,))
            for j in range(k):
                term = term * FractionPoly((-j, 1)) / (j + 1)
            total = total + term
        return total
