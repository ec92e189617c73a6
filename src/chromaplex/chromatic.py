"""Marked chromatic polynomials of hypergraphs, by several routes.

A marked coloring with q colors assigns every vertex v a multiset f(v) of
colors with |f(v)| = m_v, required to be a plain set unless v is special,
such that no edge has a color common to all of its vertices.  The number of
such colorings is a polynomial in q; this module computes it four ways:

* ``brute_force_count``: direct enumeration at a concrete q (the oracle);
* ``marked_chromatic_poly``: the block-partition formula, summing
  binomial(q, k) against counts of k-tuples of marked-independent blocks;
* ``chromatic_via_blowup``: reduction to ordinary chromatic polynomials of
  blow-up hypergraphs, one per partition tuple;
* closed forms for special shapes (one full edge, chordal graphs, cycles).

All routes agree exactly; the test suite and the closed forms' built-in
gates enforce that.

The block-partition formula and ``coefficient_via_binomial`` (the
coefficient of x^m in the q-th power of an independence-system series) both
give the integer coordinates c_k of the polynomial sum_k c_k * binomial(q, k).
Each route computes them for every m in a window at once, by one walk over
block multisets or by one pass of series powers, and keeps that table per
input in a small bounded cache.  A call at an m outside the window rebuilds
the table at the componentwise max of the two.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .budget import budget_limit, charge
from .errors import VerificationError, int_tuple
from .hypergraph import (
    Hypergraph,
    IndependenceSystem,
    check_multiplicities,
    hypergraph,
    marked_independent_vectors,
    system_series,
)
from .series import (
    DenseWindow,
    QPolynomial,
    binomial_poly,
    qpoly_const,
    qpoly_interpolate,
    shifted_binomial_poly,
)

Vector = tuple[int, ...]
Partition = tuple[int, ...]
PartitionTuple = tuple[Partition, ...]


def support(m: Sequence[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i, v in enumerate(m) if v > 0)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_count(g: Hypergraph, m: Sequence[int], q: int) -> int:
    """Count marked colorings with q colors by direct enumeration."""
    m = check_multiplicities(g.n, m)
    (q,) = int_tuple((q,), "q")
    if q < 0:
        raise ValueError("q must be a nonnegative integer")
    sp = set(g.special)
    per_vertex: list[list[frozenset[int]]] = []
    total = 1
    for v in range(1, g.n + 1):
        mult = m[v - 1]
        if v in sp:
            choices = [
                frozenset(c)
                for c in itertools.combinations_with_replacement(range(q), mult)
            ]
        else:
            choices = [frozenset(c) for c in itertools.combinations(range(q), mult)]
        per_vertex.append(choices)
        total *= len(choices)
    charge(total, f"brute-force coloring enumeration of size {total}")
    edge_ix = [tuple(v - 1 for v in e) for e in g.edges]
    count = 0
    for assignment in itertools.product(*per_vertex):
        ok = True
        for e in edge_ix:
            common = assignment[e[0]]
            for vi in e[1:]:
                common = common & assignment[vi]
                if not common:
                    break
            if common:
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# block-partition formula
# ---------------------------------------------------------------------------


# A coefficient table holds one route's answer for one input at every m in a
# window at once: it maps each m <= the window (its last key) to the binomial
# coordinates (c_0, ..., c_|m|) of the polynomial at m.
Table = dict[Vector, tuple[int, ...]]


def _block_table(g: Hypergraph, window: Vector) -> Table:
    """|P_k(m)| for every m <= window and every k: the number of ordered
    k-tuples of nonempty marked-independent blocks whose sum is m.

    One walk over the multisets of blocks whose sum fits the window, each
    block taken with a repeat count j, in a fixed block order.  Every node
    adds k!/prod(j!) at its own sum; that multinomial is the number of
    distinct orderings, which is what makes repeated identical blocks
    (possible at special vertices) count correctly.  A block fits when every
    guard bit of the window's packed exponents survives one subtraction.
    """
    w = DenseWindow(window)
    packs, guards = w.packs, w.guards
    blocks = []
    for b in marked_independent_vectors(g, window):
        if any(b):
            i = sum(map(operator.mul, b, w.strides))
            blocks.append((packs[i], i))
    keys = list(w.exponents())
    cells = [[0] * (sum(e) + 1) for e in keys]
    cells[0][0] = 1
    factorial = [math.factorial(k) for k in range(sum(window) + 1)]

    def walk(fits: list[tuple[int, int]], pos: int, room: int, k: int, denom: int) -> None:
        # fits: the blocks later in the order that fit room, the packed
        # window minus the packed sum at pos with every guard set
        for bi, (pb, ib) in enumerate(fits):
            p, r, j, d = pos, room, 0, denom
            while (r - pb) & guards == guards:
                p, r, j = p + ib, r - pb, j + 1
                d *= j
                cells[p][k + j] += factorial[k + j] // d
                later = [b for b in fits[bi + 1 :] if (r - b[0]) & guards == guards]
                if later:
                    walk(later, p, r, k + j, d)

    walk(blocks, 0, w.top | guards, 0, 1)
    return {e: tuple(c) for e, c in zip(keys, cells)}


def _series_table(a: IndependenceSystem, special: tuple[int, ...], window: Vector) -> Table:
    """[x^m](I_S - 1)^k for every m <= window and every k <= |m|.

    The powers run once, on one dense window: truncation is componentwise,
    so [x^m] of a power is the same in the window m as in any window above
    it.  The base series has one unit term per marked-independent multiset,
    so its powers keep plain integer coefficients.  Independent of the block
    walk; ``system_series`` gates the base series over the whole window.
    """
    f = system_series(a, special, window)
    w = DenseWindow(window)
    base = w.values(f)
    base[0] = 0
    base_terms = w.nonzero(base)
    powers = [[1] + [0] * (len(base) - 1), base]
    for _ in range(2, sum(window) + 1):
        powers.append(w.mul(powers[-1], base_terms))
    return {e: tuple(p[i] for p in powers[: sum(e) + 1]) for i, e in enumerate(w.exponents())}


def _coordinates(table: Table, m: Vector, build: Callable[[Vector], Table]) -> tuple[int, ...]:
    """The coordinates at m from ``table``.  A table that does not cover m
    is rebuilt in place by ``build`` at the componentwise max of its window
    and m, or at m alone when that max is over budget.  Every call charges
    m's own window, hit or miss."""
    charge(math.prod(v + 1 for v in m), f"coefficient table at m={m}")
    if m not in table:
        window = tuple(map(max, next(reversed(table)), m)) if table else m
        if math.prod(t + 1 for t in window) > budget_limit():
            window = m
        grown = build(window)
        table.clear()
        table.update(grown)
    return table[m]


# one table per input, grown in place as calls ask for more of it, in caches
# that a caller can clear; every caller in the package, its tests and its
# benchmark asks for all the m of one input in a row, so a few tables suffice
@lru_cache(maxsize=8)
def _block_tables(g: Hypergraph) -> Table:
    return {}


@lru_cache(maxsize=8)
def _series_tables(a: IndependenceSystem, special: tuple[int, ...]) -> Table:
    return {}


def _block_cell(g: Hypergraph, m: Vector) -> tuple[int, ...]:
    return _coordinates(_block_tables(g), m, lambda window: _block_table(g, window))


def _ordered_block_counts(g: Hypergraph, m: Vector) -> dict[int, int]:
    """|P_k| for every k where it is nonzero: the number of ordered k-tuples
    of nonempty marked-independent blocks whose sum is m, read from the
    block table of g."""
    return {k: c for k, c in enumerate(_block_cell(g, m)) if c}


def count_Pk_mult(g: Hypergraph, m: Sequence[int], k: int) -> int:
    """Number of ordered k-tuples of marked-independent blocks summing to m."""
    m = check_multiplicities(g.n, m)
    if k < 0:
        raise ValueError("need k >= 0")
    return _ordered_block_counts(g, m).get(k, 0)


def poly_from_binomial_coordinates(c: Sequence[int]) -> QPolynomial:
    """The polynomial sum over k of c_k * binomial(q, k), for integers c_k.

    Over the common denominator d!, d the degree, the sum is
    sum_k c_k * (d!/k!) * (q)_k, and the coefficient of q^j in the falling
    factorial (q)_k is the Stirling number s(k, j) of the first kind.  The
    numerators are found in integers by Horner's rule in the falling-factorial
    basis, (q)_(k+1) = (q)_k * (q - k), and each output coefficient becomes
    one ``Fraction``.
    """
    d = len(c) - 1
    while d >= 0 and not c[d]:
        d -= 1
    if d < 0:
        return QPolynomial()
    acc: list[int] = []
    weight = 1  # d!/k!
    for k in range(d, -1, -1):
        # acc <- acc * (q - k) + c_k * d!/k!
        nxt = [0, *acc]
        for j, v in enumerate(acc):
            nxt[j] -= k * v
        nxt[0] += c[k] * weight
        acc = nxt
        weight *= k
    scale = math.factorial(d)
    return QPolynomial(tuple(Fraction(v, scale) for v in acc))


# bounded: a round of the ``coeffs`` benchmark workload keeps ~2,430
# (hypergraph, m) pairs alive
@lru_cache(maxsize=4096)
def _partition_formula(g: Hypergraph, m: Vector) -> QPolynomial:
    return poly_from_binomial_coordinates(_block_cell(g, m))


def marked_chromatic_poly(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """The marked chromatic polynomial at multiplicities m, via the
    block-partition formula: sum over k of |P_k| * binomial(q, k).

    Edges and special flags outside the support of m do not change the
    count, since no block <= m reaches them; the table of g serves every m.
    """
    return _partition_formula(g, check_multiplicities(g.n, m))


def ordinary_chromatic_poly(g: Hypergraph) -> QPolynomial:
    """The plain chromatic polynomial: all multiplicities 1, nobody special."""
    return marked_chromatic_poly(hypergraph(g.n, g.edges, ()), (1,) * g.n)


def coefficient_via_binomial(
    a: IndependenceSystem, special: Iterable[int], m: Sequence[int]
) -> QPolynomial:
    """Coefficient polynomial of x^m in I_S(A, x)^q.

    Computed as sum over k of binomial(q, k) * [x^m](I_S - 1)^k, read from
    the series table of (A, S).  Independent of the block-partition
    machinery.
    """
    m = check_multiplicities(a.n, m)
    sp = tuple(sorted(set(int_tuple(special, "special elements"))))
    cell = _coordinates(
        _series_tables(a, sp), m, lambda window: _series_table(a, sp, window)
    )
    return poly_from_binomial_coordinates(cell)


# ---------------------------------------------------------------------------
# partition tuples and the blow-up reduction
# ---------------------------------------------------------------------------


def partitions_of(k: int, cap: int | None = None) -> Iterator[Partition]:
    """Integer partitions of k, parts descending, reverse-lex order."""
    if k < 0:
        raise ValueError("need k >= 0")
    if k == 0:
        yield ()
        return
    top = k if cap is None else min(cap, k)
    for first in range(top, 0, -1):
        for rest in partitions_of(k - first, first):
            yield (first,) + rest


def duplication_factor(part: Partition) -> int:
    """prod over part sizes d of (number of parts equal to d) factorial."""
    return math.prod(math.factorial(c) for c in Counter(part).values())


def enumerate_partition_tuples(
    m: Sequence[int], special: Iterable[int]
) -> list[PartitionTuple]:
    """All tuples (lambda_1, ..., lambda_n) with lambda_i a partition of m_i,
    restricted to the all-ones partition at non-special vertices."""
    m = int_tuple(m, "multiplicities")
    sp = set(special)
    choices: list[list[Partition]] = []
    for i, mult in enumerate(m, start=1):
        if mult == 0:
            choices.append([()])
        elif i in sp:
            choices.append(list(partitions_of(mult)))
        else:
            choices.append([(1,) * mult])
    return [tuple(combo) for combo in itertools.product(*choices)]


def blow_up_vertex_labels(lam: PartitionTuple) -> list[tuple[int, int]]:
    """Blow-up vertices as (original vertex, block index) pairs, in order."""
    return [
        (i, r)
        for i, part in enumerate(lam, start=1)
        for r in range(1, len(part) + 1)
    ]


def blow_up(g: Hypergraph, lam: PartitionTuple, m: Sequence[int]) -> Hypergraph:
    """Replace vertex i by a clique of len(lambda_i) plain vertices and lift
    every edge to all one-vertex-per-clique choices.

    Edges touching a vertex with m_i = 0 disappear (no choice exists there).
    """
    m = check_multiplicities(g.n, m)
    if len(lam) != g.n:
        raise ValueError("partition tuple length must equal vertex count")
    sp = set(g.special)
    for i, part in enumerate(lam, start=1):
        if sum(part) != m[i - 1]:
            raise ValueError(f"lambda_{i}={part} is not a partition of {m[i - 1]}")
        if any(p < 1 for p in part) or any(
            part[j] < part[j + 1] for j in range(len(part) - 1)
        ):
            raise ValueError(f"lambda_{i}={part} must have descending positive parts")
        if i not in sp and part != (1,) * m[i - 1]:
            raise ValueError(f"vertex {i} is not special; lambda_{i} must be all ones")
    labels = blow_up_vertex_labels(lam)
    index = {lab: pos + 1 for pos, lab in enumerate(labels)}
    edges: list[tuple[int, ...]] = []
    for i, part in enumerate(lam, start=1):
        for r, s in itertools.combinations(range(1, len(part) + 1), 2):
            edges.append((index[(i, r)], index[(i, s)]))
    for e in g.edges:
        if any(m[i - 1] == 0 for i in e):
            continue
        for combo in itertools.product(*(range(1, len(lam[i - 1]) + 1) for i in e)):
            edges.append(tuple(index[(i, r)] for i, r in zip(e, combo)))
    return hypergraph(len(labels), edges, ())


def chromatic_via_blowup(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """The marked chromatic polynomial as a sum over partition tuples of
    ordinary chromatic polynomials of blow-ups, each divided by its
    duplication factor."""
    m = check_multiplicities(g.n, m)
    total = QPolynomial()
    for lam in enumerate_partition_tuples(m, g.special):
        factor = math.prod(duplication_factor(part) for part in lam)
        total = total + ordinary_chromatic_poly(blow_up(g, lam, m)) / factor
    return total


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def full_edge_closed_form(m: Sequence[int]) -> QPolynomial:
    """Marked chromatic polynomial of the hypergraph whose single edge is the
    whole vertex set, with no special vertices:
    sum over k of (-1)^k binomial(q,k) prod_i binomial(q-k, m_i-k).

    Inclusion-exclusion over the set of colors shared by all vertices.
    """
    m = int_tuple(m, "multiplicities")
    if any(v < 0 for v in m):
        raise ValueError("multiplicities must be >= 0")
    kmax = min(m) if m else 0
    total = QPolynomial()
    for k in range(kmax + 1):
        term = binomial_poly(k) * ((-1) ** k)
        for mi in m:
            term = term * shifted_binomial_poly(k, mi - k)
        total = total + term
    return total


def _require_graph(g: Hypergraph) -> dict[int, set[int]]:
    if any(len(e) != 2 for e in g.edges):
        raise ValueError("this operation needs a 2-uniform hypergraph (a graph)")
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def find_peo(g: Hypergraph) -> tuple[int, ...] | None:
    """A perfect elimination ordering via maximum cardinality search, or None
    if the graph is not chordal.

    The ordering v_1, ..., v_n satisfies: the earlier neighbors of each v_k
    form a clique.  Ties in the search break toward the lowest vertex index.
    """
    adj = _require_graph(g)
    weight = {v: 0 for v in adj}
    remaining = set(adj)
    order: list[int] = []
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u))
        remaining.discard(v)
        order.append(v)
        for u in adj[v]:
            if u in remaining:
                weight[u] += 1
    placed: set[int] = set()
    for v in order:
        earlier = [u for u in adj[v] if u in placed]
        for a, b in itertools.combinations(earlier, 2):
            if b not in adj[a]:
                return None
        placed.add(v)
    return tuple(order)


def chordal_multichromatic(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """Closed form for chordal graphs without special vertices: color along a
    perfect elimination ordering; each vertex sees its earlier neighbors'
    colors as one forbidden block because they form a clique."""
    m = check_multiplicities(g.n, m)
    if g.special:
        raise ValueError("chordal_multichromatic requires no special vertices")
    # with no special vertex every partition is all ones, so the marked form
    # has one term: l_v = m_v, b_v sums m over earlier neighbors, scalar 1;
    # it refuses a graph that is not chordal
    return chordal_marked_chromatic(g, m)


def chordal_marked_chromatic(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """Closed form for chordal graphs with special vertices: sum over
    partition tuples; vertex j contributes binomial(q - b_j, l_j) ordered
    block choices, b_j counting earlier neighbors' blocks."""
    m = check_multiplicities(g.n, m)
    order = find_peo(g)
    if order is None:
        raise ValueError("graph is not chordal")
    adj = _require_graph(g)
    pos = {v: i for i, v in enumerate(order)}
    supp = sorted(support(m), key=lambda v: pos[v])
    total = QPolynomial()
    for lam in enumerate_partition_tuples(m, g.special):
        lengths = {v: len(lam[v - 1]) for v in range(1, g.n + 1)}
        term = qpoly_const(1)
        for r, v in enumerate(supp):
            b = sum(lengths[u] for u in supp[:r] if u in adj[v])
            ell = lengths[v]
            scalar = Fraction(math.factorial(ell), duplication_factor(lam[v - 1]))
            term = term * shifted_binomial_poly(b, ell) * scalar
        total = total + term
    return total


def cycle_graph(n: int) -> Hypergraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return hypergraph(n, edges, ())


def cycle_multichromatic(m: Sequence[int]) -> QPolynomial:
    """Closed form for the multichromatic polynomial of the cycle C_n,
    n = len(m) >= 3, all multiplicities >= 1 and no special vertices:

        (1 / prod_i m_i!) * prod_r (q)_(m_r + m_{r+1}) *
            sum_k (-1)^(k n) (C(q,k) - C(q,k-1)) prod_i (m_i)_k / (q)_(m_i+k)

    with (a)_j the falling factorial, indices cyclic.  This is the spectral
    decomposition of the disjointness transfer operator on color sets: the
    k-th summand collects the eigenspace of dimension C(q,k) - C(q,k-1), and
    regrouping the factor for the edge (r, r+1) against vertex r's
    denominator leaves m_{r+1}! * C(q-k-m_r, m_{r+1}-k) per step, whence the
    leading division.  Only k <= min(m) contribute, since (m_i)_k vanishes
    beyond.  Evaluated exactly at |m|+1 integer points large enough that no
    denominator vanishes, then interpolated.

    The result is gated against the block-partition formula, and a mismatch
    raises VerificationError.
    """
    m = int_tuple(m, "multiplicities")
    n = len(m)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if any(v < 1 for v in m):
        raise ValueError("cycle closed form needs all multiplicities >= 1")
    degree = sum(m)
    scale = math.prod(math.factorial(v) for v in m)
    q0 = max(m) + min(m) + 1
    points: list[tuple[int, Fraction]] = []
    for q in range(q0, q0 + degree + 1):
        outer = 1
        for r in range(n):
            outer *= math.perm(q, m[r] + m[(r + 1) % n])
        acc = Fraction(0)
        for k in range(min(m) + 1):
            vk = math.comb(q, k) - (math.comb(q, k - 1) if k >= 1 else 0)
            prod = Fraction(1)
            for mi in m:
                prod *= Fraction(math.perm(mi, k), math.perm(q, mi + k))
            acc += (-1) ** (k * n) * vk * prod
        points.append((q, Fraction(outer) * acc / scale))
    candidate = qpoly_interpolate(points)
    if candidate != marked_chromatic_poly(cycle_graph(n), m):
        raise VerificationError(f"cycle closed form disagrees with the partition formula at m={m}")
    return candidate
