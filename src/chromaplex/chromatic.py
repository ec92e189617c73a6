"""Marked chromatic polynomials of hypergraphs, by several routes.

A marked coloring with q colors assigns every vertex v a multiset f(v) of
colors with |f(v)| = m_v, required to be a plain set unless v is special,
such that no edge has a color common to all of its vertices.  The number of
such colorings is a polynomial in q; this module computes it four ways:

* ``brute_force_count``: direct enumeration at a concrete q (the oracle);
* ``marked_chromatic_poly``: the block-partition formula, summing
  binomial(q, k) against counts of k-tuples of marked-independent blocks;
* ``chromatic_via_blowup``: reduction to ordinary chromatic polynomials of
  blow-up hypergraphs, one per copy-count vector (``copy_count_sum``);
* closed forms for special shapes (one full edge, chordal graphs, cycles).

All routes agree exactly; the test suite and the closed forms' built-in
gates enforce that.

The block-partition formula and ``coefficient_via_binomial`` (the
coefficient of x^m in the q-th power of an independence-system series) both
give the integer coordinates c_k of the polynomial sum_k c_k * binomial(q, k).
Each route computes them for every m in a window at once, by one pass per
block over the window's cells or by one pass of series powers.  One store for
both routes, a small bounded cache, keeps each route's table per input.  A
call at an m outside the window rebuilds the table at a cube (M, ..., M)
where the budget allows (see ``_coordinates``).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .budget import budget_limit, charge
from .errors import VerificationError, int_tuple, natural, vector, vertex_set
from .hypergraph import (
    Hypergraph,
    IndependenceSystem,
    hypergraph,
    marked_independent_vectors,
    system_series,
)
from .series import (
    QPolynomial,
    binomial_poly,
    dense_window,
    poly_from_binomial_coordinates,
    qpoly_const,
    shifted_binomial_poly,
)

Vector = tuple[int, ...]


def support(m: Sequence[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i, v in enumerate(m) if v > 0)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_count(g: Hypergraph, m: Sequence[int], q: int) -> int:
    """Count marked colorings with q colors by direct enumeration."""
    m = vector(m, g.n, "multiplicities")
    q = natural(q, "q")
    sp = set(g.special)
    # C(q, m_v) color sets at a plain vertex, C(q + m_v - 1, m_v) multisets at
    # a special one (the max keeps the one empty multiset at q = m_v = 0)
    total = math.prod(
        math.comb(max(q + k - 1, 0), k) if v in sp else math.comb(q, k) for v, k in enumerate(m, 1)
    )
    charge(total, f"brute-force coloring enumeration of size {total}")
    per_vertex = []
    for v, k in enumerate(m, 1):
        pick = itertools.combinations_with_replacement if v in sp else itertools.combinations
        per_vertex.append([frozenset(c) for c in pick(range(q), k)])
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
# coordinates (c_0, ..., c_|m|) of the polynomial at m, its cell.
Cell = tuple[int, ...]
Table = dict[Vector, Cell]


def _block_table(g: Hypergraph, window: Vector) -> Table:
    """|P_k(m)| for every m <= window and every k: the number of ordered
    k-tuples of nonempty marked-independent blocks whose sum is m.

    One pass per block b over the cells T[m] in decreasing dense index adds
    T[m][k] * C(k + j, j) to T[m + j*b][k + j] for each j >= 1 with m + j*b
    in the window (a guard test on the packed exponents).  The factors
    C(k + j, j) of a multiset's passes multiply to k!/prod(j!), its number
    of orderings: the exponential formula, prod over b of exp(y * x^b).  In
    that order a cell is read before any cell below it writes to it, so it
    holds only multisets without b.  A cell keeps only its nonzero k, and
    the largest supports pass first, while most cells are still empty.
    """
    w = dense_window(window)
    packs, guards, top = w.packs, w.guards, w.top
    # choose[j][k] = C(k + j, j); a block repeats at most max(window) times
    ks = range(sum(window) + 1)
    choose = [[math.comb(k + j, j) for k in ks] for j in range(max(window, default=0) + 1)]
    cells: list[dict[int, int]] = [{} for _ in packs]
    cells[0][0] = 1
    for b in reversed(list(marked_independent_vectors(g, window))):
        if any(b):
            ib = sum(map(operator.mul, b, w.strides))
            pb = packs[ib]
            for i in range(len(cells) - 1 - ib, -1, -1):
                if src := cells[i]:
                    room = ((top - packs[i]) | guards) - pb
                    t, j = i + ib, 1
                    while room & guards == guards:
                        cell, factor = cells[t], choose[j]
                        for k, c in src.items():
                            cell[k + j] = cell.get(k + j, 0) + c * factor[k]
                        room, t, j = room - pb, t + ib, j + 1
    return {
        e: tuple([c.get(k, 0) for k in range(sum(e) + 1)]) for e, c in zip(w.exponents(), cells)
    }


def _series_table(a: IndependenceSystem, special: tuple[int, ...], window: Vector) -> Table:
    """[x^m](I_S - 1)^k for every m <= window and every k <= |m|.

    The powers run once, on one dense window: truncation is componentwise,
    so [x^m] of a power is the same in the window m as in any window above
    it.  The base series has one unit term per marked-independent multiset,
    so its powers keep plain integer coefficients.  Independent of the block
    table; ``system_series`` gates the base series over the whole window.
    """
    f = system_series(a, special, window)
    w = dense_window(window)
    base = w.values(f)
    base[0] = 0
    powers = [[1] + [0] * (len(base) - 1), base]
    for _ in range(2, sum(window) + 1):
        powers.append(w.mul(powers[-1], base))
    return {e: tuple(p[i] for p in powers[: sum(e) + 1]) for i, e in enumerate(w.exponents())}


# one table per build function and input, grown in place as calls ask for more;
# every caller in the package, its tests and its benchmark asks for all the m
# of one input in a row, so a few tables suffice
@lru_cache(maxsize=16)
def _tables(build: Callable[..., Table], *inputs: object) -> Table:
    return {}


def _coordinates(build: Callable[..., Table], m: Vector, *inputs: object) -> Cell:
    """The coordinates at m from the table of ``build`` and its inputs in
    ``_tables``, one store for both routes.  A cell already there is returned
    uncharged, as the budget is fixed per process.  Else m's own cells are
    charged, naming m, before any work (``system_series`` lifts members before
    its own charge), and ``build(*inputs, window)`` refills the table at the
    cube (M, ..., M), M the largest exponent of its window and m, if that fits
    the budget and has at most 2^n times the cells of the join (the
    componentwise max of the two); else at the join if that fits; else at m."""
    table = _tables(build, *inputs)
    if m not in table:
        charge(math.prod(v + 1 for v in m), f"coefficient table at m={m}")
        window = m
        if table:
            join = tuple(map(max, next(reversed(table)), m))
            cells = math.prod(t + 1 for t in join)
            if (max(join) + 1) ** len(m) <= min(budget_limit(), cells << len(m)):
                window = (max(join),) * len(m)
            elif cells <= budget_limit():
                window = join
        table.clear()
        table.update(build(*inputs, window))
    return table[m]


def count_Pk_mult(g: Hypergraph, m: Sequence[int], k: int) -> int:
    """Number of ordered k-tuples of nonempty marked-independent blocks
    summing to m, read from the block table of g."""
    m = vector(m, g.n, "multiplicities")
    k = natural(k, "k")
    cell = _coordinates(_block_table, m, g)
    return cell[k] if k < len(cell) else 0


# bounded: a round of the ``coeffs`` benchmark workload keeps ~2,430
# (hypergraph, m) pairs alive
@lru_cache(maxsize=4096)
def _partition_formula(g: Hypergraph, m: Vector) -> QPolynomial:
    return poly_from_binomial_coordinates(_coordinates(_block_table, m, g))


def marked_chromatic_poly(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """The marked chromatic polynomial at multiplicities m, via the
    block-partition formula: sum over k of |P_k| * binomial(q, k).

    Edges and special flags outside the support of m do not change the
    count, since no block <= m reaches them; the table of g serves every m.
    """
    m = vector(m, g.n, "multiplicities")
    return _partition_formula(g, m)


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
    m = vector(m, a.n, "multiplicities")
    sp = vertex_set(special, a.n, "special elements")
    return poly_from_binomial_coordinates(_coordinates(_series_table, m, a, sp))


# ---------------------------------------------------------------------------
# copy counts and the blow-up reduction
# ---------------------------------------------------------------------------


def copy_count_sum(
    m: Sequence[int], special: Iterable[int], term: Callable[[Vector], QPolynomial]
) -> QPolynomial:
    """The paper's sum over the partition tuples lambda of m of
    term(lambda) / dup(lambda), lambda_v all ones off the special set, for a
    term that reads lambda only through its copy counts k_v = len(lambda_v).

    So k_v = m_v off the special set and 1 <= k_v <= m_v on it, and k_v = 0
    alone where m_v = 0.  The partitions of m_v into k_v parts carry
    sum 1/dup = C(m_v - 1, k_v - 1)/k_v!: each has k_v!/dup orderings, and
    those are the C(m_v - 1, k_v - 1) compositions of m_v into k_v parts."""
    m = vector(m, len(m), "multiplicities")
    sp = vertex_set(special, len(m), "special vertices")
    ranges = [range(min(v, 1) if i in sp else v, v + 1) for i, v in enumerate(m, start=1)]
    total = QPolynomial()
    for k in itertools.product(*ranges):
        ways = math.prod(math.comb(v - 1, c - 1) for v, c in zip(m, k) if v)
        total = total + term(k) / Fraction(math.prod(map(math.factorial, k)), ways)
    return total


def copy_columns(counts: Sequence[int]) -> list[range]:
    """Positions of the copies of each vertex when vertex i gets counts[i - 1]
    copies, numbered from 0 in vertex order; index i - 1 holds vertex i's."""
    starts = list(itertools.accumulate(counts, initial=0))
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def blow_up(g: Hypergraph, counts: Sequence[int]) -> Hypergraph:
    """Replace vertex i by a clique of counts[i - 1] plain vertices and lift
    every edge to all one-vertex-per-clique choices.

    Edges touching a vertex without copies disappear (no choice exists there).
    """
    counts = vector(counts, g.n, "copy counts")
    cols = copy_columns(counts)
    edges = [pair for col in cols for pair in itertools.combinations(col, 2)]
    for e in g.edges:
        edges.extend(itertools.product(*(cols[i - 1] for i in e)))
    # copy positions count from 0, vertices from 1
    return hypergraph(sum(counts), [[c + 1 for c in e] for e in edges], ())


def chromatic_via_blowup(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """The marked chromatic polynomial as a sum over copy counts of ordinary
    chromatic polynomials of blow-ups, each weighted as in
    ``copy_count_sum``."""
    m = vector(m, g.n, "multiplicities")
    return copy_count_sum(m, g.special, lambda k: ordinary_chromatic_poly(blow_up(g, k)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def full_edge_closed_form(m: Sequence[int]) -> QPolynomial:
    """Marked chromatic polynomial of the hypergraph whose single edge is the
    whole vertex set, with no special vertices:
    sum over k of (-1)^k binomial(q,k) prod_i binomial(q-k, m_i-k).

    Inclusion-exclusion over the set of colors shared by all vertices.
    """
    m = tuple(m)
    m = vector(m, len(m), "multiplicities")
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
    for i, v in enumerate(order):
        earlier = adj[v].intersection(order[:i])
        if any(b not in adj[a] for a, b in itertools.combinations(earlier, 2)):
            return None
    return tuple(order)


def chordal_marked_chromatic(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """Closed form for chordal graphs with special vertices: sum over copy
    counts (``copy_count_sum``); vertex j with l_j copies contributes
    l_j! * binomial(q - b_j, l_j) ordered block choices, b_j counting earlier
    neighbors' copies."""
    m = vector(m, g.n, "multiplicities")
    order = find_peo(g)
    if order is None:
        raise ValueError("graph is not chordal")
    adj = _require_graph(g)
    pos = {v: i for i, v in enumerate(order)}
    supp = sorted(support(m), key=lambda v: pos[v])

    def term(k: Vector) -> QPolynomial:
        poly = qpoly_const(1)
        for r, v in enumerate(supp):
            b = sum(k[u - 1] for u in supp[:r] if u in adj[v])
            poly = poly * shifted_binomial_poly(b, k[v - 1]) * math.factorial(k[v - 1])
        return poly

    return copy_count_sum(m, g.special, term)


def cycle_graph(n: int) -> Hypergraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return hypergraph(n, edges, ())


def cycle_multichromatic(m: Sequence[int]) -> QPolynomial:
    """Closed form for the multichromatic polynomial of the cycle C_n,
    n = len(m) >= 3, all multiplicities >= 1 and no special vertices:

        sum over k = 0..min(m) of (-1)^(k n) (C(q,k) - C(q,k-1))
            * prod_r C(q - m_r - k, m_(r+1) - k)

    with indices cyclic and C(q,-1) = 0.  This is the spectral decomposition
    of the disjointness transfer operator on color sets: the k-th summand
    collects the eigenspace of dimension C(q,k) - C(q,k-1), and each step
    around the cycle, from vertex r to r+1, contributes one binomial.

    The result is gated against the block-partition formula, and a mismatch
    raises VerificationError.
    """
    m = int_tuple(m, "multiplicities")
    n = len(m)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if any(v < 1 for v in m):
        raise ValueError("cycle closed form needs all multiplicities >= 1")
    candidate = QPolynomial()
    for k in range(min(m) + 1):
        term = binomial_poly(k) - binomial_poly(k - 1) if k else binomial_poly(0)
        for r in range(n):
            term = term * shifted_binomial_poly(m[r] + k, m[(r + 1) % n] - k)
        candidate = candidate + term * (-1) ** (k * n)
    if candidate != marked_chromatic_poly(cycle_graph(n), m):
        raise VerificationError(f"cycle closed form disagrees with the partition formula at m={m}")
    return candidate
