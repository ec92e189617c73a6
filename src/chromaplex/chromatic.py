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
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .budget import charge
from .errors import VerificationError
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
    if not isinstance(q, int) or q < 0:
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


def _marked_blocks(g: Hypergraph, cap: Vector) -> list[Vector]:
    """Marked-independent multiplicity vectors b with 0 < b <= cap,
    in descending lexicographic order (the canonical block order)."""
    charge(math.prod(t + 1 for t in cap), "block-candidate enumeration")
    return sorted((b for b in marked_independent_vectors(g, cap) if any(b)), reverse=True)


def _ordered_block_counts(g: Hypergraph, m: Vector) -> dict[int, int]:
    """|P_k| for every k: the number of ordered k-tuples of nonempty
    marked-independent blocks whose disjoint union has multiplicities m.

    Enumerates unordered block multisets (blocks in descending canonical
    order, each with its repeat count j) and adds k!/prod(j!) per multiset;
    that multinomial is the number of distinct orderings, which is what makes
    repeated identical blocks (possible at special vertices) count correctly.
    """
    blocks = _marked_blocks(g, m)
    counts: Counter[int] = Counter()
    nblocks = len(blocks)
    items = [
        tuple((i, mult) for i, mult in enumerate(b) if mult) for b in blocks
    ]
    sizes = [sum(b) for b in blocks]
    # for pruning: beyond this block index, vertex i can never be covered
    last_use = [-1] * len(m)
    for bi, entry in enumerate(items):
        for i, _ in entry:
            last_use[i] = max(last_use[i], bi)
    remaining = list(m)
    left = sum(m)
    factorial = math.factorial

    def walk(start: int, k: int, denom: int) -> None:
        nonlocal left
        if left == 0:
            counts[k] += factorial(k) // denom
            return
        if any(v > 0 and last_use[i] < start for i, v in enumerate(remaining)):
            return
        for bi in range(start, nblocks):
            entry = items[bi]
            if all(remaining[i] >= mult for i, mult in entry):
                size = sizes[bi]
                j = 0
                fj = 1
                while all(remaining[i] >= mult for i, mult in entry):
                    for i, mult in entry:
                        remaining[i] -= mult
                    left -= size
                    j += 1
                    fj *= j
                    walk(bi + 1, k + j, denom * fj)
                for i, mult in entry:
                    remaining[i] += mult * j
                left += size * j

    walk(0, 0, 1)
    return dict(counts)


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


# bounded: a round of the ``coeffs`` benchmark workload keeps at most ~1,600
# (hypergraph, m) pairs alive
@lru_cache(maxsize=4096)
def _partition_formula(g: Hypergraph, m: Vector) -> QPolynomial:
    counts = _ordered_block_counts(g, m)
    coords = [counts.get(k, 0) for k in range(max(counts, default=-1) + 1)]
    return poly_from_binomial_coordinates(coords)


def marked_chromatic_poly(g: Hypergraph, m: Sequence[int]) -> QPolynomial:
    """The marked chromatic polynomial at multiplicities m, via the
    block-partition formula: sum over k of |P_k| * binomial(q, k)."""
    m = check_multiplicities(g.n, m)
    supp = set(support(m))
    # vertices outside the support carry empty color multisets, so edges and
    # special flags beyond the support cannot affect the count; normalizing
    # them away improves cache reuse
    edges = [e for e in g.edges if set(e) <= supp]
    special = [v for v in g.special if v in supp]
    return _partition_formula(hypergraph(g.n, edges, special), m)


def ordinary_chromatic_poly(g: Hypergraph) -> QPolynomial:
    """The plain chromatic polynomial: all multiplicities 1, nobody special."""
    return marked_chromatic_poly(hypergraph(g.n, g.edges, ()), (1,) * g.n)


def coefficient_via_binomial(
    a: IndependenceSystem, special: Iterable[int], m: Sequence[int]
) -> QPolynomial:
    """Coefficient polynomial of x^m in I_S(A, x)^q.

    Computed as sum over k of binomial(q, k) * [x^m](I_S - 1)^k, working with
    series truncated at m, where x^m is the last entry of the dense window.
    Independent of the block-partition machinery.
    """
    m = check_multiplicities(a.n, m)
    f = system_series(a, special, m)
    # the base series has one unit term per marked-independent multiset, so
    # its powers keep plain integer coefficients
    w = DenseWindow(m)
    base = w.values(f)
    base[0] = 0
    base_terms = w.nonzero(base)
    total = sum(m)
    coords = [1 if total == 0 else 0]
    power = base
    for k in range(1, total + 1):
        coords.append(power[-1])
        if k < total:
            power = w.mul(power, base_terms)
    return poly_from_binomial_coordinates(coords)


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
    m = tuple(int(v) for v in m)
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


def blow_up_vertex_labels(lam: PartitionTuple, m: Sequence[int]) -> list[tuple[int, int]]:
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
    labels = blow_up_vertex_labels(lam, m)
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
    m = tuple(int(v) for v in m)
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


def cycle_multichromatic(m: Sequence[int], verify: bool = True) -> QPolynomial:
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

    With ``verify`` the result is gated against the block-partition formula,
    and a mismatch raises VerificationError.
    """
    m = tuple(int(v) for v in m)
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
    if verify:
        reference = marked_chromatic_poly(cycle_graph(n), m)
        if candidate != reference:
            raise VerificationError(
                f"cycle closed form disagrees with the partition formula at m={m}"
            )
    return candidate
