"""Subspace arrangements over the rationals, exactly.

A subspace is the solution set of a system of integer linear forms; it is
stored as the canonical primitive row-reduced echelon basis of the row space
of those forms (unique per subspace, so equality of subspaces is equality of
representations).  An arrangement is a finite set of such subspaces of
codimension >= 1 in R^n, with an optional special vertex set used by the
marked constructions.

The intersection poset orders all intersections of members by reverse
inclusion.  Each flat gets the bitmask of the members containing it; as
every flat equals the intersection of exactly the members in its mask, mask
containment is the poset order.  The walk finds the flats rank by rank,
numbered as found, with bitsets over them: per member the flats inside it,
per rank the flats of that rank.  It meets each flat X with the members
outside mask(X), over Q and over F_p alike, with Z = X & H_i: (a) when
rank(Z) = rank(X) + 1, every member in mask(Z) is skipped for this X: such
an H_j contains Z but not X, so X > X & H_j >= Z, and Z covers X; (b) a new
Z's mask starts at mask(X) | bit i; only other members are tested; (c) one
AND of bitsets finds the known flats of rank(X) + 1 inside X and H_i, and a
hit is Z: (a) applies with no meet (a hit of higher rank would prove
nothing).  The Mobius recursion reads the same bitsets in (rank, mask)
order: the flats below X lie in no member X lacks, and each mu value adds
its count among them, one popcount per value.  The same walk over F_p
certifies a prime: it is good when the flats mod p carry the same masks and
ranks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

from .budget import charge
from .chromatic import copy_columns, copy_count_sum, support
from .errors import (
    BadPrimeError,
    VerificationError,
    int_tuple,
    json_array,
    malformed,
    natural,
    vector,
    vertex_set,
)
from .hypergraph import Hypergraph, is_simple
from .series import QPolynomial

Row = tuple[int, ...]
# an echelon basis: (pivot column, row) pairs, each row zero before its pivot
Basis = tuple[tuple[int, Row], ...]


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------


def _pivot(row: Sequence[int]) -> int | None:
    return next((c for c, x in enumerate(row) if x), None)


def _primitive(row: Sequence[int], pivot: int, p: int = 0) -> Row:
    """row scaled to its canonical multiple: over Q (p = 0) divided by the
    gcd of its entries and signed so that row[pivot] > 0, mod a prime p
    scaled so that row[pivot] == 1."""
    if p:
        inv = pow(row[pivot], -1, p)
        return tuple(v * inv % p for v in row)
    g = math.gcd(*row) if row[pivot] > 0 else -math.gcd(*row)
    return tuple(row) if g == 1 else tuple(v // g for v in row)


def _reduce(vec: Sequence[int], basis: Basis, p: int = 0) -> list[int]:
    """Remainder of vec against basis by integer cross-multiplication, taken
    mod p when p > 0; zero exactly when vec lies in the row space.  Each
    basis row must be zero at the pivots of the rows before it, which holds
    for an echelon basis and for rows built as remainders against the rows
    before them."""
    v = [x % p for x in vec] if p else list(vec)
    for c, row in basis:
        if v[c]:
            a, b = row[c], v[c]
            if p:
                v = [(x * a - y * b) % p for x, y in zip(v, row)]
            else:
                v = [x * a - y * b for x, y in zip(v, row)]
    return v


def _insert(basis: Basis, vec: Sequence[int], p: int = 0) -> Basis:
    """The canonical basis of the row space of basis and vec, over Q when
    p = 0 and mod p otherwise: rows in ``_primitive`` form, each pivot zero
    in every other row, sorted by pivot."""
    rem = _reduce(vec, basis, p)
    c = _pivot(rem)
    if c is None:
        return basis
    new = _primitive(rem, c, p)
    cleared = [
        (d, _primitive([x * new[c] - y * row[c] for x, y in zip(row, new)], d, p))
        if row[c] else (d, row)
        for d, row in basis
    ]
    return tuple(sorted(cleared + [(c, new)]))


def rref(rows: Iterable[Sequence[int]], width: int) -> tuple[Row, ...]:
    """Canonical basis of the row space: reduced echelon form scaled to
    primitive integer rows with positive pivots."""
    basis: Basis = ()
    for r in rows:
        r = int_tuple(r, "form coefficients")
        if len(r) != width:
            raise ValueError(f"form {r} has {len(r)} coefficients, need {width}")
        basis = _insert(basis, r)
    return tuple(row for _, row in basis)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def _check_prime(p: int) -> None:
    """Refuse p unless it is an int and prime."""
    (p,) = int_tuple((p,), "p")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# subspaces and arrangements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Canonical echelon form rows of the defining linear system."""

    forms: tuple[Row, ...]

    @property
    def codim(self) -> int:
        return len(self.forms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({i + 1 for row in self.forms for i, v in enumerate(row) if v}))


def subspace(forms: Iterable[Sequence[int]], n: int) -> Subspace:
    basis = rref(forms, n)
    if not basis:
        raise ValueError("subspace must have codimension >= 1 (got the whole space)")
    return Subspace(basis)


@dataclass(frozen=True)
class Arrangement:
    n: int
    subspaces: tuple[Subspace, ...]
    special: tuple[int, ...]


def arrangement(
    n: int,
    subspace_forms: Iterable[Iterable[Sequence[int]]],
    special: Iterable[int] = (),
) -> Arrangement:
    """Build an arrangement in R^n; members are deduplicated by their
    canonical forms and sorted deterministically."""
    n = natural(n, "dimension")
    members = {subspace(forms, n) for forms in subspace_forms}
    sp = vertex_set(special, n, "special indices")
    ordered = tuple(sorted(members, key=lambda s: (s.codim, s.forms)))
    return Arrangement(n, ordered, sp)


class PosetElement(NamedTuple):
    dim: int
    mobius: int
    mask: int  # bit i set when member i contains the flat


def _walk(arr: Arrangement, p: int = 0) -> tuple[dict[Basis, int], list[int]]:
    """The flats over Q (p = 0) or over F_p by rules (a)-(c), numbered as
    found, rank by rank: the canonical basis of each flat -> the mask of the
    members containing it, and per member the bitset of the flats inside
    it.  A new cover Z = X & H_i tests only the members after i: an earlier
    one containing Z would have met X in Z first, or hit Z by rule (c).
    Each rank is charged the flats found so far times the members."""
    hyps = [s.forms for s in arr.subspaces]
    masks: dict[Basis, int] = {(): 0}
    inside = [0] * len(hyps)  # per member, the flats inside it
    levels: list[list[Basis]] = [[()]] + [[] for _ in range(arr.n)]
    ranked = [1] + [0] * (arr.n + 1)  # per rank, its flats
    for rank, level in enumerate(levels):
        if level:
            charge(len(masks) * len(hyps), f"intersection poset walk over {len(hyps)} members")
        for basis in level:
            mask = skip = masks[basis]
            covers = ranked[rank + 1]  # the known flats of the next rank, then those in X
            if covers:
                mine = (f for j, f in enumerate(inside) if mask >> j & 1)
                covers = reduce(operator.and_, mine, covers)
            for i, h in enumerate(hyps):
                if skip >> i & 1 or covers & inside[i]:  # (a), or (c): a hit is X & H_i
                    continue
                inter = reduce(lambda b, row: _insert(b, row, p), h, basis)
                cover = len(inter) == rank + 1
                if inter not in masks:
                    new = mask | 1 << i
                    for j in range(i + 1 if cover else 0, len(hyps)):
                        if not (new >> j & 1 or any(any(_reduce(r, inter, p)) for r in hyps[j])):
                            new |= 1 << j
                    for j in range(len(hyps)):
                        if new >> j & 1:
                            inside[j] |= 1 << len(masks)
                    ranked[len(inter)] |= 1 << len(masks)
                    masks[inter] = new
                    levels[len(inter)].append(inter)
                if cover:
                    skip |= masks[inter]
    return masks, inside


def _flats(arr: Arrangement, p: int = 0) -> dict[Basis, int]:
    """The flats of ``_walk`` (rules (a)-(c), numbered as found, rank by rank)."""
    return _walk(arr, p)[0]


# bounded small: after ``characteristic_polynomial``, which keeps its own
# answers, a poset is read again only by the prime checks that follow it
@lru_cache(maxsize=8)
def _poset_data(arr: Arrangement) -> tuple[PosetElement, ...]:
    # Y is below X when it lies in no member X lies outside.  mu is summed in
    # (rank, mask) order; a summed flat of X's rank never passes: it would be X.
    masks, inside = _walk(arr)
    with_mu: dict[int, int] = {}  # mu value -> the flats with it
    elements: list[PosetElement] = []
    for rank, mask, k in sorted((len(b), mask, k) for k, (b, mask) in enumerate(masks.items())):
        below = ~reduce(operator.or_, (f for j, f in enumerate(inside) if not mask >> j & 1), 0)
        mu = -sum(v * (below & flats).bit_count() for v, flats in with_mu.items()) if rank else 1
        with_mu[mu] = with_mu.get(mu, 0) | 1 << k
        elements.append(PosetElement(arr.n - rank, mu, mask))
    return tuple(elements)


@lru_cache(maxsize=512)
def characteristic_polynomial(arr: Arrangement) -> QPolynomial:
    """chi(q) = sum over flats X of mobius(X) q^dim(X)."""
    coeffs = [0] * (arr.n + 1)
    for el in _poset_data(arr):
        coeffs[el.dim] += el.mobius
    return QPolynomial(tuple(coeffs))


def _assert_good_prime(arr: Arrangement, p: int) -> None:
    """A prime is good when reducing the members' forms mod p keeps the
    intersection poset: the flats over F_p carry the same (mask, rank)
    pairs as those over Q.  Mask containment is the order of both posets,
    so they have the same Mobius function, and the complement has chi(p)
    points over F_p (the finite field method)."""
    over_q = {(el.mask, arr.n - el.dim) for el in _poset_data(arr)}
    changed = over_q ^ {(mask, len(basis)) for basis, mask in _flats(arr, p).items()}
    if changed:
        # each changed pair names members whose intersection differs mod p;
        # the one with the most members reads best
        mask = max(changed, key=lambda pair: (pair[0].bit_count(), pair))[0]
        named = ", ".join(
            str([list(r) for r in s.forms]) for i, s in enumerate(arr.subspaces) if mask >> i & 1
        )
        raise BadPrimeError(f"prime {p} changes the intersection poset at the members {named}")


def _count_colorings(
    arr: Arrangement, special: Iterable[int], m: Sequence[int], p: int
) -> int:
    """The count of ``brute_force_arrangement_count``, with no checks.

    The vertices of supp(m) are taken level by level.  A member is open from
    the first level of its support to its last, with the set of partial
    values mod p of its forms as state: a bitmask with s in F_p^r at bit
    sum_j s_j p^j.  At its last level it leaves the state and forbids the
    colors that would put the zero vector in it.  The count of the remaining
    levels is memoized on (level, states) where a member stays open."""
    supp = support(m)
    plans = []
    for s in arr.subspaces:
        if set(s.support) <= set(supp):
            # adding t along axis j: the values whose digit j is below p - t
            # move up by t p^j, the others wrap down by (p - t) p^j
            moves = {}
            for j, t in itertools.product(range(s.codim), range(1, p)):
                d = p**j
                below = ((1 << (p - t) * d) - 1) * ((1 << p**s.codim) - 1) // ((1 << p * d) - 1)
                moves[j, t] = (below, t * d, (p - t) * d)
            # per level of the support and color x, the moves adding x * column
            # and the bit of the value that x takes to zero
            steps = {}
            for v in s.support:
                col = [row[v - 1] for row in s.forms]
                steps[supp.index(v)] = [
                    ([moves[j, c * x % p] for j, c in enumerate(col) if c * x % p],
                     sum(-c * x % p * p**j for j, c in enumerate(col)))
                    for x in range(p)
                ]
            plans.append((min(steps), max(steps), steps))
    memo: list[dict[tuple[int, ...], int]] = [{} for _ in supp]

    def count(level: int, states: tuple[int, ...]) -> int:
        """states: per member, its bitmask; 1 before it opens, 0 once closed."""
        if level == len(supp):
            return 1
        if states in memo[level]:
            return memo[level][states]
        forbidden: set[int] = set()
        images = []  # per member, its state after this level for each color
        for (first, end, steps), state in zip(plans, states):
            image = [state] * p
            if level == end:
                forbidden.update(x for x, (_, zero) in enumerate(steps[level]) if state >> zero & 1)
                image = [0] * p
            elif level in steps:
                for x, (color_moves, _) in enumerate(steps[level]):
                    for below, up, down in color_moves:
                        image[x] = (image[x] & below) << up | (image[x] & ~below) >> down
            images.append(image)
        allowed = [x for x in range(p) if x not in forbidden]
        # a multiset at a special vertex counts by its set of k colors, as
        # C(m_v - 1, k - 1) multisets; elsewhere the set has m_v colors
        mult = m[supp[level] - 1]
        low = 1 if supp[level] in special else mult
        sizes = [(k, math.comb(mult - 1, k - 1)) for k in range(low, mult + 1)]
        if not any(first <= level < end for first, end, _ in plans):
            here = sum(w * math.comb(len(allowed), k) for k, w in sizes)
            return here * count(level + 1, tuple(int(level < first) for first, _, _ in plans))
        weights: dict[tuple[int, ...], int] = {}
        for k, w in sizes:
            for colors in itertools.combinations(allowed, k):
                nxt = tuple(reduce(operator.or_, (im[x] for x in colors)) for im in images)
                weights[nxt] = weights.get(nxt, 0) + w
        memo[level][states] = sum(w * count(level + 1, nxt) for nxt, w in weights.items())
        return memo[level][states]

    return count(0, (1,) * len(plans))


def count_complement(arr: Arrangement, p: int) -> int:
    """Points of F_p^n on no member: the coloring count at m = (1, ..., 1)
    with no special vertex.  Needs p prime and good for the arrangement (the
    intersection poset is the same mod p); otherwise the count may stop
    matching the characteristic polynomial, and a BadPrimeError names
    members whose intersection changed."""
    _check_prime(p)
    _assert_good_prime(arr, p)
    charge(p**arr.n, f"point enumeration over F_{p}^{arr.n}")
    return _count_colorings(arr, (), (1,) * arr.n, p)


def region_count(arr: Arrangement) -> int:
    """Number of connected components of the complement of a real hyperplane
    arrangement: |chi(-1)|, valid only when every member has codimension 1."""
    if any(s.codim != 1 for s in arr.subspaces):
        raise ValueError("region counting needs an arrangement of hyperplanes")
    value = characteristic_polynomial(arr).eval(-1) * (-1) ** arr.n
    if value.denominator != 1:
        raise VerificationError(f"region count |chi(-1)| = {value} is not an integer")
    return int(value)


# ---------------------------------------------------------------------------
# hypergraphs as arrangements, clans, marked chromatic polynomials
# ---------------------------------------------------------------------------


def graphical_arrangement(g: Hypergraph) -> Arrangement:
    """One subspace per edge {i_1 < ... < i_r}: the chain of differences
    x_{i_1} = x_{i_2} = ... = x_{i_r} (codimension r - 1).  Needs a simple
    hypergraph so that edges have at least two vertices."""
    if not is_simple(g):
        raise ValueError("graphical arrangement needs a simple hypergraph")
    members = [
        [[(v == a) - (v == b) for v in range(1, g.n + 1)] for a, b in zip(e, e[1:])]
        for e in g.edges
    ]
    return arrangement(g.n, members, g.special)


def clan(arr: Arrangement, special: Iterable[int], m: Sequence[int]) -> Arrangement:
    """The marked clan: m_i coordinate copies per vertex i, pairwise
    distinctness hyperplanes among the copies of each special vertex, and
    every member lifted through all one-copy-per-vertex substitutions (none
    when its support meets a vertex without copies)."""
    m = vector(m, arr.n, "multiplicities")
    cols = copy_columns(m)
    width = sum(m)
    members: list[list[list[int]]] = []
    for i in vertex_set(special, arr.n, "special indices"):
        for r, s in itertools.combinations(cols[i - 1], 2):
            row = [0] * width
            row[r], row[s] = 1, -1
            members.append([row])
    for sub in arr.subspaces:
        for combo in itertools.product(*(cols[i - 1] for i in sub.support)):
            forms = []
            for row in sub.forms:
                lifted = [0] * width
                for i, c in zip(sub.support, combo):
                    lifted[c] = row[i - 1]
                forms.append(lifted)
            members.append(forms)
    return arrangement(width, members)


def clan_lambda(arr: Arrangement, counts: Sequence[int]) -> Arrangement:
    """The blow-up clan at copy counts: counts[i - 1] coordinates for vertex
    i, one per block of a partition of m_i into that many parts, and
    distinctness hyperplanes at every vertex with copies."""
    counts = vector(counts, arr.n, "copy counts")
    return clan(arr, support(counts), counts)


def marked_chromatic_arrangement(
    arr: Arrangement, special: Iterable[int], m: Sequence[int]
) -> QPolynomial:
    """The marked chromatic polynomial of an arrangement: sum over copy
    counts of the blow-up clan's characteristic polynomial, each weighted as
    in ``copy_count_sum``."""
    m = vector(m, arr.n, "multiplicities")
    sp = vertex_set(special, arr.n, "special indices")
    if not set(sp) <= set(support(m)):
        raise ValueError(f"special set {sp} must lie inside the support {support(m)} of m")
    return copy_count_sum(m, sp, lambda k: characteristic_polynomial(clan_lambda(arr, k)))


def verification_primes(arr: Arrangement, m: Sequence[int]) -> tuple[int, int]:
    """The first two primes >= 5 good (see ``_assert_good_prime``) for every
    clan in the sum of ``marked_chromatic_arrangement`` at m, whatever the
    special set.  There each clan's F_p point count is its characteristic
    polynomial at p, so ``brute_force_arrangement_count`` must equal the
    polynomial's value.

    Only the clan with one copy per unit of m is certified: the clan at
    copy counts k is that finest clan restricted to a flat (the m_v copies
    of each vertex v split into k_v blocks, the copies in a block set
    equal), and its poset is the interval above that flat, over Q and over
    F_p alike.  A prime that keeps the finest clan's poset therefore keeps
    every such interval."""
    finest = clan_lambda(arr, vector(m, arr.n, "multiplicities"))
    primes: list[int] = []
    for p in filter(_is_prime, itertools.count(5)):
        try:
            _assert_good_prime(finest, p)
        except BadPrimeError:
            continue
        primes.append(p)
        if len(primes) == 2:
            return primes[0], primes[1]


def brute_force_arrangement_count(
    arr: Arrangement, special: Iterable[int], m: Sequence[int], p: int
) -> int:
    """Oracle: count tuples (C_i) over F_p, one color collection per
    supported vertex (a multiset of size m_i at special vertices, a set
    elsewhere), such that no member with support inside supp(m) admits a
    one-color-per-vertex solution drawn from the collections.  Counted level by
    level in F_p alone (no elimination over Q, no poset); charged as the
    number of collection tuples, though far fewer states are met."""
    m = vector(m, arr.n, "multiplicities")
    _check_prime(p)
    sp = vertex_set(special, arr.n, "special indices")
    supp = support(m)
    if not set(sp) <= set(supp):
        raise ValueError(f"special set {sp} must lie inside the support {supp} of m")
    lows = {v: 1 if v in sp else m[v - 1] for v in supp}
    sets = (sum(math.comb(p, k) for k in range(lows[v], m[v - 1] + 1)) for v in supp)
    charge(math.prod(max(c, 1) for c in sets), "arrangement coloring enumeration")
    return _count_colorings(arr, sp, m, p)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "n": arr.n,
        "special": list(arr.special),
        "subspaces": [{"forms": [list(r) for r in s.forms]} for s in arr.subspaces],
    }


def arrangement_from_json(obj: Mapping) -> Arrangement:
    with malformed("arrangement"):
        subspaces = json_array(obj["subspaces"], "subspaces")
        members = [json_array(s["forms"], "forms", 2) for s in subspaces]
        return arrangement(obj["n"], members, json_array(obj.get("special", []), "special"))
