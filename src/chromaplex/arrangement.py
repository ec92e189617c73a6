"""Subspace arrangements over the rationals, exactly.

A subspace is the solution set of a system of integer linear forms; it is
stored as the canonical primitive row-reduced echelon basis of the row space
of those forms (unique per subspace, so equality of subspaces is equality of
representations).  An arrangement is a finite set of such subspaces of
codimension >= 1 in R^n, with an optional special vertex set used by the
marked constructions.

The intersection poset orders all intersections of members by reverse
inclusion.  Its flats are found by their canonical forms, so a repeated
intersection is recognized before any membership test.  Each flat then gets
the bitmask of members containing it; because every flat equals the
intersection of exactly the members in its mask, mask containment is the
poset order, which makes the Mobius recursion run on integer bit tests.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

from .budget import charge
from .chromatic import (
    PartitionTuple,
    duplication_factor,
    enumerate_partition_tuples,
    support,
)
from .errors import BadPrimeError, VerificationError, int_tuple, json_int, json_ints, malformed
from .hypergraph import Hypergraph, check_multiplicities, is_simple
from .series import QPolynomial

Row = tuple[int, ...]
# an echelon basis: (pivot column, row) pairs, each row zero before its pivot
Basis = tuple[tuple[int, Row], ...]


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------


def _pivot(row: Sequence[int]) -> int | None:
    return next((c for c, x in enumerate(row) if x), None)


def _primitive(row: Sequence[int], pivot: int) -> Row:
    """row divided by the gcd of its entries, signed so that row[pivot] > 0."""
    g = math.gcd(*row) if row[pivot] > 0 else -math.gcd(*row)
    return tuple(v // g for v in row)


def _reduce(vec: Sequence[int], basis: Basis) -> list[int]:
    """Remainder of vec against basis by integer cross-multiplication; zero
    exactly when vec lies in the row space.  Each basis row must be zero at
    the pivots of the rows before it, which holds for an echelon basis and
    for rows built as remainders against the rows before them."""
    v = list(vec)
    for c, row in basis:
        if v[c]:
            a, b = row[c], v[c]
            v = [x * a - y * b for x, y in zip(v, row)]
    return v


def _reduce_mod(vec: Sequence[int], basis: Basis, p: int) -> list[int]:
    """Remainder of vec mod p against basis, whose rows are reduced mod p
    and kept as for ``_reduce``."""
    v = [x % p for x in vec]
    for c, row in basis:
        if v[c]:
            b = v[c] * pow(row[c], -1, p)
            v = [(x - b * y) % p for x, y in zip(v, row)]
    return v


def _insert(basis: Basis, vec: Sequence[int]) -> Basis:
    """The canonical basis of the row space of basis and vec: primitive rows
    with positive pivots, each pivot zero in every other row, sorted by
    pivot."""
    rem = _reduce(vec, basis)
    c = _pivot(rem)
    if c is None:
        return basis
    new = _primitive(rem, c)
    cleared = [
        (d, _primitive([x * new[c] - y * row[c] for x, y in zip(row, new)], d) if row[c] else row)
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
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def rank_mod_p(rows: Iterable[Sequence[int]], width: int, p: int) -> int:
    """Rank over F_p of rows of the given width, by incremental insertion."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    basis: Basis = ()
    for r in rows:
        if len(r) != width:
            raise ValueError(f"form {tuple(r)} has {len(r)} coefficients, need {width}")
        rem = _reduce_mod(int_tuple(r, "form coefficients"), basis, p)
        c = _pivot(rem)
        if c is not None:
            basis += ((c, tuple(rem)),)
    return len(basis)


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
        cols = set()
        for row in self.forms:
            cols.update(i + 1 for i, v in enumerate(row) if v)
        return tuple(sorted(cols))


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
    if n < 0:
        raise ValueError("need n >= 0")
    members = {subspace(forms, n) for forms in subspace_forms}
    sp = sorted(set(int_tuple(special, "special indices")))
    if any(v < 1 or v > n for v in sp):
        raise ValueError(f"special indices {sp} outside 1..{n}")
    ordered = tuple(sorted(members, key=lambda s: (s.codim, s.forms)))
    return Arrangement(n, ordered, tuple(sp))


class PosetElement(NamedTuple):
    forms: tuple[Row, ...]
    dim: int
    mobius: int


# bounded: a round of the ``arrangements`` benchmark workload keeps at most
# ~150 arrangements alive, and an entry for K7 holds 877 flats
@lru_cache(maxsize=512)
def _poset_data(arr: Arrangement) -> tuple[PosetElement, ...]:
    n = arr.n
    hyps = [s.forms for s in arr.subspaces]

    def mask_of(basis: Basis) -> int:
        mask = 0
        for i, h in enumerate(hyps):
            if not any(any(_reduce(row, basis)) for row in h):
                mask |= 1 << i
        return mask

    # echelon basis of each flat found so far -> mask of its members
    masks: dict[Basis, int] = {(): 0}
    frontier: list[Basis] = [()]
    while frontier:
        fresh: list[Basis] = []
        for basis in frontier:
            mask = masks[basis]
            for i, h in enumerate(hyps):
                if not (mask >> i) & 1:
                    inter = reduce(_insert, h, basis)
                    if inter not in masks:
                        masks[inter] = mask_of(inter)
                        fresh.append(inter)
        frontier = fresh

    # in rank order every flat below X comes first; a flat of X's own rank
    # never has a mask inside X's, so the sum may run over all earlier flats
    elements: list[PosetElement] = []
    below: list[tuple[int, int]] = []
    flats = {tuple(row for _, row in basis): mask for basis, mask in masks.items()}
    for forms in sorted(flats, key=lambda f: (len(f), f)):
        mask = flats[forms]
        mu = -sum(v for other, v in below if other & mask == other) if forms else 1
        below.append((mask, mu))
        elements.append(PosetElement(forms, n - len(forms), mu))
    return tuple(elements)


@lru_cache(maxsize=512)
def characteristic_polynomial(arr: Arrangement) -> QPolynomial:
    """chi(q) = sum over flats X of mobius(X) q^dim(X)."""
    coeffs = [Fraction(0)] * (arr.n + 1)
    for el in _poset_data(arr):
        coeffs[el.dim] += el.mobius
    return QPolynomial(tuple(coeffs))


def _assert_good_prime(arr: Arrangement, p: int) -> None:
    """A prime is good when the matroid of all defining rows is unchanged
    mod p: every rationally independent subset of rows stays independent.
    That pins the whole intersection poset over F_p to the rational one.
    Walks the independent subsets depth-first, extending exact and mod-p
    echelon bases together."""
    rows = [row for s in arr.subspaces for row in s.forms]
    n = arr.n
    total = sum(math.comb(len(rows), k) for k in range(min(n, len(rows)) + 1))
    charge(total, f"good-prime certification for p={p}")

    def walk(start: int, basis_q: Basis, basis_p: Basis, chosen: tuple[int, ...]) -> None:
        if len(basis_q) == n:
            return
        for i in range(start, len(rows)):
            ext = _insert(basis_q, rows[i])
            if len(ext) == len(basis_q):
                continue
            rem = _reduce_mod(rows[i], basis_p, p)
            c = _pivot(rem)
            if c is None:
                raise BadPrimeError(
                    f"prime {p} makes the rows {[list(rows[j]) for j in chosen]} "
                    f"+ {list(rows[i])} dependent (independent over Q)"
                )
            walk(i + 1, ext, basis_p + ((c, tuple(rem)),), chosen + (i,))

    walk(0, (), (), ())


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
    defining rows keep their matroid mod p); otherwise the count stops
    matching the characteristic polynomial, and a BadPrimeError names a
    violating row set."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    members = []
    for e in g.edges:
        forms = []
        for a, b in zip(e, e[1:]):
            row = [0] * g.n
            row[a - 1] = 1
            row[b - 1] = -1
            forms.append(row)
        members.append(forms)
    return arrangement(g.n, members, g.special)


def _clan_core(
    arr: Arrangement,
    block_count: Mapping[int, int],
    distinct_at: Iterable[int],
    m: Sequence[int],
) -> Arrangement:
    """Shared clan construction: one coordinate per (vertex, block) pair,
    pairwise-distinctness hyperplanes at the requested vertices, and every
    member with support inside supp(m) lifted through all one-block-per-
    vertex substitutions."""
    supp = [i for i in support(m) if block_count[i] > 0]
    cols = {}
    for i in supp:
        for r in range(1, block_count[i] + 1):
            cols[(i, r)] = len(cols)
    width = len(cols)
    members: list[list[list[int]]] = []
    for i in distinct_at:
        for r, s in itertools.combinations(range(1, block_count[i] + 1), 2):
            row = [0] * width
            row[cols[(i, r)]] = 1
            row[cols[(i, s)]] = -1
            members.append([row])
    supp_set = set(support(m))
    for sub in arr.subspaces:
        if not set(sub.support) <= supp_set:
            continue
        vars_here = sub.support
        for combo in itertools.product(*(range(1, block_count[i] + 1) for i in vars_here)):
            forms = []
            for row in sub.forms:
                lifted = [0] * width
                for i, r in zip(vars_here, combo):
                    lifted[cols[(i, r)]] = row[i - 1]
                forms.append(lifted)
            members.append(forms)
    return arrangement(width, members)


def clan(arr: Arrangement, special: Iterable[int], m: Sequence[int]) -> Arrangement:
    """The marked clan: m_i coordinate copies per vertex in supp(m),
    distinctness hyperplanes only at special vertices."""
    m = check_multiplicities(arr.n, m)
    sp = sorted(set(int_tuple(special, "special indices")))
    if any(v < 1 or v > arr.n for v in sp):
        raise ValueError(f"special indices {sp} outside 1..{arr.n}")
    counts = {i: m[i - 1] for i in range(1, arr.n + 1)}
    distinct = [i for i in sp if counts.get(i, 0) > 0]
    return _clan_core(arr, counts, distinct, m)


def clan_lambda(arr: Arrangement, lam: PartitionTuple, m: Sequence[int]) -> Arrangement:
    """The blow-up clan at a partition tuple: one coordinate per block of
    lambda_i, distinctness hyperplanes at every supported vertex."""
    m = int_tuple(m, "multiplicities")
    if len(lam) != arr.n or len(m) != arr.n:
        raise ValueError("partition tuple and multiplicities must have length n")
    for i, part in enumerate(lam, start=1):
        if sum(part) != m[i - 1]:
            raise ValueError(f"lambda_{i}={part} is not a partition of {m[i - 1]}")
    counts = {i: len(lam[i - 1]) for i in range(1, arr.n + 1)}
    return _clan_core(arr, counts, support(m), m)


def marked_chromatic_arrangement(
    arr: Arrangement, special: Iterable[int], m: Sequence[int]
) -> QPolynomial:
    """The marked chromatic polynomial of an arrangement: sum over partition
    tuples of the blow-up clan's characteristic polynomial, each divided by
    the duplication factor of its partitions."""
    m = check_multiplicities(arr.n, m)
    sp = sorted(set(int_tuple(special, "special indices")))
    if not set(sp) <= set(support(m)):
        raise ValueError(
            f"special set {sp} must lie inside the support {support(m)} of m"
        )
    total = QPolynomial()
    for lam in enumerate_partition_tuples(m, sp):
        factor = math.prod(duplication_factor(part) for part in lam)
        total = total + characteristic_polynomial(clan_lambda(arr, lam, m)) / factor
    return total


def brute_force_arrangement_count(
    arr: Arrangement, special: Iterable[int], m: Sequence[int], p: int
) -> int:
    """Oracle: count tuples (C_i) over F_p, one color collection per
    supported vertex (a multiset of size m_i at special vertices, a set
    elsewhere), such that no member with support inside supp(m) admits a
    one-color-per-vertex solution drawn from the collections.  Counted level by
    level in F_p alone (no elimination over Q, no poset); charged as the
    number of collection tuples, though far fewer states are met."""
    m = check_multiplicities(arr.n, m)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    sp = set(int_tuple(special, "special indices"))
    supp = support(m)
    if not sp <= set(supp):
        raise ValueError(f"special set {sorted(sp)} must lie inside supp(m)={supp}")
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
        members = [[json_ints(form) for form in item["forms"]] for item in obj["subspaces"]]
        return arrangement(json_int(obj["n"]), members, json_ints(obj.get("special", [])))
