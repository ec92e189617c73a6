"""Subspace arrangements over the rationals, exactly.

A subspace is the solution set of a system of integer linear forms; it is
stored as the canonical primitive row-reduced echelon basis of the row space
of those forms (unique per subspace, so equality of subspaces is equality of
representations).  An arrangement is a finite set of such subspaces of
codimension >= 1 in R^n, with an optional special vertex set used by the
marked constructions.

The intersection poset orders all intersections of members by reverse
inclusion.  Each flat is keyed by the bitmask of members containing it;
because every flat equals the intersection of exactly the members in its
mask, mask containment is the poset order, which makes the Mobius recursion
run on integer bit tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .budget import charge
from .chromatic import (
    PartitionTuple,
    duplication_factor,
    enumerate_partition_tuples,
    support,
)
from .errors import BadPrimeError, VerificationError, json_int, json_ints, malformed
from .hypergraph import Hypergraph, check_multiplicities, is_simple
from .series import QPolynomial

Row = tuple[int, ...]


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------


def _primitive(row: Sequence[int]) -> Row:
    g = 0
    for v in row:
        g = math.gcd(g, v)
    if g == 0:
        return tuple(row)
    lead = next(v for v in row if v)
    if lead < 0:
        g = -g
    return tuple(v // g for v in row)


def rref(rows: Iterable[Sequence[int]], width: int) -> tuple[Row, ...]:
    """Canonical basis of the row space: reduced echelon form scaled to
    primitive integer rows with positive pivots."""
    mat = []
    for r in rows:
        r = tuple(int(v) for v in r)
        if len(r) != width:
            raise ValueError(f"form {r} has {len(r)} coefficients, need {width}")
        if any(r):
            mat.append(list(r))
    pivots: list[int] = []
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
                mat[i] = list(_primitive([x * a - y * b for x, y in zip(mat[i], mat[rank])]))
        pivots.append(c)
        rank += 1
        if rank == len(mat):
            break
    return tuple(_primitive(mat[i]) for i in range(rank))


def _reduce(vec: Sequence[int], basis: Sequence[Row]) -> list[int]:
    """Remainder of vec against basis by integer cross-multiplication; zero
    exactly when vec lies in the row space.  Each basis row must be zero at
    the leading columns of the rows before it, which holds for an echelon
    form and for rows built as remainders against the rows before them."""
    v = list(vec)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        if v[c]:
            a, b = row[c], v[c]
            v = [x * a - y * b for x, y in zip(v, row)]
    return v


def _reduce_mod(vec: Sequence[int], basis: Sequence[Row], p: int) -> list[int]:
    """Remainder of vec mod p against basis, whose rows are reduced mod p
    and kept as for ``_reduce``."""
    v = [x % p for x in vec]
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        if v[c]:
            b = v[c] * pow(row[c], -1, p)
            v = [(x - b * y) % p for x, y in zip(v, row)]
    return v


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
    basis: list[Row] = []
    for r in rows:
        if len(r) != width:
            raise ValueError(f"form {tuple(r)} has {len(r)} coefficients, need {width}")
        rem = _reduce_mod([int(v) for v in r], basis, p)
        if any(rem):
            basis.append(tuple(rem))
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
    sp = sorted(set(int(v) for v in special))
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
    p = len(hyps)

    def mask_of(basis: tuple[Row, ...]) -> int:
        mask = 0
        for i, h in enumerate(hyps):
            if not any(any(_reduce(row, basis)) for row in h):
                mask |= 1 << i
        return mask

    flats: dict[int, tuple[Row, ...]] = {0: ()}
    frontier: list[tuple[tuple[Row, ...], int]] = [((), 0)]
    while frontier:
        fresh: list[tuple[tuple[Row, ...], int]] = []
        for basis, mask in frontier:
            for i in range(p):
                if not (mask >> i) & 1:
                    inter = rref(basis + hyps[i], n)
                    m2 = mask_of(inter)
                    if m2 not in flats:
                        flats[m2] = inter
                        fresh.append((inter, m2))
        frontier = fresh

    by_rank: dict[int, list[int]] = {}
    for mask, basis in flats.items():
        by_rank.setdefault(len(basis), []).append(mask)
    mobius: dict[int, int] = {}
    processed: list[int] = []
    for rank in sorted(by_rank):
        for mask in by_rank[rank]:
            if rank == 0:
                mobius[mask] = 1
                continue
            acc = 0
            pc = mask.bit_count()
            if (1 << pc) <= max(len(processed), 64):
                # walk strict submasks; closed ones are exactly the flats below
                sub = (mask - 1) & mask
                while True:
                    mu = mobius.get(sub)
                    if mu is not None:
                        acc += mu
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
            else:
                for other in processed:
                    if other & mask == other:
                        acc += mobius[other]
            mobius[mask] = -acc
        processed.extend(by_rank[rank])

    elements = [
        PosetElement(flats[mask], n - len(flats[mask]), mobius[mask])
        for mask in flats
    ]
    elements.sort(key=lambda el: (len(el.forms), el.forms))
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
    row bases together."""
    rows = [row for s in arr.subspaces for row in s.forms]
    n = arr.n
    total = sum(math.comb(len(rows), k) for k in range(min(n, len(rows)) + 1))
    charge(total, f"good-prime certification for p={p}")

    def walk(start: int, basis_q: list, basis_p: list, chosen: list[int]) -> None:
        if len(basis_q) == n:
            return
        for i in range(start, len(rows)):
            rem_q = _reduce(rows[i], basis_q)
            if not any(rem_q):
                continue
            rem_p = _reduce_mod(rows[i], basis_p, p)
            if not any(rem_p):
                raise BadPrimeError(
                    f"prime {p} makes the rows {[list(rows[j]) for j in chosen]} "
                    f"+ {list(rows[i])} dependent (independent over Q)"
                )
            basis_q.append(_primitive(rem_q))
            basis_p.append(tuple(rem_p))
            chosen.append(i)
            walk(i + 1, basis_q, basis_p, chosen)
            basis_q.pop()
            basis_p.pop()
            chosen.pop()

    walk(0, [], [], [])


def count_complement(arr: Arrangement, p: int) -> int:
    """Points of F_p^n on no member, by enumeration.

    Requires p prime and good for the arrangement (the defining rows keep
    their matroid mod p), otherwise the count stops matching the
    characteristic polynomial and a BadPrimeError identifies a violating
    row set.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    _assert_good_prime(arr, p)
    charge(p**arr.n, f"point enumeration over F_{p}^{arr.n}")
    members = [[tuple(v % p for v in row) for row in s.forms] for s in arr.subspaces]
    count = 0
    for x in itertools.product(range(p), repeat=arr.n):
        hit = False
        for forms in members:
            if all(sum(c * v for c, v in zip(row, x)) % p == 0 for row in forms):
                hit = True
                break
        if not hit:
            count += 1
    return count


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
    sp = sorted(set(int(v) for v in special))
    if any(v < 1 or v > arr.n for v in sp):
        raise ValueError(f"special indices {sp} outside 1..{arr.n}")
    counts = {i: m[i - 1] for i in range(1, arr.n + 1)}
    distinct = [i for i in sp if counts.get(i, 0) > 0]
    return _clan_core(arr, counts, distinct, m)


def clan_lambda(arr: Arrangement, lam: PartitionTuple, m: Sequence[int]) -> Arrangement:
    """The blow-up clan at a partition tuple: one coordinate per block of
    lambda_i, distinctness hyperplanes at every supported vertex."""
    m = tuple(int(v) for v in m)
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
    sp = sorted(set(int(v) for v in special))
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
    one-color-per-vertex solution drawn from the collections.

    Multisets are counted by underlying set and weighted by the number of
    multisets realizing it; the per-member existence check runs over partial
    form-value sets so its state never exceeds p^(codim)."""
    m = check_multiplicities(arr.n, m)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    sp = set(int(v) for v in special)
    supp = support(m)
    if not sp <= set(supp):
        raise ValueError(f"special set {sorted(sp)} must lie inside supp(m)={supp}")
    level_of = {v: i for i, v in enumerate(supp)}

    choices: list[list[tuple[frozenset[int], int]]] = []
    total_size = 1
    for v in supp:
        mult = m[v - 1]
        opts: list[tuple[frozenset[int], int]] = []
        if v in sp:
            for size in range(1, mult + 1):
                weight = math.comb(mult - 1, size - 1)
                for u in itertools.combinations(range(p), size):
                    opts.append((frozenset(u), weight))
        else:
            for u in itertools.combinations(range(p), mult):
                opts.append((frozenset(u), 1))
        choices.append(opts)
        total_size *= max(len(opts), 1)
    charge(total_size, "arrangement coloring enumeration")

    active = [s for s in arr.subspaces if set(s.support) <= set(supp)]
    # per member: coefficient columns by level, and the level completing it
    plans = []
    for s in active:
        cols = {level_of[v]: tuple(row[v - 1] for row in s.forms) for v in s.support}
        plans.append((cols, max(cols), len(s.forms)))

    k = len(supp)
    total = 0

    def descend(level: int, states: tuple, weight: int) -> None:
        nonlocal total
        if level == k:
            total += weight
            return
        for u, w in choices[level]:
            nxt = []
            dead = False
            for (cols, last, nforms), st in zip(plans, states):
                if level not in cols:
                    nxt.append(st)
                    continue
                coef = cols[level]
                if nforms == 1:
                    c = coef[0]
                    cur = {(s0 + c * x) % p for s0 in st for x in u}
                else:
                    cur = {
                        tuple((s0[j] + coef[j] * x) % p for j in range(nforms))
                        for s0 in st
                        for x in u
                    }
                if level == last:
                    zero = 0 if nforms == 1 else (0,) * nforms
                    if zero in cur:
                        dead = True
                        break
                nxt.append(cur)
            if not dead:
                descend(level + 1, tuple(nxt), weight * w)

    initial = tuple(
        {0} if nforms == 1 else {(0,) * nforms} for (_, _, nforms) in plans
    )
    descend(0, initial, 1)
    return total


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
