"""Hypergraphs with special vertices, and independence systems.

A hypergraph on vertices 1..n is a family of nonempty edges (vertex sets,
stored as sorted tuples) together with a set of special vertices.  Special
vertices are the ones allowed to repeat colors in marked colorings; they play
no role in plain independence.

An independence system is a downward-closed family of subsets of 1..n
containing the empty set.  Its members are exactly the independent sets of
the hypergraph whose edges are the minimal non-members.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .budget import charge
from .errors import VerificationError, json_int, json_ints, malformed
from .series import ONE, TruncatedSeries

Edge = tuple[int, ...]


def _canon_vertex_sets(n: int, sets: Iterable[Iterable[int]], what: str) -> tuple[Edge, ...]:
    out: set[Edge] = set()
    for raw in sets:
        members = sorted(set(int(v) for v in raw))
        if any(v < 1 or v > n for v in members):
            raise ValueError(f"{what} {tuple(raw)} has vertices outside 1..{n}")
        out.add(tuple(members))
    return tuple(sorted(out, key=lambda e: (len(e), e)))


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[Edge, ...]
    special: tuple[int, ...]


class ShapeFlags(NamedTuple):
    simple: bool
    even: bool


def hypergraph(
    n: int, edges: Iterable[Iterable[int]] = (), special: Iterable[int] = ()
) -> Hypergraph:
    """Build a hypergraph, normalizing edges to canonical sorted form.

    Edges of size 1 are accepted; the empty edge is rejected (it would make
    every coloring count zero by fiat rather than by arithmetic).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    canon = _canon_vertex_sets(n, edges, "edge")
    if any(len(e) == 0 for e in canon):
        raise ValueError("empty edges are not allowed")
    sp = sorted(set(int(v) for v in special))
    if any(v < 1 or v > n for v in sp):
        raise ValueError(f"special vertices {sp} outside 1..{n}")
    return Hypergraph(n, canon, tuple(sp))


def validate(g: Hypergraph) -> ShapeFlags:
    """Shape flags: simple (edges >= 2 and inclusion-free) and even sizes."""
    simple = all(len(e) >= 2 for e in g.edges)
    if simple:
        sets = [frozenset(e) for e in g.edges]
        for a, b in itertools.combinations(sets, 2):
            if a <= b or b <= a:
                simple = False
                break
    even = all(len(e) % 2 == 0 for e in g.edges)
    return ShapeFlags(simple=simple, even=even)


def is_simple(g: Hypergraph) -> bool:
    return validate(g).simple


def is_even(g: Hypergraph) -> bool:
    return validate(g).even


def _ints(values: Sequence[int], what: str) -> tuple[int, ...]:
    """values as a tuple, refused unless every entry is an ``int`` (a
    ``bool`` is not one): a float or a string is not silently truncated."""
    values = tuple(values)
    # by type, since a bool is an instance of int
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must be integers, got {values}")
    return values


def check_multiplicities(n: int, m: Sequence[int]) -> tuple[int, ...]:
    """m as a tuple of ints, refused unless it has length n and no negative entry."""
    m = _ints(m, "multiplicities")
    if len(m) != n:
        raise ValueError(f"multiplicity vector has length {len(m)}, need {n}")
    if any(v < 0 for v in m):
        raise ValueError(f"multiplicities must be >= 0, got {m}")
    return m


def _check_trunc(n: int, trunc: Sequence[int], what: str) -> tuple[int, ...]:
    """trunc as a tuple of ints, refused unless it has length n and no negative bound."""
    trunc = _ints(trunc, "truncation bounds")
    if len(trunc) != n:
        raise ValueError(f"truncation vector length must equal {what}")
    if any(t < 0 for t in trunc):
        raise ValueError("truncation bounds must be >= 0")
    return trunc


def marked_independent_vectors(g: Hypergraph, cap: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The multiplicity vectors e <= cap with an edge-free support and
    e_v <= 1 off the special set, ordered by support size, then support,
    then multiplicities.  With cap <= 1 these are the independent sets.

    Charges no budget: each caller charges its own estimate."""
    sp = set(g.special)
    edge_sets = [frozenset(e) for e in g.edges]
    allowed = [v for v in range(1, g.n + 1) if cap[v - 1] >= 1]
    for size in range(len(allowed) + 1):
        for supp in itertools.combinations(allowed, size):
            s = frozenset(supp)
            if any(e <= s for e in edge_sets):
                continue
            ranges = [range(1, cap[v - 1] + 1) if v in sp else (1,) for v in supp]
            for mults in itertools.product(*ranges):
                e = [0] * g.n
                for v, mult in zip(supp, mults):
                    e[v - 1] = mult
                yield tuple(e)


def independent_sets(g: Hypergraph) -> list[Edge]:
    """All edge-free vertex subsets, as sorted tuples in graded lex order."""
    charge(1 << g.n, f"independent-set enumeration over {g.n} vertices")
    return [
        tuple(v for v, mult in enumerate(e, start=1) if mult)
        for e in marked_independent_vectors(g, (1,) * g.n)
    ]


def marked_independence_series(g: Hypergraph, trunc: Sequence[int]) -> TruncatedSeries:
    """I^mark(G, x): coefficient 1 at exactly the marked-independent vectors.

    Equivalent to summing, over independent sets S, the product of x_v for
    plain v in S and x_v/(1-x_v) for special v in S, truncated at trunc.
    """
    trunc = _check_trunc(g.n, trunc, "vertex count")
    charge(math.prod(t + 1 for t in trunc), "truncation-window enumeration")
    terms = dict.fromkeys(marked_independent_vectors(g, trunc), ONE)
    return TruncatedSeries._trusted(g.n, trunc, terms)


# ---------------------------------------------------------------------------
# independence systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceSystem:
    n: int
    members: tuple[Edge, ...]


def independence_system(n: int, members: Iterable[Iterable[int]]) -> IndependenceSystem:
    if n < 0:
        raise ValueError("need n >= 0")
    return IndependenceSystem(n, _canon_vertex_sets(n, members, "member"))


class SystemFlags(NamedTuple):
    simple: bool


def system_validate(a: IndependenceSystem) -> SystemFlags:
    """Check downward closure and the empty member; report simplicity.

    Simple means every singleton belongs to the family.
    """
    members = set(frozenset(m) for m in a.members)
    if frozenset() not in members:
        raise ValueError("independence system must contain the empty set")
    for m in a.members:
        for v in m:
            below = frozenset(set(m) - {v})
            if below not in members:
                raise ValueError(
                    f"not downward closed: {m} is a member but {tuple(sorted(below))} is not"
                )
    simple = all(frozenset((v,)) in members for v in range(1, a.n + 1))
    return SystemFlags(simple=simple)


def hypergraph_from_system(
    a: IndependenceSystem, special: Iterable[int] = ()
) -> Hypergraph:
    """The hypergraph whose edges are the minimal non-members of the family.

    Its independent sets are exactly the members; the special set is carried
    through unchanged.
    """
    system_validate(a)
    charge(1 << a.n, f"subset enumeration over {a.n} ground elements")
    members = set(frozenset(m) for m in a.members)
    edges = []
    for size in range(1, a.n + 1):
        for combo in itertools.combinations(range(1, a.n + 1), size):
            s = frozenset(combo)
            if s in members:
                continue
            if all(s - {v} in members for v in combo):
                edges.append(combo)
    return hypergraph(a.n, edges, special)


def system_series(
    a: IndependenceSystem, special: Iterable[int], trunc: Sequence[int]
) -> TruncatedSeries:
    """I_S(A, x): sum over members, x_i per plain element and the truncated
    geometric series x_i + ... + x_i^trunc[i] per special element.

    Warns when some ground element appears in no member (it can then never
    receive a color and every coefficient touching it is zero).
    """
    trunc = _check_trunc(a.n, trunc, "n")
    sp = sorted(set(int(v) for v in special))
    if any(v < 1 or v > a.n for v in sp):
        raise ValueError(f"special elements {sp} outside 1..{a.n}")
    # validates the system; the gate below compares with its series
    graph = hypergraph_from_system(a, sp)
    covered = set(itertools.chain.from_iterable(a.members))
    missing = sorted(set(range(1, a.n + 1)) - covered)
    if missing:
        warnings.warn(
            f"ground elements {missing} appear in no member; "
            "their variables cannot occur",
            stacklevel=2,
        )
    sp_set = set(sp)
    terms: dict[tuple[int, ...], Fraction] = {}
    for member in a.members:
        ranges = []
        ok = True
        for v in member:
            top = trunc[v - 1]
            if top < 1:
                ok = False
                break
            ranges.append(range(1, top + 1) if v in sp_set else range(1, 2))
        if not ok:
            continue
        for mults in itertools.product(*ranges):
            e = [0] * a.n
            for v, mult in zip(member, mults):
                e[v - 1] = mult
            terms[tuple(e)] = ONE
    direct = TruncatedSeries._trusted(a.n, trunc, terms)
    # the same series through the minimal-non-member hypergraph, as a gate
    if direct != marked_independence_series(graph, trunc):
        raise VerificationError("system series disagrees with its hypergraph route")
    return direct


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def hypergraph_to_json(g: Hypergraph) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "special": list(g.special),
    }


def hypergraph_from_json(obj: Mapping) -> Hypergraph:
    with malformed("hypergraph"):
        return hypergraph(
            json_int(obj["n"]),
            [json_ints(e) for e in obj["edges"]],
            json_ints(obj.get("special", [])),
        )


def system_from_json(obj: Mapping) -> IndependenceSystem:
    with malformed("independence-system"):
        return independence_system(json_int(obj["n"]), [json_ints(m) for m in obj["members"]])
