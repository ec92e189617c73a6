"""Hypergraphs with special vertices, and independence systems.

A hypergraph on vertices 1..n is a family of nonempty edges (vertex sets,
stored as sorted tuples) together with a set of special vertices.  Special
vertices are the ones allowed to repeat colors in marked colorings; they play
no role in plain independence.  Every walk over independent vectors is one
enumerator on vertex bitmasks, ``marked_independent_vectors``, whose supports
come from ``vertex_sets``, the subset table that the scan shares.

An independence system is a downward-closed family of subsets of 1..n
containing the empty set.  Its members are exactly the independent sets of
the hypergraph whose edges are the minimal non-members.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .budget import charge
from .errors import VerificationError, json_array, malformed, natural, vector, vertex_set
from .series import TruncatedSeries

Edge = tuple[int, ...]


def _canon_vertex_sets(n: int, sets: Iterable[Iterable[int]], what: str) -> tuple[Edge, ...]:
    out = {vertex_set(raw, n, f"{what} vertices") for raw in sets}
    return tuple(sorted(out, key=lambda e: (len(e), e)))


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[Edge, ...]
    special: tuple[int, ...]


def hypergraph(
    n: int, edges: Iterable[Iterable[int]] = (), special: Iterable[int] = ()
) -> Hypergraph:
    """Build a hypergraph, normalizing edges to canonical sorted form.

    Edges of size 1 are accepted; the empty edge is rejected (it would make
    every coloring count zero by fiat rather than by arithmetic).
    """
    n = natural(n, "vertex count")
    canon = _canon_vertex_sets(n, edges, "edge")
    if any(len(e) == 0 for e in canon):
        raise ValueError("empty edges are not allowed")
    return Hypergraph(n, canon, vertex_set(special, n, "special vertices"))


def is_simple(g: Hypergraph) -> bool:
    """Every edge has at least two vertices and lies inside no other edge."""
    sets = [frozenset(e) for e in g.edges]
    return all(len(e) >= 2 for e in sets) and not any(
        a <= b or b <= a for a, b in itertools.combinations(sets, 2)
    )


def is_even(g: Hypergraph) -> bool:
    """Every edge has an even number of vertices."""
    return all(len(e) % 2 == 0 for e in g.edges)


def _lift(
    n: int, supp: Sequence[int], special: Container[int], cap: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The vectors on n variables with support supp, e_v in 1..cap[v - 1]
    at special v and e_v = 1 at the others, in lex order of supp's entries."""
    ranges = [range(1, cap[v - 1] + 1) if v in special else (1,) for v in supp]
    for mults in itertools.product(*ranges):
        e = [0] * n
        for v, mult in zip(supp, mults):
            e[v - 1] = mult
        yield tuple(e)


def _subsets(n: int) -> Iterator[tuple[int, Edge]]:
    for size in range(1, n + 1):
        for e in itertools.combinations(range(1, n + 1), size):
            yield sum(1 << (v - 1) for v in e), e


def vertex_sets(n: int) -> Iterable[tuple[int, Edge]]:
    """Every nonempty subset of {1..n} as (mask, sorted tuple), ordered by
    size then lexicographically, the order of a hypergraph's edges.  Up to 12
    vertices (4,095 subsets) the table is kept; over more, the subsets are
    generated as they are read."""
    return _vertex_table(n) if n <= 12 else _subsets(n)


# bounded: a scan meets each n once, an enumeration its count of capped vertices
@lru_cache(maxsize=8)
def _vertex_table(n: int) -> tuple[tuple[int, Edge], ...]:
    return tuple(_subsets(n))


def marked_independent_vectors(g: Hypergraph, cap: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The multiplicity vectors e <= cap with an edge-free support and
    e_v <= 1 off the special set, ordered by support size, then support,
    then multiplicities.  With cap <= 1 these are the independent sets.

    The supports are bitmasks over the k vertices whose cap is >= 1, from
    ``vertex_sets(k)``: the walk costs 2^k, not 2^n, and an edge through a
    vertex of cap 0 is in no support.  Charges no budget: each caller
    charges its own estimate."""
    allowed = [v for v in range(1, g.n + 1) if cap[v - 1] >= 1]
    bit = {v: 1 << i for i, v in enumerate(allowed)}
    where = [bit.get(v, 0) for v in range(1, g.n + 1)]
    edges = [sum(map(bit.get, e)) for e in g.edges if all(v in bit for v in e)]
    marked = sum(bit[v] for v in g.special if v in bit)
    yield (0,) * g.n
    for mask, supp in vertex_sets(len(allowed)):
        for f in edges:
            if f & mask == f:
                break
        else:
            if mask & marked:
                yield from _lift(g.n, [allowed[i - 1] for i in supp], g.special, cap)
            else:
                yield tuple([1 if mask & b else 0 for b in where])


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
    trunc = vector(trunc, g.n, "truncation bounds")
    charge(math.prod(t + 1 for t in trunc), "truncation-window enumeration")
    terms = dict.fromkeys(marked_independent_vectors(g, trunc), 1)
    return TruncatedSeries._trusted(g.n, trunc, terms)


# ---------------------------------------------------------------------------
# independence systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceSystem:
    n: int
    members: tuple[Edge, ...]


def independence_system(n: int, members: Iterable[Iterable[int]]) -> IndependenceSystem:
    n = natural(n, "ground set size")
    return IndependenceSystem(n, _canon_vertex_sets(n, members, "member"))


class SystemFlags(NamedTuple):
    simple: bool


def system_validate(a: IndependenceSystem) -> SystemFlags:
    """Check downward closure and the empty member; report simplicity.

    Simple means every singleton belongs to the family.
    """
    members = set(a.members)
    if () not in members:
        raise ValueError("independence system must contain the empty set")
    for m in a.members:
        for v in m:
            below = tuple(u for u in m if u != v)
            if below not in members:
                raise ValueError(f"not downward closed: {m} is a member but {below} is not")
    return SystemFlags(simple=all((v,) in members for v in range(1, a.n + 1)))


def hypergraph_from_system(
    a: IndependenceSystem, special: Iterable[int] = ()
) -> Hypergraph:
    """The hypergraph whose edges are the minimal non-members of the family.

    Its independent sets are exactly the members; the special set is carried
    through unchanged.
    """
    system_validate(a)
    charge(1 << a.n, f"subset enumeration over {a.n} ground elements")
    members = {sum(1 << (v - 1) for v in m) for m in a.members}
    edges = [
        e
        for mask, e in vertex_sets(a.n)
        if mask not in members and all(mask ^ 1 << (v - 1) in members for v in e)
    ]
    return hypergraph(a.n, edges, special)


def system_series(
    a: IndependenceSystem, special: Iterable[int], trunc: Sequence[int]
) -> TruncatedSeries:
    """I_S(A, x): sum over members, x_i per plain element and the truncated
    geometric series x_i + ... + x_i^trunc[i] per special element.

    Warns when some ground element appears in no member (it can then never
    receive a color and every coefficient touching it is zero).
    """
    trunc = vector(trunc, a.n, "truncation bounds")
    sp = vertex_set(special, a.n, "special elements")
    # validates the system; the gate below compares with its series
    graph = hypergraph_from_system(a, sp)
    covered = set(itertools.chain.from_iterable(a.members))
    missing = sorted(set(range(1, a.n + 1)) - covered)
    if missing:
        warnings.warn(
            f"ground elements {missing} appear in no member; their variables cannot occur",
            stacklevel=2,
        )
    # a member that meets a zero of trunc gives no term
    terms = {
        e: 1
        for member in a.members
        if all(trunc[v - 1] for v in member)
        for e in _lift(a.n, member, sp, trunc)
    }
    direct = TruncatedSeries._trusted(a.n, trunc, terms)
    # the same series through the minimal-non-member hypergraph, as a gate
    if direct != marked_independence_series(graph, trunc):
        raise VerificationError("system series disagrees with its hypergraph route")
    return direct


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def hypergraph_to_json(g: Hypergraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges], "special": list(g.special)}


def hypergraph_from_json(obj: Mapping) -> Hypergraph:
    with malformed("hypergraph"):
        edges = json_array(obj["edges"], "edges", 2)
        return hypergraph(obj["n"], edges, json_array(obj.get("special", []), "special"))


def system_from_json(obj: Mapping) -> IndependenceSystem:
    with malformed("independence-system"):
        return independence_system(obj["n"], json_array(obj["members"], "members", 2))
