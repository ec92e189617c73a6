"""Non-negativity scanning for inverted independence series.

For a hypergraph G with no special vertices, the series 1/I(G, -x) is
conjectured to have non-negative coefficients exactly when every edge has
even size.  This module checks single hypergraphs within an explicit
truncation window, produces the odd-edge witness coefficient, and runs
exhaustive scans over all simple hypergraphs on up to n vertices, streaming
verdicts to a resumable JSON-lines report.

A scan works on vertex bitmasks.  A labelled edge family is one int, its
key (``_family_key``), and the enumeration walks keys, testing two edges for
incomparability on their masks.  Per-n tables of permuted vertex masks give
a family's orbit, its permuted keys, built once per isomorphism class for
both its canonical form (the least decoded family) and the class table.
Only a class's first member becomes a ``Hypergraph``.  The sign check writes
(-1)^|e| at each independent vector e into the dense window and inverts
there in integers, entry by entry in lex order up to the first negative.

A verdict only certifies coefficients inside its truncation window; "nonneg"
means no negative coefficient was found up to the window, not a proof for the
full series.  A negative finding, by contrast, is final: it persists under
any larger window, and each one is re-verified through an independent
counting formula before it is reported.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import __version__
from .budget import charge
from .chromatic import marked_chromatic_poly
from .errors import Frozen, VerificationError, natural, vector
from .hypergraph import (
    Hypergraph, hypergraph, is_even, is_simple, marked_independent_vectors, vertex_sets,
)
from .series import dense_window

# Dedekind numbers: antichain counts over the full power set of [n], an upper
# bound for the number of simple hypergraphs on [n] (whose edge families are
# antichains of sets of size >= 2)
_ANTICHAIN_BOUNDS = [2, 3, 6, 20, 168, 7581, 7828354, 2414682040998]


class CheckResult(NamedTuple):
    nonneg: bool
    neg_at: Optional[tuple[int, ...]]
    coeff: Optional[int]


def _signed_inverse(
    g: Hypergraph, window: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(e, [x^e] 1/I(G, -x)) for every e of the window, lazily in lex order.
    I(G, -x) has (-1)^|e| at each independent vector e, written straight
    into the dense window; with no special vertex its constant term is 1,
    so the inverse stays in integers."""
    w = dense_window(window)  # charges the window's size on every call
    x = [0] * len(w.packs)
    for e in marked_independent_vectors(g, window):
        x[sum(map(operator.mul, e, w.strides))] = -1 if sum(e) % 2 else 1
    return zip(w.exponents(), w.inverse_entries(x))


def inverse_nonneg_check(g: Hypergraph, window: Sequence[int]) -> CheckResult:
    """Scan the coefficients of 1/I(G, -x) up to the window in lex order,
    each computed only when reached, and stop at the first negative.

    Returns the non-negativity flag together with the lexicographically
    first negative exponent and its coefficient, if one exists.  A found
    negative is re-verified against the marked chromatic polynomial at
    q = -1 before being reported.
    """
    if g.special:
        raise ValueError("non-negativity check needs a hypergraph with no special vertices")
    window = vector(window, g.n, "window bounds")
    for e, c in _signed_inverse(g, window):
        if c < 0:
            _recheck_negative(g, e, c)
            return CheckResult(False, e, c)
    return CheckResult(True, None, None)


def _recheck_negative(g: Hypergraph, m: tuple[int, ...], claimed: int) -> None:
    """Independent recount of one inverse coefficient: by the series identity
    at q = -1, [x^m] 1/I(G, x) is P_m(-1), which the block-partition formula
    gives with no series inverted; 1/I(G, -x) carries the sign of |m|."""
    value = (-1) ** sum(m) * marked_chromatic_poly(g, m).eval(-1)
    if value != claimed:
        raise VerificationError(
            f"inverse coefficient at {m} is {claimed} by series inversion "
            f"but {value} by block counting"
        )


def odd_edge_witness(g: Hypergraph) -> Optional[tuple[tuple[int, ...], int]]:
    """The obstruction certificate for a simple hypergraph with an odd edge
    and no special vertex; any other hypergraph is refused.

    Takes the first odd-size edge e (edges are kept sorted by size then
    lexicographically).  No other edge lies inside e, so the inverse
    coefficient at exponent 2 on each of its vertices is that of e alone,
    2 + (-2)^|e|, negative for odd |e| >= 3.  Returns None when every edge
    has even size.
    """
    if g.special or not is_simple(g):
        raise ValueError("odd-edge witness needs a simple hypergraph with no special vertices")
    e = next((e for e in g.edges if len(e) % 2), None)
    if e is None:
        return None
    r = len(e)
    top = (2,) * r
    value = dict(_signed_inverse(hypergraph(r, [tuple(range(1, r + 1))]), top))[top]
    expected = 2 + (-2) ** r
    if value != expected:
        raise VerificationError(
            f"witness coefficient for an edge of size {r} is {value} by series "
            f"inversion but {expected} in closed form"
        )
    return e, value


# ---------------------------------------------------------------------------
# labelled families as bitmasks, and their orbits
# ---------------------------------------------------------------------------


def _family_key(edges: Iterable[Sequence[int]]) -> int:
    """A labelled edge family as one int: bit mask(e) set for each edge e,
    where mask(e) is the vertex bitmask of e."""
    return sum(1 << sum(1 << (v - 1) for v in e) for e in edges)


def _decode(n: int, key: int) -> tuple[tuple[int, ...], ...]:
    """The edge family with the given key, in hypergraph order."""
    # built from a list: tuple() of a generator shrinks the tuple it filled,
    # and CPython's free lists then keep up to 2,000 such tuples per size
    return tuple([e for mask, e in vertex_sets(n) if key >> mask & 1])


@lru_cache(maxsize=2)
def _mask_images(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of the n vertices, the image of every vertex
    mask: n! * 2^n entries, which ``_orbit`` charges."""
    return tuple(
        tuple(sum(1 << perm[v] for v in range(n) if mask >> v & 1) for mask in range(1 << n))
        for perm in itertools.permutations(range(n))
    )


# one entry: a scan reads each class's orbit twice in a row (canonical form, table)
@lru_cache(maxsize=1)
def _orbit(n: int, key: int) -> frozenset[int]:
    """The keys of the family with the given key under every vertex
    permutation.  The tables are charged before they can be built; a cached
    orbit was computed under the same budget and is returned uncharged."""
    charge(math.factorial(n) << n, f"relabeling tables for {n} vertices")
    masks = [mask for mask in range(1, 1 << n) if key >> mask & 1]
    return frozenset([sum([1 << image[mask] for mask in masks]) for image in _mask_images(n)])


def _families(n: int) -> Iterator[int]:
    """The keys of all simple hypergraphs on {1..n}, in the order of
    ``enumerate_simple_hypergraphs``: a recursion over the candidate edges
    (size >= 2, in hypergraph order) that leaves each candidate out before
    taking it in, when it is incomparable with every chosen edge."""
    masks = [mask for mask, e in vertex_sets(n) if len(e) >= 2]

    def rec(idx: int, key: int, chosen: list[int]) -> Iterator[int]:
        if idx == len(masks):
            yield key
            return
        yield from rec(idx + 1, key, chosen)
        a = masks[idx]
        if all(a & b not in (a, b) for b in chosen):
            chosen.append(a)
            yield from rec(idx + 1, key | 1 << a, chosen)
            chosen.pop()

    return rec(0, 0, [])


def enumerate_simple_hypergraphs(n: int) -> Iterator[Hypergraph]:
    """All simple hypergraphs on the vertex set {1..n}: every family of
    pairwise incomparable edges of size >= 2, including the edgeless one.
    Deterministic order."""
    n = natural(n, "vertex count")
    for key in _families(n):
        # decoded edges are distinct sorted tuples in hypergraph order
        yield Hypergraph(n, _decode(n, key), ())


def canonical_form(g: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimal relabeling of the edge family over all vertex permutations,
    each relabeling sorted by size then lexicographically.  Two hypergraphs
    on the same number of vertices are isomorphic exactly when their
    canonical forms coincide."""
    if g.special:
        raise ValueError("canonical form is defined for hypergraphs with no special vertices")
    return (g.n, min(_decode(g.n, key) for key in _orbit(g.n, _family_key(g.edges))))


class Verdict(NamedTuple):
    canon: tuple[int, tuple[tuple[int, ...], ...]]
    even: bool
    nonneg: bool
    neg_at: Optional[tuple[int, ...]]
    coeff: Optional[int]


def verdict_to_json_line(v: Verdict) -> str:
    obj = {
        "canon": [v.canon[0], [list(e) for e in v.canon[1]]],
        "even": v.even,
        "nonneg": v.nonneg,
        "neg_at": list(v.neg_at) if v.neg_at is not None else None,
        "coeff": str(v.coeff) if v.coeff is not None else None,
    }
    return json.dumps(obj, separators=(",", ":"))


def _canon_key(canon: tuple[int, tuple[tuple[int, ...], ...]]) -> str:
    return json.dumps([canon[0], [list(e) for e in canon[1]]], separators=(",", ":"))


def report_header(m_per_var: int) -> str:
    """First line of a report: the version and the window its verdicts hold for."""
    return json.dumps({"version": __version__, "window": m_per_var}, separators=(",", ":"))


def _recorded_keys(path: str, header: str) -> set[str]:
    """Canonical forms recorded in an existing report, which must start with
    ``header``.  A torn last line (no newline, as a killed run leaves it) is
    cut off the file, so that its hypergraph is checked again."""
    with open(path, "rb") as fh:
        data = fh.read()
    kept = data[: data.rfind(b"\n") + 1]
    lines = kept.decode().splitlines()
    if lines and lines[0] != header:
        raise ValueError(
            f"report {path} starts with {lines[0][:80]!r}, not the header {header!r} "
            "of this version and window"
        )
    if len(kept) < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(len(kept))
    keys = set()
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            keys.add(json.dumps(obj["canon"], separators=(",", ":")))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt report line in {path}: {line[:80]}") from exc
    return keys


def _work(item: tuple[int, tuple[tuple[int, ...], ...], int]) -> CheckResult:
    n, edges, m_per_var = item
    return inverse_nonneg_check(hypergraph(n, edges), (m_per_var,) * n)


def _verdict(item: tuple[int, tuple[tuple[int, ...], ...], int]) -> Verdict:
    """The verdict on one class, checked by the module's ``_work``."""
    return Verdict(item[:2], is_even(Hypergraph(*item[:2], ())), *_work(item))


class ScanReport(Frozen):
    __slots__ = ("n_max", "m_per_var", "dedup", "verdicts", "skipped", "elapsed")
    __setattr__ = object.__setattr__  # unlike a value's, filled in as the scan runs

    def __init__(self, n_max: int, m_per_var: int, dedup: bool) -> None:
        self.__setstate__((n_max, m_per_var, dedup, [], 0, 0.0))

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def even_total(self) -> int:
        return sum(v.even for v in self.verdicts)

    @property
    def odd_total(self) -> int:
        return self.total - self.even_total

    @property
    def even_failures(self) -> list[str]:
        """Keys of the even hypergraphs with a negative coefficient."""
        return [_canon_key(v.canon) for v in self.verdicts if v.even and not v.nonneg]

    @property
    def odd_passes(self) -> list[str]:
        """Keys of the odd-edged hypergraphs with no negative found."""
        return [_canon_key(v.canon) for v in self.verdicts if not v.even and v.nonneg]

    def summary(self) -> str:
        return (
            f"scanned {self.total} hypergraphs (n<={self.n_max}, window {self.m_per_var} "
            f"per vertex, dedup={'on' if self.dedup else 'off'}, {self.skipped} skipped): "
            f"{self.even_total} even all nonneg apart from {len(self.even_failures)}, "
            f"{self.odd_total} odd-edged all negative apart from {len(self.odd_passes)}; "
            f"{self.elapsed:.1f}s"
        )


def scan_hypergraphs(
    n_max: int,
    m_per_var: int = 2,
    dedup: bool = True,
    out: str | os.PathLike[str] | None = None,
    resume: bool = False,
    workers: int = 1,
) -> ScanReport:
    """Check 1/I(G, -x) >= 0 within the window for every simple hypergraph
    on up to n_max vertices.

    Each class is checked when the walk meets it, and its verdict written to
    ``out`` at once, as a JSON line after a header line (``report_header``)
    that an existing report must already start with; with ``resume`` the
    canonical forms recorded there are skipped, so interrupted scans can
    continue by rerunning the same command.  ``dedup`` skips isomorphic
    duplicates inside the run.  ``workers`` > 1 distributes the per-
    hypergraph checks over a process pool of at most that many processes,
    and no more than there are hypergraphs to check or cores; the verdict
    order stays the deterministic enumeration order either way.
    """
    natural(n_max, "n_max")
    natural(m_per_var, "m_per_var")
    if natural(workers, "workers") < 1:
        raise ValueError("need workers >= 1")
    if resume and out is None:
        raise ValueError("resume needs an output file")
    # past the table the estimate is 2^63, above any budget
    bounds = _ANTICHAIN_BOUNDS[1 : n_max + 1] if n_max < len(_ANTICHAIN_BOUNDS) else [1 << 63]
    charge(sum(bounds), f"hypergraph scan up to n={n_max}")

    start = time.monotonic()
    report = ScanReport(n_max=n_max, m_per_var=m_per_var, dedup=dedup)

    header = report_header(m_per_var)
    out_path = os.fspath(out) if out is not None else None
    # appended verdicts, too, must share the window of the report's header
    recorded = _recorded_keys(out_path, header) if out_path and os.path.exists(out_path) else set()
    # opened before the walk, line-buffered: a killed scan keeps every verdict it wrote
    fh = open(out_path, "a", buffering=1) if out_path is not None else None

    failure: list[Exception] = []  # held: raised on a pool's thread, it loses a chunk

    def classes() -> Iterator[tuple[int, tuple[tuple[int, ...], ...], int]]:
        # yields each class to check when the walk meets its first member;
        # ``seen`` maps the class's other labelled families on this n to
        # (canonical form, report key), each popped when the walk reaches it
        try:
            for n in range(1, n_max + 1):
                seen: dict[int, tuple[tuple[int, tuple[tuple[int, ...], ...]], str]] = {}
                for labelled in _families(n):
                    entry = seen.pop(labelled, None)
                    if first := entry is None:
                        canon = canonical_form(Hypergraph(n, _decode(n, labelled), ()))
                        entry = (canon, _canon_key(canon))
                        seen.update(dict.fromkeys(_orbit(n, labelled), entry))
                        del seen[labelled]
                    (_, edges), key = entry
                    if resume and key in recorded:
                        report.skipped += 1
                    elif first or not dedup:
                        yield n, edges, m_per_var
        except Exception as exc:
            failure.append(exc)

    pool = None
    try:
        if fh is not None and fh.tell() == 0:
            fh.write(header + "\n")
        walk = classes()
        # no more processes than classes to check or cores
        head = list(itertools.islice(walk, min(workers, os.cpu_count() or 1)))
        if len(head) <= 1:
            verdicts = map(_verdict, itertools.chain(head, walk))
        else:
            from multiprocessing import Pool  # loaded only by a scan that starts processes
            pool = Pool(len(head))  # whose task thread runs the rest of the walk
            verdicts = pool.imap(_verdict, itertools.chain(head, walk), chunksize=16)
        for v in verdicts:
            report.verdicts.append(v)
            if fh is not None:
                fh.write(verdict_to_json_line(v) + "\n")
        if failure:  # raised once every verdict before it is written
            raise failure[0]
    except BaseException:
        if pool is not None:
            pool.terminate()  # stops the walk too, rather than finish it
        raise
    finally:
        if fh is not None:
            fh.close()
        if pool is not None:
            pool.close()
            pool.join()

    report.elapsed = time.monotonic() - start
    return report
