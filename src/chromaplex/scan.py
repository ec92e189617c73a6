"""Non-negativity scanning for inverted independence series.

For a hypergraph G with no special vertices, the series 1/I(G, -x) is
conjectured to have non-negative coefficients exactly when every edge has
even size.  This module checks single hypergraphs within an explicit
truncation window, produces the odd-edge witness coefficient, and runs
exhaustive scans over all simple hypergraphs on up to n vertices, streaming
verdicts to a resumable JSON-lines report.

A verdict only certifies coefficients inside its truncation window; "nonneg"
means no negative coefficient was found up to the window, not a proof for the
full series.  A negative finding, by contrast, is final: it persists under
any larger window, and each one is re-verified through an independent
counting formula before it is reported.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import __version__
from .budget import charge
from .chromatic import _ordered_block_counts
from .errors import VerificationError, int_tuple
from .hypergraph import Hypergraph, hypergraph, is_even, marked_independence_series
from .series import fraction_to_str, series_inverse

# Dedekind numbers: antichain counts over the full power set of [n], an upper
# bound for the number of simple hypergraphs on [n] (whose edge families are
# antichains of sets of size >= 2)
_ANTICHAIN_BOUNDS = [2, 3, 6, 20, 168, 7581, 7828354, 2414682040998]


class CheckResult(NamedTuple):
    nonneg: bool
    neg_at: Optional[tuple[int, ...]]
    coeff: Optional[Fraction]


def inverse_nonneg_check(g: Hypergraph, window: Sequence[int]) -> CheckResult:
    """Scan every coefficient of 1/I(G, -x) up to the window.

    Returns the non-negativity flag together with the lexicographically
    first negative exponent and its coefficient, if one exists.  A found
    negative is re-verified against the alternating block-count sum before
    being reported.
    """
    if g.special:
        raise ValueError("non-negativity check needs a hypergraph with no special vertices")
    window = int_tuple(window, "window bounds")
    if len(window) != g.n or any(v < 0 for v in window):
        raise ValueError(f"bad truncation window {window} for n={g.n}")
    # with no special vertex this inverts I(G, x); substituting -x
    # multiplies the coefficient at e by (-1)^|e|
    inv = series_inverse(marked_independence_series(g, window)).terms
    for e in sorted(inv):
        c = -inv[e] if sum(e) % 2 else inv[e]
        if c < 0:
            _recheck_negative(g, e, c)
            return CheckResult(False, e, c)
    return CheckResult(True, None, None)


def _recheck_negative(g: Hypergraph, m: tuple[int, ...], claimed: Fraction) -> None:
    """Independent recount of one inverse coefficient: the alternating sum
    of ordered block-partition counts, carrying the sign of |m|."""
    acc = sum((-1) ** k * count for k, count in _ordered_block_counts(g, m).items())
    value = Fraction((-1) ** sum(m) * acc)
    if value != claimed:
        raise VerificationError(
            f"inverse coefficient at {m} is {claimed} by series inversion "
            f"but {value} by block counting"
        )


def odd_edge_witness(g: Hypergraph) -> Optional[tuple[tuple[int, ...], int]]:
    """The obstruction certificate for hypergraphs with an odd edge.

    Takes the first odd-size edge e (edges are kept sorted by size then
    lexicographically), restricts to that single edge, and returns the
    inverse coefficient at exponent 2 on each of its vertices, which equals
    2 + (-2)^|e| and is negative for odd |e| >= 3.  Returns None when every
    edge has even size.
    """
    e = next((e for e in g.edges if len(e) % 2), None)
    if e is None:
        return None
    r = len(e)
    h = hypergraph(r, [tuple(range(1, r + 1))])
    # (2,...,2) has even degree, where 1/I(h, -x) and 1/I(h, x) agree
    inv = series_inverse(marked_independence_series(h, (2,) * r))
    value = inv.terms.get((2,) * r, Fraction(0))
    expected = 2 + (-2) ** r
    if value != expected:
        raise VerificationError(
            f"witness coefficient for an edge of size {r} is {value} by series "
            f"inversion but {expected} in closed form"
        )
    return e, int(value)


# ---------------------------------------------------------------------------
# exhaustive enumeration and scanning
# ---------------------------------------------------------------------------


def enumerate_simple_hypergraphs(n: int) -> Iterator[Hypergraph]:
    """All simple hypergraphs on the vertex set {1..n}: every family of
    pairwise incomparable edges of size >= 2, including the edgeless one.
    Deterministic order."""
    if n < 0:
        raise ValueError("need n >= 0")
    candidates = []
    for size in range(2, n + 1):
        candidates.extend(itertools.combinations(range(1, n + 1), size))
    candidates.sort(key=lambda e: (len(e), e))
    sets = [frozenset(e) for e in candidates]

    def rec(idx: int, chosen: list[int]) -> Iterator[Hypergraph]:
        if idx == len(candidates):
            yield hypergraph(n, [candidates[i] for i in chosen])
            return
        yield from rec(idx + 1, chosen)
        s = sets[idx]
        if all(not (sets[i] <= s or s <= sets[i]) for i in chosen):
            chosen.append(idx)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def _relabelings(g: Hypergraph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The edge family of g under every vertex permutation, each sorted by
    size then lexicographically (with repeats where g has automorphisms)."""
    for perm in itertools.permutations(range(1, g.n + 1)):
        yield tuple(
            sorted(
                (tuple(sorted(perm[v - 1] for v in e)) for e in g.edges),
                key=lambda e: (len(e), e),
            )
        )


def canonical_form(g: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimal relabeling of the edge family over all vertex permutations.
    Two hypergraphs on the same number of vertices are isomorphic exactly
    when their canonical forms coincide."""
    if g.special:
        raise ValueError("canonical form is defined for hypergraphs with no special vertices")
    return (g.n, min(_relabelings(g)))


def _family_key(edges: Iterable[Sequence[int]]) -> int:
    """A labelled edge family as one int: bit mask(e) set for each edge e,
    where mask(e) is the vertex bitmask of e."""
    return sum(1 << sum(1 << (v - 1) for v in e) for e in edges)


class Verdict(NamedTuple):
    canon: tuple[int, tuple[tuple[int, ...], ...]]
    even: bool
    nonneg: bool
    neg_at: Optional[tuple[int, ...]]
    coeff: Optional[Fraction]


def verdict_to_json_line(v: Verdict) -> str:
    obj = {
        "canon": [v.canon[0], [list(e) for e in v.canon[1]]],
        "even": v.even,
        "nonneg": v.nonneg,
        "neg_at": list(v.neg_at) if v.neg_at is not None else None,
        "coeff": fraction_to_str(v.coeff) if v.coeff is not None else None,
    }
    return json.dumps(obj, separators=(",", ":"))


def _canon_key(canon: tuple[int, tuple[tuple[int, ...], ...]]) -> str:
    return json.dumps([canon[0], [list(e) for e in canon[1]]], separators=(",", ":"))


def report_header(m_per_var: int) -> str:
    """First line of a report: the version and the window its verdicts hold for."""
    return json.dumps({"version": __version__, "window": m_per_var}, separators=(",", ":"))


def _recorded_keys(path: Path, header: str) -> set[str]:
    """Canonical forms recorded in an existing report, which must start with
    ``header``.  A torn last line (no newline, as a killed run leaves it) is
    cut off the file, so that its hypergraph is checked again."""
    data = path.read_bytes()
    kept = data[: data.rfind(b"\n") + 1]
    lines = kept.decode().splitlines()
    if lines and lines[0] != header:
        raise ValueError(
            f"report {path} starts with {lines[0][:80]!r}, not the header {header!r} "
            "of this version and window"
        )
    if len(kept) < len(data):
        with path.open("r+b") as fh:
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


@dataclass
class ScanReport:
    n_max: int
    m_per_var: int
    dedup: bool
    verdicts: list[Verdict] = field(default_factory=list)
    even_total: int = 0
    odd_total: int = 0
    even_failures: list[str] = field(default_factory=list)
    odd_passes: list[str] = field(default_factory=list)
    skipped: int = 0
    elapsed: float = 0.0

    @property
    def total(self) -> int:
        return len(self.verdicts)

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
    out: str | Path | None = None,
    resume: bool = False,
    workers: int = 1,
) -> ScanReport:
    """Check 1/I(G, -x) >= 0 within the window for every simple hypergraph
    on up to n_max vertices.

    Verdicts stream to ``out`` as JSON lines when given, after a header line
    (``report_header``) that an existing report must already start with; with
    ``resume`` the canonical forms recorded there are skipped, so interrupted
    scans can continue by rerunning the same command.  ``dedup`` skips isomorphic
    duplicates inside the run.  ``workers`` > 1 distributes the per-
    hypergraph checks over a process pool of at most that many processes,
    and no more than there are hypergraphs to check or cores; the verdict
    order stays the deterministic enumeration order either way.
    """
    int_tuple((n_max, m_per_var, workers), "n_max, m_per_var and workers")
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    if m_per_var < 0:
        raise ValueError("need m_per_var >= 0")
    if workers < 1:
        raise ValueError("need workers >= 1")
    if resume and out is None:
        raise ValueError("resume needs an output file")
    if n_max >= len(_ANTICHAIN_BOUNDS):
        charge(1 << 62, f"hypergraph scan up to n={n_max}")
    charge(
        sum(_ANTICHAIN_BOUNDS[n] for n in range(1, n_max + 1)),
        f"hypergraph scan up to n={n_max}",
    )

    start = time.monotonic()
    report = ScanReport(n_max=n_max, m_per_var=m_per_var, dedup=dedup)

    header = report_header(m_per_var)
    recorded: set[str] = set()
    out_path = Path(out) if out is not None else None
    if out_path is not None and out_path.exists():
        # appended verdicts, too, must share the window of the report's header
        recorded = _recorded_keys(out_path, header)

    items: list[tuple[int, tuple[tuple[int, ...], ...], int]] = []
    entries: list[tuple[tuple[int, tuple[tuple[int, ...], ...]], bool]] = []
    seen: set[str] = set()
    for n in range(1, n_max + 1):
        # labelled family -> (canonical form, its key), filled with every
        # relabeling when a class is first met; each labelled hypergraph is
        # enumerated once, so its entry is popped when looked up
        classes: dict[int, tuple[tuple[int, tuple[tuple[int, ...], ...]], str]] = {}
        for g in enumerate_simple_hypergraphs(n):
            labelled = _family_key(g.edges)
            entry = classes.pop(labelled, None)
            if entry is None:
                canon = canonical_form(g)
                entry = (canon, _canon_key(canon))
                classes.update(dict.fromkeys(map(_family_key, _relabelings(g)), entry))
                del classes[labelled]
            canon, key = entry
            if resume and key in recorded:
                report.skipped += 1
                continue
            if dedup:
                if key in seen:
                    continue
                seen.add(key)
            items.append((canon[0], canon[1], m_per_var))
            entries.append((canon, is_even(g)))

    procs = min(workers, len(items), os.cpu_count() or 1)
    if procs <= 1:
        results = map(_work, items)
    else:
        pool = Pool(procs)
        results = pool.imap(_work, items, chunksize=16)

    fh = out_path.open("a") if out_path is not None else None
    try:
        if fh is not None and fh.tell() == 0:
            fh.write(header + "\n")
        for (canon, even), res in zip(entries, results):
            v = Verdict(canon, even, *res)
            report.verdicts.append(v)
            if even:
                report.even_total += 1
                if not v.nonneg:
                    report.even_failures.append(_canon_key(canon))
            else:
                report.odd_total += 1
                if v.nonneg:
                    report.odd_passes.append(_canon_key(canon))
            if fh is not None:
                fh.write(verdict_to_json_line(v) + "\n")
    finally:
        if fh is not None:
            fh.close()
        if procs > 1:
            pool.close()
            pool.join()

    report.elapsed = time.monotonic() - start
    return report
