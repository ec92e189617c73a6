import gc
import hashlib
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from chromaplex import budget
from chromaplex.errors import BudgetError, VerificationError
from chromaplex.hypergraph import hypergraph, marked_independence_series
import chromaplex.scan as scan_module
import chromaplex.series as series_module
from chromaplex.scan import (
    _families,
    _family_key,
    _orbit,
    _recorded_keys,
    canonical_form,
    enumerate_simple_hypergraphs,
    inverse_nonneg_check,
    odd_edge_witness,
    scan_hypergraphs,
    report_header,
    verdict_to_json_line,
)
from chromaplex.series import DenseWindow, QPolynomial, series_inverse
from helpers import (
    canonical_form_oracle,
    inverse_nonneg_oracle,
    random_hypergraph,
    relabelings_oracle,
    simple_hypergraphs_oracle,
)


def test_signed_series_single_edge():
    g = hypergraph(2, [(1, 2)])
    s = marked_independence_series(g, (2, 2))
    assert s.terms[(0, 0)] == 1
    assert s.terms[(1, 0)] == 1
    assert s.terms[(0, 1)] == 1
    assert (1, 1) not in s.terms
    inv = series_inverse(s)
    for a in range(3):
        for b in range(3):
            # [x^(a,b)] 1/I(G, -x) is (-1)^(a+b) [x^(a,b)] 1/I(G, x)
            signed = (-1) ** (a + b) * inv.terms.get((a, b), Fraction(0))
            assert signed == math.comb(a + b, a)


def test_check_even_edge_nonneg():
    g = hypergraph(2, [(1, 2)])
    res = inverse_nonneg_check(g, (4, 4))
    assert res.nonneg
    assert res.neg_at is None
    assert res.coeff is None
    g4 = hypergraph(4, [(1, 2, 3, 4)])
    res4 = inverse_nonneg_check(g4, (2, 2, 2, 2))
    assert res4.nonneg
    # at an exponent of even degree 1/I(G, -x) and 1/I(G, x) agree
    inv = series_inverse(marked_independence_series(g4, (2, 2, 2, 2)))
    assert inv.terms[(2, 2, 2, 2)] == 18


def test_check_odd_edge_negative():
    g = hypergraph(3, [(1, 2, 3)])
    res = inverse_nonneg_check(g, (2, 2, 2))
    assert not res.nonneg
    assert res.neg_at == (1, 1, 2)
    assert res.coeff == -1
    inv = series_inverse(marked_independence_series(g, (2, 2, 2)))
    assert inv.terms[(2, 2, 2)] == -6
    assert inv.terms.get((1, 1, 1), Fraction(0)) == 0


def test_check_validation():
    with pytest.raises(ValueError):
        inverse_nonneg_check(hypergraph(2, [(1, 2)], special=(1,)), (2, 2))
    with pytest.raises(ValueError):
        inverse_nonneg_check(hypergraph(2, [(1, 2)]), (2,))
    with pytest.raises(ValueError):
        inverse_nonneg_check(hypergraph(2, [(1, 2)]), (2, -1))


def test_check_refuses_non_integer_window():
    """(2.9, 2, 2) is not scanned as the window (2, 2, 2)."""
    g = hypergraph(3, [(1, 2, 3)])
    for bad in ((2.9, 2, 2), (True, 2, 2), ("2", 2, 2)):
        with pytest.raises(ValueError, match="must be integers"):
            inverse_nonneg_check(g, bad)
    assert not inverse_nonneg_check(g, (2, 2, 2)).nonneg


def test_scan_refuses_non_integer_arguments(tmp_path):
    """True is not a bound of 1 nor 2.5 one of 2, and a refused window or
    worker count leaves no report header behind."""
    out = tmp_path / "scan.jsonl"
    for args, kwargs in [
        ((True,), {}),
        ((2.5,), {}),
        ((2, True), {}),
        ((2, 2.0), {}),
        ((2,), {"workers": True}),
        ((2,), {"workers": 1.5}),
    ]:
        with pytest.raises(ValueError, match="must be integers"):
            scan_hypergraphs(*args, out=out, **kwargs)
        assert not out.exists()
    assert scan_hypergraphs(1, 2, out=out).total == 1
    assert out.read_text().startswith(report_header(2))


def test_check_window_refusal_ignores_the_cache(monkeypatch):
    """Checks share one dense window per truncation, yet each check charges
    its size: a window that an earlier check built is refused under a
    smaller budget all the same."""
    g = hypergraph(3, [(1, 2, 3)])
    series_module._dense_window.cache_clear()
    assert not inverse_nonneg_check(g, (3, 3, 3)).nonneg
    assert inverse_nonneg_check(hypergraph(3, [(1, 2)]), (3, 3, 3)).nonneg
    # the second check finds the window in the cache; the misses depend on
    # whether the recheck's block table for (1, 1, 2) was cached before
    assert series_module._dense_window.cache_info().hits == 1
    monkeypatch.setattr(budget, "_limit", 1 << 5)
    with pytest.raises(BudgetError, match="estimated enumeration size 64 exceeds"):
        inverse_nonneg_check(g, (3, 3, 3))


def test_check_stops_at_its_first_negative(monkeypatch):
    """The check computes the inverse in lex order and reads no further than
    its first negative: for the single edge {1, 2, 3} at (2, 2, 2) that is
    (1, 1, 2), the 15th of the window's 27 entries.  An even class reads
    them all."""
    reads = []
    lazy = DenseWindow.inverse_entries

    def counted(self, x):
        reads.append(0)
        for c in lazy(self, x):
            reads[-1] += 1
            yield c

    monkeypatch.setattr(DenseWindow, "inverse_entries", counted)
    res = inverse_nonneg_check(hypergraph(3, [(1, 2, 3)]), (2, 2, 2))
    assert tuple(res) == (False, (1, 1, 2), Fraction(-1))
    assert reads[0] == 15
    reads.clear()
    assert inverse_nonneg_check(hypergraph(3, [(1, 2)]), (2, 2, 2)).nonneg
    assert reads == [27]


def test_check_zero_window_trivially_nonneg():
    res = inverse_nonneg_check(hypergraph(3, [(1, 2, 3)]), (0, 0, 0))
    assert res.nonneg


def test_odd_edge_witness():
    e, v = odd_edge_witness(hypergraph(3, [(1, 2, 3)]))
    assert e == (1, 2, 3)
    assert v == 2 + (-2) ** 3 == -6
    assert isinstance(v, int)
    e5, v5 = odd_edge_witness(hypergraph(5, [(1, 2, 3, 4, 5)]))
    assert v5 == 2 + (-2) ** 5 == -30
    g = hypergraph(5, [(1, 2, 3), (2, 4, 5), (1, 4)])
    e, v = odd_edge_witness(g)
    assert e == (1, 2, 3)
    assert v == -6
    assert odd_edge_witness(hypergraph(4, [(1, 2), (3, 4)])) is None
    assert odd_edge_witness(hypergraph(3, [])) is None


def test_odd_edge_witness_refuses_what_it_cannot_certify():
    """The witness reads one edge alone, which is the hypergraph's own
    coefficient only when no other edge lies inside it and no vertex is
    special: with (1, 2) inside (1, 2, 3) the coefficient at (2, 2, 2, 0) is
    +6, not -6, and an edge (1,) would give the witness 0.  Such
    hypergraphs are refused, as is one with a special vertex."""
    nested = hypergraph(4, [(1, 2), (1, 2, 3)])
    assert dict(scan_module._signed_inverse(nested, (2, 2, 2, 0)))[(2, 2, 2, 0)] == 6
    for g in (nested, hypergraph(4, [(1,), (2, 3, 4)]), hypergraph(3, [(1, 2, 3)], special=[1])):
        with pytest.raises(ValueError, match="odd-edge witness needs a simple hypergraph"):
            odd_edge_witness(g)


def test_odd_edge_witness_gate_raises(monkeypatch):
    monkeypatch.setattr(
        scan_module, "_signed_inverse", lambda g, window: iter([(window, Fraction(1, 2))])
    )
    with pytest.raises(VerificationError):
        odd_edge_witness(hypergraph(3, [(1, 2, 3)]))


def test_negative_recheck_counts_blocks_once(monkeypatch):
    """A negative coefficient is recounted once, from the marked chromatic
    polynomial at q = -1, and a recount that disagrees raises."""
    calls = []
    poly = scan_module.marked_chromatic_poly

    def counting(g, m):
        calls.append(m)
        return poly(g, m)

    monkeypatch.setattr(scan_module, "marked_chromatic_poly", counting)
    res = inverse_nonneg_check(hypergraph(3, [(1, 2, 3)]), (2, 2, 2))
    assert not res.nonneg
    assert calls == [res.neg_at]
    monkeypatch.setattr(scan_module, "marked_chromatic_poly", lambda g, m: QPolynomial((10**6,)))
    with pytest.raises(VerificationError, match="block counting"):
        inverse_nonneg_check(hypergraph(3, [(1, 2, 3)]), (2, 2, 2))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_simple_hypergraphs(0)) == 1
    assert sum(1 for _ in enumerate_simple_hypergraphs(1)) == 1
    assert sum(1 for _ in enumerate_simple_hypergraphs(2)) == 2
    assert sum(1 for _ in enumerate_simple_hypergraphs(3)) == 9
    assert sum(1 for _ in enumerate_simple_hypergraphs(4)) == 114
    assert sum(1 for _ in enumerate_simple_hypergraphs(5)) == 6894
    for g in enumerate_simple_hypergraphs(3):
        assert g.n == 3
        for e in g.edges:
            assert len(e) >= 2
    with pytest.raises(ValueError):
        list(enumerate_simple_hypergraphs(-1))


def test_enumeration_matches_recursive_oracle():
    """The key walk yields the families of the recursion over frozensets, in
    its order, each with its own key."""
    for n in range(6):
        oracle = list(simple_hypergraphs_oracle(n))
        assert [g.edges for g in enumerate_simple_hypergraphs(n)] == oracle
        assert list(_families(n)) == [_family_key(edges) for edges in oracle]


def test_enumeration_deterministic():
    a = [g.edges for g in enumerate_simple_hypergraphs(3)]
    b = [g.edges for g in enumerate_simple_hypergraphs(3)]
    assert a == b
    assert a[0] == ()


def test_canonical_form():
    assert canonical_form(hypergraph(3, [(1, 2)])) == canonical_form(hypergraph(3, [(2, 3)]))
    assert canonical_form(hypergraph(4, [(1, 2), (2, 3)])) == canonical_form(
        hypergraph(4, [(2, 4), (1, 4)])
    )
    assert canonical_form(hypergraph(4, [(1, 2), (3, 4)])) != canonical_form(
        hypergraph(4, [(1, 2), (1, 3)])
    )
    assert canonical_form(hypergraph(2, [])) != canonical_form(hypergraph(3, []))
    c = canonical_form(hypergraph(3, [(2, 3), (1, 2, 3)]))
    assert c == (3, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        canonical_form(hypergraph(2, [(1, 2)], special=(1,)))


def test_canonical_form_matches_oracle():
    """canonical_form and the orbit against the loop over every relabeling:
    all labelled simple hypergraphs with n <= 4, seeded samples at n = 5 and
    6, and families with singletons or nested edges."""
    rng = random.Random(15)
    graphs = [g for n in range(1, 5) for g in enumerate_simple_hypergraphs(n)]
    assert len(graphs) == 126
    graphs += rng.sample(list(enumerate_simple_hypergraphs(5)), 60)
    graphs += [random_hypergraph(rng, 6, rng.randint(1, 6)) for _ in range(8)]
    graphs += [
        hypergraph(0, []),
        hypergraph(3, [(2,), (1, 2, 3), (1, 3)]),
        hypergraph(4, [(1,), (4,), (2, 3), (1, 2, 3, 4)]),
        hypergraph(5, [(1, 2), (1, 2, 3), (3, 4, 5), (5,)]),
    ]
    for g in graphs:
        assert canonical_form(g) == canonical_form_oracle(g), g
        assert _orbit(g.n, _family_key(g.edges)) == set(map(_family_key, relabelings_oracle(g)))


def test_canonical_form_charges_its_tables(monkeypatch):
    """The relabeling tables hold n! * 2^n masks, charged before they are built."""
    monkeypatch.setattr(budget, "_limit", 1 << budget.DEFAULT_EXPONENT)
    with pytest.raises(BudgetError, match="relabeling tables for 9 vertices"):
        canonical_form(hypergraph(9, [(1, 2)]))


def test_relabeling_tables_are_charged_before_they_are_built(monkeypatch):
    """The 6-vertex tables fit a budget of 2^16 and are refused at 2^15,
    with cold caches, before any table is built."""
    g = hypergraph(6, [(1, 2), (3, 4, 5)])
    monkeypatch.setattr(budget, "_limit", 1 << 16)
    assert canonical_form(g) == canonical_form_oracle(g)
    scan_module._orbit.cache_clear()
    scan_module._mask_images.cache_clear()
    monkeypatch.setattr(budget, "_limit", 1 << 15)
    with pytest.raises(
        BudgetError,
        match="relabeling tables for 6 vertices: estimated enumeration size 46080 exceeds budget 32768",
    ):
        canonical_form(g)
    assert scan_module._mask_images.cache_info().currsize == 0


def test_cached_orbit_is_answered_uncharged(monkeypatch):
    """A cached orbit was computed under the budget, fixed per process, and
    is returned with no charge: ``canonical_form`` then ``_orbit`` on the
    same class charge the relabeling tables once, and both answers agree
    with the oracles."""
    charges = []
    real = scan_module.charge
    monkeypatch.setattr(scan_module, "charge", lambda *args: charges.append(args) or real(*args))
    for g in (hypergraph(4, [(1, 2), (2, 3, 4)]), hypergraph(5, [(1, 2, 3), (3, 4), (4, 5)])):
        _orbit.cache_clear()
        charges.clear()
        assert canonical_form(g) == canonical_form_oracle(g)
        assert _orbit(g.n, _family_key(g.edges)) == set(map(_family_key, relabelings_oracle(g)))
        assert charges == [(math.factorial(g.n) << g.n, f"relabeling tables for {g.n} vertices")]


def test_dense_sign_check_matches_sparse_route():
    """The dense signed inverse finds the negative that the sparse terms of
    series_inverse give, at every class with n <= 4, on windows 0 to 3 and
    on mixed windows with zeros, and at a seeded sample of the n = 5
    classes on window 2; a reported coefficient is an int."""
    classes = [v.canon for v in scan_hypergraphs(5).verdicts]
    five = random.Random(18).sample([c for c in classes if c[0] == 5], 24)
    for n, edges in [c for c in classes if c[0] <= 4] + five:
        g = hypergraph(n, edges)
        mixed = [tuple((0, 2, 1, 3)[(i + s) % 4] for i in range(n)) for s in range(4)]
        for window in [(2,) * 5] if n == 5 else [(w,) * n for w in range(4)] + mixed:
            res = inverse_nonneg_check(g, window)
            assert tuple(res) == inverse_nonneg_oracle(g, window), (g, window)
            assert res.coeff is None or type(res.coeff) is int


def test_scan_calls_the_module_work_once_per_class(monkeypatch):
    """A scan looks its per-class check up as the module-level ``_work`` and
    calls it once per class, in verdict order: timing that one call gives
    a latency sample per class."""
    calls = []
    direct = scan_module._work

    def counted(item):
        calls.append(item)
        return direct(item)

    monkeypatch.setattr(scan_module, "_work", counted)
    for n_max, classes in zip(range(1, 5), (1, 3, 8, 28)):
        calls.clear()
        rep = scan_hypergraphs(n_max)
        assert len(calls) == rep.total == classes
        assert [(n, edges) for n, edges, _ in calls] == [v.canon for v in rep.verdicts]


def test_verdict_json_line():
    rep = scan_hypergraphs(3)
    neg = [v for v in rep.verdicts if not v.nonneg]
    assert len(neg) == 1
    line = verdict_to_json_line(neg[0])
    assert line == '{"canon":[3,[[1,2,3]]],"even":false,"nonneg":false,"neg_at":[1,1,2],"coeff":"-1"}'
    obj = json.loads(line)
    assert obj["canon"] == [3, [[1, 2, 3]]]


def test_scan_small():
    rep = scan_hypergraphs(3)
    assert rep.total == 8
    assert rep.even_total + rep.odd_total == 8
    assert rep.odd_total == 1
    assert rep.even_failures == []
    assert rep.odd_passes == []
    assert rep.skipped == 0
    assert "scanned 8 hypergraphs" in rep.summary()
    rep_all = scan_hypergraphs(3, dedup=False)
    assert rep_all.total == 12
    assert rep_all.even_failures == []
    assert rep_all.odd_passes == []


def test_scan_canonicalizes_each_class_once(monkeypatch):
    calls = []
    direct = scan_module.canonical_form

    def counted(g):
        calls.append(g)
        return direct(g)

    monkeypatch.setattr(scan_module, "canonical_form", counted)
    rep = scan_hypergraphs(4, dedup=False)
    assert len(calls) == 1 + 2 + 5 + 20
    # the oracle: every labelled hypergraph canonicalized on its own
    expected = [direct(g) for n in range(1, 5) for g in enumerate_simple_hypergraphs(n)]
    assert len(expected) == 126
    assert [v.canon for v in rep.verdicts] == expected


def test_scan_builds_each_orbit_once():
    """The table fill reuses the orbit that ``canonical_form`` has just
    built for the class: a scan to n = 4 without dedup misses the orbit memo
    once per class, 28 times, and hits it 28 times, where building the orbit
    for both would take 56 builds."""
    scan_module._orbit.cache_clear()
    scan_hypergraphs(4, dedup=False)
    info = scan_module._orbit.cache_info()
    assert (info.misses, info.hits) == (1 + 2 + 5 + 20, 1 + 2 + 5 + 20)


def test_scan_verdict_lines_digest():
    # computed before the per-class canonicalization memo and the dense
    # series inverse, with
    # PYTHONPATH=src python3 -c 'import hashlib; from chromaplex.scan import
    #   scan_hypergraphs, verdict_to_json_line; print(hashlib.sha256("\n".join(
    #   verdict_to_json_line(v) for v in scan_hypergraphs(4).verdicts).encode()).hexdigest())'
    lines = "\n".join(verdict_to_json_line(v) for v in scan_hypergraphs(4).verdicts)
    assert (
        hashlib.sha256(lines.encode()).hexdigest()
        == "6cb3414e3ac911063d97d94b37b9dfeb91f5433e4d4804dd5bfa53a83164916b"
    )


def test_scan_agrees_with_parity():
    rep = scan_hypergraphs(4)
    assert rep.total == 28
    for v in rep.verdicts:
        if v.even:
            assert v.nonneg
            assert v.neg_at is None
        else:
            assert not v.nonneg
            assert v.neg_at is not None
            assert v.coeff < 0


def test_scan_zero_window_reports_odd_passes():
    rep = scan_hypergraphs(3, m_per_var=0)
    assert rep.odd_total == 1
    assert len(rep.odd_passes) == 1
    assert rep.even_failures == []


def test_scan_output_and_resume(tmp_path):
    out = tmp_path / "scan.jsonl"
    rep = scan_hypergraphs(3, out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == report_header(2) == '{"version":"0.1.0","window":2}'
    assert len(lines) == 1 + rep.total == 9
    assert lines[1:] == [verdict_to_json_line(v) for v in rep.verdicts]
    rep2 = scan_hypergraphs(3, out=out, resume=True)
    assert rep2.total == 0
    assert rep2.skipped == 12
    assert out.read_text().splitlines() == lines
    rep3 = scan_hypergraphs(4, out=out, resume=True)
    assert rep3.skipped == 12
    assert rep3.total == 20
    assert len(out.read_text().splitlines()) == 1 + 28


def test_scan_resume_rejects_corrupt_report(tmp_path):
    out = tmp_path / "scan.jsonl"
    verdict = '{"canon":[2,[]],"even":true,"nonneg":true,"neg_at":null,"coeff":null}'
    out.write_text(report_header(2) + "\n" + verdict + "\nnot json\n")
    with pytest.raises(ValueError, match="corrupt report line"):
        _recorded_keys(out, report_header(2))
    with pytest.raises(ValueError):
        scan_hypergraphs(2, out=out, resume=True)


def test_recorded_keys_skip_blank_lines(tmp_path):
    out = tmp_path / "scan.jsonl"
    verdict = '{"canon":[2,[]],"even":true,"nonneg":true,"neg_at":null,"coeff":null}'
    out.write_text(report_header(2) + "\n\n" + verdict + "\n  \n")
    assert _recorded_keys(out, report_header(2)) == {"[2,[]]"}


def test_scan_resume_refuses_another_window(tmp_path):
    out = tmp_path / "scan.jsonl"
    scan_hypergraphs(3, m_per_var=0, out=out)
    written = out.read_text()
    assert '"canon":[3,[[1,2,3]]],"even":false,"nonneg":true' in written
    with pytest.raises(ValueError, match="header"):
        scan_hypergraphs(3, m_per_var=2, out=out, resume=True)
    torn = written + '{"canon":[3,'
    out.write_text(torn)
    with pytest.raises(ValueError, match="header"):
        scan_hypergraphs(3, m_per_var=2, out=out)
    assert out.read_text() == torn
    # a report without a header line, as written before headers existed
    out.write_text("".join(line + "\n" for line in written.splitlines()[1:]))
    with pytest.raises(ValueError, match="header"):
        scan_hypergraphs(3, m_per_var=0, out=out, resume=True)
    out.write_text('{"version":"0.0.0","window":0}\n')
    with pytest.raises(ValueError, match="header"):
        scan_hypergraphs(3, m_per_var=0, out=out, resume=True)


def test_scan_resume_recomputes_torn_line(tmp_path):
    out = tmp_path / "scan.jsonl"
    rep = scan_hypergraphs(3, out=out)
    whole = out.read_text()
    last = verdict_to_json_line(rep.verdicts[-1]) + "\n"
    assert whole.endswith(last)
    # a run killed halfway through writing its last verdict
    out.write_text(whole[: len(whole) - len(last) // 2])
    rep2 = scan_hypergraphs(3, out=out, resume=True)
    assert rep2.verdicts == rep.verdicts[-1:]
    # the torn verdict is the triangle's, whose class has one labelled member
    assert rep2.skipped == 12 - 1
    assert out.read_text() == whole
    # a run killed while writing the header leaves a report that starts afresh
    out.write_text(report_header(2)[:5])
    rep3 = scan_hypergraphs(3, out=out, resume=True)
    assert rep3.skipped == 0
    assert out.read_text() == whole


def _fail_the_walk_at(monkeypatch, n_failing):
    families = scan_module._families

    def failing(n):
        if n == n_failing:
            raise RuntimeError(f"walk failed at n={n}")
        return families(n)

    monkeypatch.setattr(scan_module, "_families", failing)


def test_scan_keeps_the_verdicts_before_a_walk_failure(tmp_path, monkeypatch):
    """Each verdict is written when the walk meets its class: a walk that
    fails at n = 4 leaves the header and the 8 verdicts for n <= 3, which a
    resumed run completes into the uninterrupted report."""
    whole = tmp_path / "whole.jsonl"
    scan_hypergraphs(4, out=whole)
    lines = whole.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + 28
    out = tmp_path / "scan.jsonl"
    with monkeypatch.context() as m:
        _fail_the_walk_at(m, 4)
        with pytest.raises(RuntimeError, match="n=4"):
            scan_hypergraphs(4, out=out)
    assert out.read_text() == "".join(lines[:9])
    scan_hypergraphs(4, out=out, resume=True)
    assert out.read_bytes() == whole.read_bytes()


def test_scan_pool_survives_a_walk_failure(tmp_path, monkeypatch):
    """With a real pool of two the walk runs on the pool's task thread; its
    error still reaches the caller, the pool is shut down without a warning,
    and the report is the serial failing run's, byte for byte: the header
    and the 8 verdicts for n <= 3, none lost in a chunk the pool never sent."""
    _fail_the_walk_at(monkeypatch, 4)
    serial = tmp_path / "serial.jsonl"
    with pytest.raises(RuntimeError, match="n=4"):
        scan_hypergraphs(4, out=serial)
    out = tmp_path / "scan.jsonl"
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="n=4"):
            scan_hypergraphs(4, out=out, workers=2)
        gc.collect()  # the error's traceback holds the pool in a cycle
    assert caught == []
    assert out.read_bytes() == serial.read_bytes()
    assert len(out.read_text().splitlines()) == 9


def test_killed_scan_keeps_its_verdicts(tmp_path):
    """A scan killed by SIGTERM in its 21st check keeps the header and the 20
    verdicts written before, and ``resume`` completes the report into the
    uninterrupted one."""
    whole = tmp_path / "whole.jsonl"
    scan_hypergraphs(5, out=whole)
    lines = whole.read_text().splitlines(keepends=True)
    out = tmp_path / "scan.jsonl"
    probe = (
        "import os, signal, chromaplex.scan as scan\n"
        "work, calls = scan._work, []\n"
        "def dying(item):\n"
        "    calls.append(item)\n"
        "    if len(calls) == 21:\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "    return work(item)\n"
        "scan._work = dying\n"
        f"scan.scan_hypergraphs(5, out={str(out)!r})\n"
    )
    src = str(Path(scan_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == -signal.SIGTERM, proc.stderr
    assert out.read_text() == "".join(lines[:21])
    scan_hypergraphs(5, out=out, resume=True)
    assert out.read_bytes() == whole.read_bytes()


def test_scan_workers_match_serial():
    serial = scan_hypergraphs(3, dedup=False)
    parallel = scan_hypergraphs(3, dedup=False, workers=2)
    assert serial.verdicts == parallel.verdicts


def test_scan_pool_is_bounded(monkeypatch):
    """The pool gets no more processes than classes to check or cores, and
    none at all when that bound is 1.  The fake pool maps in this process."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

        def close(self):
            pass

        def join(self):
            pass

    # scan imports Pool from multiprocessing where it starts the pool
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    serial = scan_hypergraphs(3)
    assert serial.total == 8
    # (cores, workers, pool sizes started)
    cases = [(64, 100_000, [8]), (4, 100_000, [4]), (4, 3, [3]), (None, 100_000, [])]
    for cores, workers, expected in cases:
        sizes.clear()
        monkeypatch.setattr(scan_module.os, "cpu_count", lambda: cores)
        assert scan_hypergraphs(3, workers=workers).verdicts == serial.verdicts
        assert sizes == expected


def test_scan_opens_its_report_before_its_pool(tmp_path, monkeypatch):
    """A report that cannot be opened is refused before any process starts."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 4)
    with pytest.raises(OSError):
        scan_hypergraphs(3, workers=2, out=tmp_path / "missing" / "scan.jsonl")
    assert sizes == []


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_hypergraphs(-1)
    with pytest.raises(ValueError):
        scan_hypergraphs(2, m_per_var=-1)
    with pytest.raises(ValueError):
        scan_hypergraphs(2, workers=0)
    with pytest.raises(ValueError):
        scan_hypergraphs(2, resume=True)


def test_scan_budget_refusal(monkeypatch):
    monkeypatch.setattr(budget, "_limit", 1 << budget.DEFAULT_EXPONENT)
    with pytest.raises(BudgetError):
        scan_hypergraphs(7)
    with pytest.raises(BudgetError):
        scan_hypergraphs(9)
    monkeypatch.setattr(budget, "_limit", 1 << 4)
    with pytest.raises(BudgetError):
        scan_hypergraphs(3)


def test_scan_past_the_bounds_is_refused_at_any_budget(monkeypatch):
    """Past the table of antichain bounds (n >= 8) the estimate is 2^63,
    above the largest budget, 2^62."""
    monkeypatch.setattr(budget, "_limit", 1 << 62)
    with pytest.raises(BudgetError, match="n=8: estimated enumeration size 9223372036854775808 "):
        scan_hypergraphs(8)
