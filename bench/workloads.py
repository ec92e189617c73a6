"""The four benchmark workloads: inputs, timed work, and output checks.

Each workload runs in rounds.  A round is one cold job: ``run.py`` clears
chromaplex's ``lru_cache``s before it, as a fresh process would have them.
For every round a workload provides

* ``make_clock(trace_run)``: the ``clock.Clock`` its times are read from;
* ``inputs(seed, r)``: the round's inputs, a pure function of seed and round
  index (``scan`` and ``cli`` have fixed inputs and ignore the seed);
* ``run(inputs, clock, trace_run)``: the timed work, returning a ``Pass``
  with the raw outputs, the timed seconds and one latency sample per
  command, all in the reference seconds of ``clock.Clock``.  Only program
  work sits inside the timed brackets; checks and digests do not.
  ``trace_run`` is set for both passes of a ``--trace 1`` run, where
  ``cli`` calls ``main(argv)`` in process;
* ``check(inputs, outputs)``: ``(failed, digest_lines)``, comparing every
  item with its independent route.

Calls go through module attributes (``CH.marked_chromatic_poly``), never
through names bound at import, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from clock import Clock


def _mod(name: str):
    return sys.modules[f"chromaplex.{name}"]


@dataclass
class Pass:
    outputs: list[Any]
    items: int
    seconds: float
    latencies_s: list[float]


class Workload:
    name: str
    uses_seed = True

    def make_clock(self, trace_run: bool) -> Clock:
        return Clock()


def _poly_str(p) -> str:
    return ",".join(str(c) for c in p.coeffs)


def _falling_factorial(k: int) -> list[int]:
    """Ascending integer coefficients of q(q-1)...(q-k+1), computed here so
    the check shares no code with chromaplex."""
    coeffs = [1]
    for j in range(k):
        shifted = [0] + coeffs
        coeffs = [a - j * b for a, b in zip(shifted, coeffs + [0])]
    return coeffs


# ---------------------------------------------------------------------------
# scan: the exhaustive conjecture check
# ---------------------------------------------------------------------------

# isomorphism classes of simple hypergraphs on exactly n vertices (edges of
# size >= 2, pairwise incomparable); they sum to the 208 of acceptance
# criterion 9
_CLASSES = {1: 1, 2: 2, 3: 5, 4: 20, 5: 180}


class Scan(Workload):
    """``scan_hypergraphs(n_max)`` with window 2, dedup on, one worker and no
    report file.  An item is one decided isomorphism class; its latency is
    the per-class check that ``scan_hypergraphs`` runs for it."""

    name = "scan"
    uses_seed = False

    def __init__(self, size: str) -> None:
        self.n_max = 5 if size == "full" else 3

    def inputs(self, seed: int, r: int) -> int:
        return self.n_max

    def run(self, n_max: int, clock: Clock, trace_run: bool) -> Pass:
        SC = _mod("scan")
        work = SC._work
        latencies: list[float] = []

        def timed_work(item):
            t0 = clock.now()
            res = work(item)
            latencies.append(clock.now() - t0)
            return res

        SC._work = timed_work
        try:
            with clock.ticking((("scan", "canonical_form"),)):
                t0 = clock.now()
                report = SC.scan_hypergraphs(n_max, 2, dedup=True, workers=1)
                seconds = clock.now() - t0
        finally:
            SC._work = work
        return Pass([report], report.total, seconds, latencies)

    def check(self, n_max: int, outputs: list) -> tuple[int, list[str]]:
        SC, HG = _mod("scan"), _mod("hypergraph")
        (report,) = outputs
        # an odd class's witness, 2 + (-2)^r < 0, depends only on the size r
        # of its first odd edge, so it is checked once per size
        witness_ok = {
            r: SC.odd_edge_witness(HG.hypergraph(r, [tuple(range(1, r + 1))]))
            == (tuple(range(1, r + 1)), 2 + (-2) ** r)
            for r in range(3, n_max + 1, 2)
        }
        failed = 0
        per_n: dict[int, int] = {}
        for v in report.verdicts:
            per_n[v.canon[0]] = per_n.get(v.canon[0], 0) + 1
            if v.even:
                ok = v.nonneg and v.neg_at is None
            else:
                r = next(len(e) for e in v.canon[1] if len(e) % 2)
                ok = not v.nonneg and v.coeff is not None and v.coeff < 0 and witness_ok[r]
            failed += not ok
        if per_n != {n: _CLASSES[n] for n in range(1, n_max + 1)}:
            failed = report.total  # canonicalization or dedup is broken
        lines = [SC.verdict_to_json_line(v) for v in report.verdicts]
        lines.append(f"even_failures={report.even_failures} odd_passes={report.odd_passes}")
        return failed, lines


# ---------------------------------------------------------------------------
# coeffs: the two coefficient identities
# ---------------------------------------------------------------------------

_SUBSETS4 = [frozenset(c) for k in range(5) for c in itertools.combinations(range(1, 5), k)]
_WINDOW = (2, 2, 2, 2)
_MS = list(itertools.product(range(3), repeat=4))
_QS = range(-3, 5)


class Coeffs(Workload):
    """Half (a): coefficient_via_binomial against marked_chromatic_poly for
    every m <= (2,2,2,2) of a (downward-closed family, special set) pair.
    Half (b): coefficients of series_int_pow(marked_independence_series(g),
    q) against marked_chromatic_poly(g, m).eval(q), q = -3..4.  An item is
    one coefficient check; a command is one window of 81 checks, all
    m <= (2,2,2,2) of one (a) input, or of one (b) input at one q."""

    name = "coeffs"

    def __init__(self, size: str) -> None:
        self.pairs, self.graphs = (20, 10) if size == "full" else (2, 1)

    def inputs(self, seed: int, r: int) -> list[tuple]:
        rng = random.Random(f"coeffs:{seed}:{r}")
        out: list[tuple] = []
        # stratified: maximal-member and special-set counts cycle, so every
        # round draws the same mix of shapes and only the shapes' contents
        # depend on the seed
        for i in range(self.pairs):
            tops = rng.sample(_SUBSETS4[1:], 1 + i % 4)
            members = sorted(
                (tuple(sorted(s)) for s in {s for t in tops for s in _SUBSETS4 if s <= t}),
                key=lambda s: (len(s), s),
            )
            special = tuple(sorted(rng.sample(range(1, 5), i % 5)))
            out.append(("a", members, special))
        for i in range(self.graphs):
            chosen: list[frozenset] = []
            for _ in range(1 + i % 4):
                e = frozenset(rng.sample(range(1, 5), rng.randint(2, 4)))
                if all(not (e <= f or f <= e) for f in chosen):
                    chosen.append(e)
            special = tuple(sorted(rng.sample(range(1, 5), (3 * i) % 5)))
            out.append(("b", [tuple(sorted(e)) for e in chosen], special))
        return out

    def run(self, inputs: list[tuple], clock: Clock, trace_run: bool) -> Pass:
        CH, HG, SE = _mod("chromatic"), _mod("hypergraph"), _mod("series")
        outputs: list[Any] = []
        latencies: list[float] = []
        items = 0
        ticks = (("chromatic", "marked_chromatic_poly"),)
        with warnings.catch_warnings(), clock.ticking(ticks):
            # families that miss a ground element warn; that is expected here
            warnings.simplefilter("ignore", UserWarning)
            for kind, members, special in inputs:
                t0 = clock.now()
                try:
                    if kind == "a":
                        a = HG.independence_system(4, members)
                        g = HG.hypergraph_from_system(a, special)
                        pairs = [
                            (CH.coefficient_via_binomial(a, special, m), CH.marked_chromatic_poly(g, m))
                            for m in _MS
                        ]
                    else:
                        g = HG.hypergraph(4, members, special)
                        base = HG.marked_independence_series(g, _WINDOW)
                        pairs = []
                        for q in _QS:
                            power = SE.series_int_pow(base, q)
                            for m in _MS:
                                pairs.append((power.coeff(m), CH.marked_chromatic_poly(g, m).eval(q)))
                            t1 = clock.now()
                            latencies.append(t1 - t0)
                            t0 = t1
                except Exception as exc:  # counted as failed items by check
                    pairs = exc
                if kind == "a" or isinstance(pairs, Exception):
                    latencies.append(clock.now() - t0)
                outputs.append(pairs)
                items += len(_MS) * (1 if kind == "a" else len(_QS))
        return Pass(outputs, items, sum(latencies), latencies)

    def check(self, inputs: list[tuple], outputs: list) -> tuple[int, list[str]]:
        failed = 0
        lines: list[str] = []
        for (kind, _, _), pairs in zip(inputs, outputs):
            if isinstance(pairs, Exception):
                failed += len(_MS) * (1 if kind == "a" else len(_QS))
                lines.append(f"error {type(pairs).__name__}: {pairs}")
                continue
            for left, right in pairs:
                failed += left != right
                if kind == "a":
                    lines.append(f"{_poly_str(left)}|{_poly_str(right)}")
                else:
                    lines.append(f"{left}|{right}")
        return failed, lines


# ---------------------------------------------------------------------------
# arrangements: exact elimination over Q against enumeration over F_p
# ---------------------------------------------------------------------------

_K4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
_PLANE = [[[1, 1, -1]]]
_NONZERO = (-2, -1, 1, 2)


class Arrangements(Workload):
    """A fixed, seeded mix; an item and a command are both one task:

    * ``complete``: chi of the braid arrangement of K_n against the falling
      factorial q(q-1)...(q-n+1);
    * ``k4``: chi of K_4 against count_complement at p = 5, 7, 11, 13;
    * ``plane``: marked_chromatic_arrangement of x1+x2=x3 at m=(2,2,3)
      against brute_force_arrangement_count at p = 7 and 11;
    * ``graphical``: seeded 5-vertex hypergraphs with edges of size 3-4
      (members of codimension 2-3), chi against count_complement at p = 7;
    * ``sign``: seeded hyperplane arrangements in dimension <= 3 (one
      point, three lines, or one plane), nonzero coefficients in -2..2,
      every m <= 2, with the sign check (-1)^|m| chi_m(-q) >= 0,
      q = 1, 2, 3.
    """

    name = "arrangements"

    def __init__(self, size: str) -> None:
        full = size == "full"
        self.complete_n = 7 if full else 4
        self.plane_m, self.plane_ps = ((2, 2, 3), (7, 11)) if full else ((2, 2, 1), (7,))
        self.k4_ps = (5, 7, 11, 13) if full else (5,)
        self.graphical = 6 if full else 1
        # (dimension, hyperplane count) per sign arrangement, fixed per round
        # so that only coefficients depend on the seed.  The cost of a plane
        # in dimension 3 varies by 9 % with its coefficients, that of three
        # lines in the plane by 42 %, and that of two planes in dimension 3
        # from 0.5 to 2.7 s, so the mix leans on the first and leaves out the
        # last: the round time should depend on the program, not the seed
        self.sign_shapes = [(1, 1)] * 4 + [(2, 3)] * 2 + [(3, 1)] * 20 if full else [(2, 3), (3, 1)]

    def inputs(self, seed: int, r: int) -> list[tuple]:
        rng = random.Random(f"arrangements:{seed}:{r}")
        tasks: list[tuple] = [("complete", self.complete_n), ("k4",), ("plane",)]
        for i in range(self.graphical):
            chosen: list[frozenset] = []
            for _ in range(1 + i % 3):
                e = frozenset(rng.sample(range(1, 6), rng.randint(3, 4)))
                if all(not (e <= f or f <= e) for f in chosen):
                    chosen.append(e)
            tasks.append(("graphical", [tuple(sorted(e)) for e in chosen]))
        for n, count in self.sign_shapes:
            rows: list[list[int]] = []
            while len(rows) < count:
                row = [rng.choice(_NONZERO) for _ in range(n)]
                if row not in rows and [-v for v in row] not in rows:
                    rows.append(row)
            for m in itertools.product(range(3), repeat=n):
                tasks.append(("sign", n, rows, m))
        return tasks

    def _task(self, task: tuple):
        AR, HG = _mod("arrangement"), _mod("hypergraph")
        kind = task[0]
        if kind == "complete":
            n = task[1]
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            return AR.characteristic_polynomial(AR.graphical_arrangement(HG.hypergraph(n, edges)))
        if kind == "k4":
            arr = AR.graphical_arrangement(HG.hypergraph(4, _K4))
            chi = AR.characteristic_polynomial(arr)
            return chi, [(chi.eval(p), AR.count_complement(arr, p)) for p in self.k4_ps]
        if kind == "plane":
            arr = AR.arrangement(3, _PLANE)
            poly = AR.marked_chromatic_arrangement(arr, (), self.plane_m)
            return poly, [
                (poly.eval(p), AR.brute_force_arrangement_count(arr, (), self.plane_m, p))
                for p in self.plane_ps
            ]
        if kind == "graphical":
            arr = AR.graphical_arrangement(HG.hypergraph(5, task[1]))
            chi = AR.characteristic_polynomial(arr)
            return chi, [(chi.eval(7), AR.count_complement(arr, 7))]
        _, n, rows, m = task
        poly = AR.marked_chromatic_arrangement(AR.arrangement(n, [[row] for row in rows]), (), m)
        return poly, [(-1) ** sum(m) * poly.eval(-q) for q in (1, 2, 3)]

    def run(self, inputs: list[tuple], clock: Clock, trace_run: bool) -> Pass:
        outputs: list[Any] = []
        latencies: list[float] = []
        with clock.ticking((("arrangement", "rref"),)):
            for task in inputs:
                t0 = clock.now()
                try:
                    out = self._task(task)
                except Exception as exc:  # counted as a failed item by check
                    out = exc
                latencies.append(clock.now() - t0)
                outputs.append(out)
        return Pass(outputs, len(inputs), sum(latencies), latencies)

    def check(self, inputs: list[tuple], outputs: list) -> tuple[int, list[str]]:
        failed = 0
        lines: list[str] = []
        for task, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                failed += 1
                lines.append(f"error {type(out).__name__}: {out}")
                continue
            kind = task[0]
            if kind == "complete":
                want = _falling_factorial(task[1])
                ok = list(out.coeffs) == want
                lines.append(_poly_str(out))
            elif kind == "sign":
                poly, signed = out
                ok = all(v >= 0 for v in signed)
                lines.append(f"{_poly_str(poly)}|{signed}")
            else:
                poly, pairs = out
                ok = all(a == b for a, b in pairs)
                if kind == "k4":
                    ok = ok and list(poly.coeffs) == _falling_factorial(4)
                lines.append(f"{_poly_str(poly)}|{pairs}")
            failed += not ok
        return failed, lines


# ---------------------------------------------------------------------------
# cli: the README's commands, one fresh interpreter each
# ---------------------------------------------------------------------------

_WORKED = '{"n":4,"edges":[[1,2,3],[3,4]],"special":[1]}'
_BRAID3 = '{"n":3,"special":[],"subspaces":[{"forms":[[1,-1,0]]},{"forms":[[1,0,-1]]},{"forms":[[0,1,-1]]}]}'
_PLANE_JSON = '{"n":3,"special":[],"subspaces":[{"forms":[[1,1,-1]]}]}'
REPORT = "<report>"

CLI_COMMANDS = {
    "chrom-verify": ["chrom", _WORKED, "--m", "2,1,1,2", "--at", "7", "--verify"],
    "series": ["series", '{"n":2,"edges":[[1,2]],"special":[]}', "--q", "-1", "--trunc", "2,2"],
    "charpoly": ["arrangement", "charpoly", _BRAID3],
    "regions": ["arrangement", "regions", _BRAID3],
    "countfp": ["arrangement", "countfp", _PLANE_JSON, "--p", "5"],
    "clan": ["arrangement", "clan", _PLANE_JSON, "--m", "2,1,1"],
    "markchrom-verify": [
        "arrangement", "markchrom", _PLANE_JSON, "--m", "2,2,1", "--at", "7", "--verify",
    ],
    "system-validate": ["system", "validate", '{"n":2,"members":[[],[1],[2]]}'],
    "system-tograph": [
        "system", "tograph", '{"n":3,"members":[[],[1],[2],[3],[1,3]]}', "--special", "1,3",
    ],
    "scan": ["scan", "--max-n", "4", "--out", REPORT],
    "scan-resume": ["scan", "--max-n", "4", "--out", REPORT, "--resume"],
    "selftest": ["selftest"],
}
_TINY_COMMANDS = ("chrom-verify", "series", "scan", "scan-resume")
# a command's time is mostly process start-up, which a neighbour slows
# differently from pure computation; so the CLI is timed against the start of
# a bare interpreter (its time on the machine the benchmark was written on),
# run before each command: on four 25 s runs this cut the spread of the mean
# command time from 6 % raw (7 % against the fraction kernel) to 1.5 %
BARE_REF_S = 0.055
_ELAPSED = re.compile(r"; \d+\.\ds$", re.MULTILINE)


def mask(command: str, stdout: str) -> str:
    """Blank the elapsed-seconds field of the scan summary line."""
    return _ELAPSED.sub("; <elapsed>s", stdout) if command.startswith("scan") else stdout


class Cli(Workload):
    """Each command as ``python -m chromaplex.cli ...`` in a fresh
    interpreter, one after another.  An item and a command are both one
    invocation.  In a ``--trace 1`` run the same commands go through
    ``chromaplex.cli.main(argv)`` in this process (caches cleared before each
    one), the only way their layers can be traced from here."""

    name = "cli"
    uses_seed = False

    def __init__(self, size: str, src: Path, workdir: Path, golden: dict[str, str]) -> None:
        self.commands = list(CLI_COMMANDS) if size == "full" else list(_TINY_COMMANDS)
        self.report = workdir / "report.jsonl"
        self.golden = golden
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.clear_caches = lambda: None

    def inputs(self, seed: int, r: int) -> list[str]:
        return self.commands

    def bare_interpreter(self) -> None:
        # with pipes, the end is seen when they close; without them a wait
        # with a timeout polls with sleeps of up to 50 ms, blurring the time
        subprocess.run(
            [sys.executable, "-c", "pass"], env=self.env, check=True, capture_output=True, timeout=60
        )

    def make_clock(self, trace_run: bool) -> Clock:
        if trace_run:
            return Clock()
        return Clock(self.bare_interpreter, BARE_REF_S, interval_s=float("inf"))

    def argv(self, command: str) -> list[str]:
        return [str(self.report) if a == REPORT else a for a in CLI_COMMANDS[command]]

    def _subprocess(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "chromaplex.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _in_process(self, argv: list[str]) -> tuple[int, str]:
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = _mod("cli").main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def run(self, commands: list[str], clock: Clock, trace_run: bool) -> Pass:
        self.report.unlink(missing_ok=True)
        call = self._in_process if trace_run else self._subprocess
        outputs: list[Any] = []
        latencies: list[float] = []
        for command in commands:
            argv = self.argv(command)
            if not trace_run:
                clock.calibrate()
            t0 = clock.now()
            try:
                out = call(argv)
            except (OSError, subprocess.SubprocessError) as exc:
                out = exc
            latencies.append(clock.now() - t0)
            outputs.append(out)
        return Pass(outputs, len(commands), sum(latencies), latencies)

    def check(self, commands: list[str], outputs: list) -> tuple[int, list[str]]:
        failed = 0
        lines: list[str] = []
        for command, out in zip(commands, outputs):
            if isinstance(out, Exception):
                failed += 1
                lines.append(f"{command} error {type(out).__name__}: {out}")
                continue
            code, stdout = out
            masked = mask(command, stdout)
            failed += code != 0 or masked != self.golden.get(command)
            lines.append(f"{command} exit={code}\n{masked}")
        return failed, lines
