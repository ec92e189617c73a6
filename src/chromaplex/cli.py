"""Command-line interface.

Every computation path is reachable from here with JSON or pretty text
output.  Inputs are JSON objects given as a file path, inline (first
non-space character ``{``), or ``-`` for stdin.  Exit codes: 0 success,
2 input error, 3 verification mismatch, 4 enumeration budget refusal.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import types
from functools import partial
from typing import Callable, Sequence

from .errors import BudgetError, VerificationError


def _engine(name: str) -> types.ModuleType:
    """``chromaplex.<name>``, compiled and run at its first attribute access.

    An imported module is returned as it is; any other goes into
    ``sys.modules`` now and onto the package once it has run, as an import
    binds it (unrun there, a walk over the package's names would run it)."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    source = spec.loader

    def run(module: types.ModuleType) -> None:
        module.__spec__.loader = module.__loader__ = source
        source.exec_module(module)
        setattr(sys.modules[__package__], name, module)

    eager = types.SimpleNamespace(create_module=source.create_module, exec_module=run)
    spec.loader = importlib.util.LazyLoader(eager)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AR, CH, HG, SC, SE = map(_engine, ("arrangement", "chromatic", "hypergraph", "scan", "series"))


def _read_input(arg: str) -> dict:
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        with open(arg) as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    return obj


def _vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _dump(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _poly_output(p: SE.QPolynomial, fmt: str, at: int | None) -> str:
    if fmt == "json":
        obj = {"poly": SE.qpoly_to_json(p), "pretty": SE.qpoly_pretty(p)}
        if at is not None:
            obj["at"] = {"q": at, "value": str(p.eval(at))}
        return _dump(obj)
    lines = [SE.qpoly_pretty(p)]
    if at is not None:
        lines.append(f"value at q={at}: {p.eval(at)}")
    return "\n".join(lines)


def _verify(poly: SE.QPolynomial, var: str, xs: Sequence[int], count: Callable, oracle: str) -> int:
    """Exit code 3, reported on stderr, at the first x in xs where poly and
    the oracle's count differ; 0 when they agree at every x."""
    for x in xs:
        expect, got = poly.eval(x), count(x)
        if expect != got:
            sys.stderr.write(
                f"verification mismatch at {var}={x}: polynomial gives "
                f"{expect}, {oracle} counts {got}\n"
            )
            return 3
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_chrom(args: argparse.Namespace) -> int:
    g = HG.hypergraph_from_json(_read_input(args.input))
    m = _vector(args.m)
    if args.method == "partition":
        poly = CH.marked_chromatic_poly(g, m)
    elif args.method == "blowup":
        poly = CH.chromatic_via_blowup(g, m)
    else:
        poly = CH.chordal_marked_chromatic(g, m)
    _emit(_poly_output(poly, args.format, args.at))
    if args.verify:
        return _verify(poly, "q", (2, 3, 4), partial(CH.brute_force_count, g, m), "brute force")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    g = HG.hypergraph_from_json(_read_input(args.input))
    trunc = _vector(args.trunc)
    base = HG.marked_independence_series(g, trunc)
    power = SE.series_int_pow(base, args.q)
    _emit(_dump(SE.series_to_json(power)))
    return 0


def _cmd_arrangement(args: argparse.Namespace) -> int:
    arr = AR.arrangement_from_json(_read_input(args.input))
    if args.action == "charpoly":
        _emit(_poly_output(AR.characteristic_polynomial(arr), args.format, args.at))
        return 0
    if args.action == "regions":
        _emit(str(AR.region_count(arr)))
        return 0
    if args.action == "countfp":
        _emit(str(AR.count_complement(arr, args.p)))
        return 0
    if args.action == "clan":
        m = _vector(args.m)
        _emit(_dump(AR.arrangement_to_json(AR.clan(arr, arr.special, m))))
        return 0
    # markchrom
    m = _vector(args.m)
    poly = AR.marked_chromatic_arrangement(arr, arr.special, m)
    _emit(_poly_output(poly, args.format, args.at))
    if args.verify:
        count = partial(AR.brute_force_arrangement_count, arr, arr.special, m)
        return _verify(poly, "p", AR.verification_primes(arr, m), count, "enumeration")
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    a = HG.system_from_json(_read_input(args.input))
    if args.action == "validate":
        flags = HG.system_validate(a)
        _emit(_dump({"n": a.n, "members": len(a.members), "simple": flags.simple}))
        return 0
    special = _vector(args.special) if args.special else ()
    g = HG.hypergraph_from_system(a, special)
    _emit(_dump(HG.hypergraph_to_json(g)))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    report = SC.scan_hypergraphs(
        args.max_n, m_per_var=args.trunc, dedup=args.dedup, out=args.out, resume=args.resume,
        workers=args.workers,
    )
    _emit(report.summary())
    if report.even_failures or report.odd_passes:
        for key in report.even_failures:
            sys.stderr.write(f"even hypergraph with a negative coefficient: {key}\n")
        for key in report.odd_passes:
            sys.stderr.write(f"odd-edged hypergraph with no negative found: {key}\n")
        return 3
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        _emit(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    g = HG.hypergraph(4, [(1, 2, 3), (3, 4)], special=(1,))
    poly = CH.marked_chromatic_poly(g, (2, 1, 1, 2))
    Q = SE.Q
    want = Q * Q * (Q - 1) * (Q - 1) * (Q * Q - 4) / 4
    check("worked example polynomial", poly == want)
    check(
        "worked example brute force",
        all(poly.eval(q) == CH.brute_force_count(g, (2, 1, 1, 2), q) for q in range(5)),
    )

    k3 = HG.hypergraph(3, [(1, 2), (1, 3), (2, 3)])
    check("triangle regions", AR.region_count(AR.graphical_arrangement(k3)) == 6)

    arr = AR.arrangement_from_json({"n": 3, "special": [], "subspaces": [{"forms": [[1, 1, -1]]}]})
    check(
        "plane marked chromatic at 7",
        AR.marked_chromatic_arrangement(arr, (), (2, 2, 1)).eval(7) == 1470,
    )

    odd = HG.hypergraph(3, [(1, 2, 3)])
    res = SC.inverse_nonneg_check(odd, (2, 2, 2))
    check("odd edge finds a negative", not res.nonneg)
    wit = SC.odd_edge_witness(odd)
    check("odd edge witness value", wit is not None and wit[1] == -6)

    even = HG.hypergraph(4, [(1, 2, 3, 4)])
    check("even edge passes window 2", SC.inverse_nonneg_check(even, (2,) * 4).nonneg)

    return 3 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromaplex",
        description="Exact marked chromatic polynomials, independence series, "
        "and subspace arrangement invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chrom", help="marked chromatic polynomial of a hypergraph")
    p.add_argument("input", help="hypergraph JSON (path, inline, or -)")
    p.add_argument("--m", required=True, help="multiplicities, comma-separated")
    p.add_argument("--method", choices=("partition", "blowup", "chordal"), default="partition")
    p.add_argument("--at", type=int, default=None, help="also evaluate at this q")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check by brute force at q=2,3,4 (exit 3 on mismatch)",
    )
    p.set_defaults(func=_cmd_chrom)

    p = sub.add_parser("series", help="integer power of the marked independence series")
    p.add_argument("input", help="hypergraph JSON (path, inline, or -)")
    p.add_argument("--q", type=int, required=True, help="integer exponent")
    p.add_argument("--trunc", required=True, help="truncation window, comma-separated")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("arrangement", help="subspace arrangement invariants")
    p.add_argument("action", choices=("charpoly", "markchrom", "regions", "countfp", "clan"))
    p.add_argument("input", help="arrangement JSON (path, inline, or -)")
    p.add_argument("--m", help="multiplicities for markchrom/clan")
    p.add_argument("--p", type=int, help="prime for countfp")
    p.add_argument("--at", type=int, default=None, help="also evaluate at this q")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check markchrom by enumeration at the first two primes >= 5 "
        "that are good for its clans (exit 3 on mismatch)",
    )
    p.set_defaults(func=_cmd_arrangement)

    p = sub.add_parser("system", help="independence system utilities")
    p.add_argument("action", choices=("validate", "tograph"))
    p.add_argument("input", help="independence system JSON (path, inline, or -)")
    p.add_argument("--special", default="", help="special vertices for tograph")
    p.set_defaults(func=_cmd_system)

    p = sub.add_parser("scan", help="non-negativity scan over simple hypergraphs")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=2, help="window per vertex (default 2)")
    p.add_argument("--dedup", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None, help="JSON-lines report path (appended)")
    p.add_argument(
        "--resume", action="store_true", help="skip canonical forms already recorded in --out"
    )
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("selftest", help="run built-in golden examples")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "arrangement":
        if args.action in ("markchrom", "clan") and not args.m:
            parser.error(f"arrangement {args.action} needs --m")
        if args.action == "countfp" and args.p is None:
            parser.error("arrangement countfp needs --p")
    try:
        return args.func(args)
    except BudgetError as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return 4
    except VerificationError as exc:
        sys.stderr.write(f"verification: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
