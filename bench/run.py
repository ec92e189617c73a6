"""Benchmark for chromaplex.

    python3 bench/run.py --workload {scan,coeffs,arrangements,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.  One
run is one fresh interpreter and one closed loop: a single caller, each item
starting after the previous one returned.  Work is repeated in rounds, each a
cold job (the program's ``lru_cache``s are cleared before it), until the next
round would end after ``--seconds``; at least one round always runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each round runs twice on the same inputs, untraced and then
traced, and the last line carries the per-layer metrics.  Every item is
checked against an independent route; the outputs of the default seed, and of
every round of ``scan`` and ``cli``, are also compared with golden digests in
``golden.json``.  Lines before the last one describe the run for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
DEFAULT_BUDGET_EXPONENT = 24
SETUP_SAMPLES = 9
WORKLOADS = ("scan", "coeffs", "arrangements", "cli")
# the child scales its own import time with the kernel run right after it,
# on the same core and in the same second
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chromaplex; "
    "d = time.perf_counter() - t; import clock; "
    "print(repr(d * clock.KERNEL_REF_S / clock.kernel_seconds()))"
)

sys.path.insert(0, str(BENCH))
from spans import TARGETS, Tracer  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter


class Refusal(Exception):
    """The run cannot measure the program as users run it."""


def check_environment() -> None:
    if sys.flags.optimize:
        raise Refusal(
            "refusing to run under python -O: it strips the assert gates in "
            "system_series, region_count and odd_edge_witness"
        )
    raw = os.environ.get("CHROMAPLEX_BUDGET")
    if raw is not None and raw.strip() != str(DEFAULT_BUDGET_EXPONENT):
        raise Refusal(
            f"refusing to run with CHROMAPLEX_BUDGET={raw!r}: the budget changes "
            f"which calls refuse; unset it or use the default {DEFAULT_BUDGET_EXPONENT}"
        )
    if not (SRC / "chromaplex" / "__init__.py").is_file():
        raise Refusal(f"no chromaplex sources at {SRC.relative_to(ROOT)}/chromaplex")


def load_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chromaplex  # noqa: F401
    import chromaplex.cli  # noqa: F401


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(bare_too: bool) -> tuple[list[float], list[float]]:
    """Import time of chromaplex in SETUP_SAMPLES fresh interpreters, in
    reference seconds measured inside each child, and with ``bare_too`` the
    raw time of as many bare interpreters."""
    env = child_env()
    probe_env = {**env, "PYTHONPATH": os.pathsep.join([str(BENCH), env["PYTHONPATH"]])}
    imports, bare = [], []
    for _ in range(SETUP_SAMPLES):
        if bare_too:
            t0 = perf()
            subprocess.run(
                [sys.executable, "-c", "pass"], env=env, check=True, capture_output=True, timeout=60
            )
            bare.append(perf() - t0)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=probe_env, check=True, capture_output=True, text=True, timeout=60,
        )
        imports.append(float(proc.stdout))
    return imports, bare


def environment_record() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "chromaplex").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "budget_exponent": DEFAULT_BUDGET_EXPONENT,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def find_caches() -> dict[str, object]:
    """Every lru_cache in chromaplex, by defining module and name."""
    caches: dict[str, object] = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "chromaplex" or name.startswith("chromaplex.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches[f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"] = value
    return caches


def load_golden() -> dict:
    with GOLDEN.open() as fh:
        return json.load(fh)


def make_workload(name: str, size: str, workdir: Path, golden: dict):
    if name == "scan":
        return workloads.Scan(size)
    if name == "coeffs":
        return workloads.Coeffs(size)
    if name == "arrangements":
        return workloads.Arrangements(size)
    return workloads.Cli(size, SRC, workdir, golden.get("cli", {}))


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _counters() -> dict:
    AR = sys.modules["chromaplex.arrangement"]

    def terms(args, result, missed):
        return {"terms_out": len(result.terms)}

    def flats(args, result, missed):
        return {"flats": len(AR._poset_data(args[0]))} if missed else {}

    def points(args, result, missed):
        return {"points": args[1] ** args[0].n}

    return {
        "series.series_inverse": terms,
        "series.series_mul": terms,
        "arrangement.characteristic_polynomial": flats,
        "arrangement.count_complement": points,
    }


# per-layer counts recorded at span boundaries, and the cache each hit ratio
# is read from
SPAN_COUNTS = (
    ("series.series_inverse", "terms_out"),
    ("series.series_mul", "terms_out"),
    ("arrangement.characteristic_polynomial", "flats"),
    ("arrangement.count_complement", "points"),
)
HIT_RATIOS = (
    ("series.binomial_poly.hit_ratio", "series.binomial_poly"),
    ("chromatic.partition_cache.hit_ratio", "chromatic._partition_formula"),
    ("arrangement.characteristic_polynomial.hit_ratio", "arrangement.characteristic_polynomial"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in output order."""
    names = []
    for mod, fn in TARGETS:
        names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    names += [(f"{q}.{c}", "count") for q, c in SPAN_COUNTS]
    names += [(name, "ratio") for name, _ in HIT_RATIOS]
    names += [
        ("scan.classes_per_labelled", "ratio"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def run_workload(
    wl, seed: int, seconds: float, trace: bool, golden: dict, size: str = "full"
) -> dict:
    """Rounds of one workload until the time is up; returns the raw
    measurements (see ``main`` for how they become metrics)."""
    clock = wl.make_clock(trace)
    caches = find_caches()
    cache_stats = {name: [0, 0] for name in caches}

    def clear_caches() -> None:
        for fn in caches.values():
            fn.cache_clear()

    if isinstance(wl, workloads.Cli):
        wl.clear_caches = clear_caches
    golden_digest = golden.get("digests", {}).get(f"{wl.name}/{size}")
    tracer = Tracer(_counters()) if trace else None
    res = {
        "rounds": 0, "items": 0, "failed": 0, "rates": [], "raw_rates": [], "latencies_s": [],
        "golden_checked": 0, "golden_ok": True, "traced_ok": True,
        "untraced_s": 0.0, "traced_s": 0.0, "tracer": tracer, "cache_stats": cache_stats,
    }
    start = perf()
    while True:
        r = res["rounds"]
        inputs = wl.inputs(seed, r)
        clear_caches()
        clock.now()
        raw0 = clock.raw_total
        plain = wl.run(inputs, clock, trace)
        raw_seconds = clock.raw_total - raw0
        failed, lines = wl.check(inputs, plain.outputs)
        round_digest = digest(lines)
        if not wl.uses_seed or (seed == DEFAULT_SEED and r == 0):
            res["golden_checked"] += 1
            res["golden_ok"] &= round_digest == golden_digest
        if trace:
            clear_caches()
            clock.on_kernel = tracer.discount
            with tracer:
                traced = wl.run(inputs, clock, True)
            clock.on_kernel = None
            for name, fn in caches.items():
                info = fn.cache_info()
                cache_stats[name][0] += info.hits
                cache_stats[name][1] += info.misses
            t_failed, t_lines = wl.check(inputs, traced.outputs)
            res["traced_ok"] &= digest(t_lines) == round_digest and t_failed == failed
            res["untraced_s"] += plain.seconds
            res["traced_s"] += traced.seconds
        res["rounds"] += 1
        res["items"] += plain.items
        res["failed"] += failed
        res["rates"].append(plain.items / plain.seconds)
        res["raw_rates"].append(plain.items / raw_seconds)
        res["latencies_s"] += plain.latencies_s
        elapsed = perf() - start
        if elapsed + elapsed / res["rounds"] > seconds:
            break
    return res


def end_to_end_metrics(res: dict, setup_imports: list[float], cli: bool) -> dict:
    lat_ms = sorted(1000 * v for v in res["latencies_s"])
    deciles = statistics.quantiles(lat_ms, n=10)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "items_per_s": (statistics.median(res["rates"]), "1/s"),
        "cmd_p50_ms": (statistics.median(lat_ms), "ms"),
        "cmd_p90_ms": (deciles[8], "ms"),
        "setup_s": (statistics.median(setup_imports), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(res: dict, setup_imports: list[float], bare: list[float], cli: bool) -> dict:
    tracer = res["tracer"]
    values: dict[str, float] = {}
    for qualname, span in tracer.spans.items():
        values[f"{qualname}.calls"] = span.calls
        values[f"{qualname}.self_s"] = span.self_time
    for qualname, counter in SPAN_COUNTS:
        values[f"{qualname}.{counter}"] = tracer.spans[qualname].counts.get(counter, 0)
    for metric, cache in HIT_RATIOS:
        hits, misses = res["cache_stats"][cache]
        values[metric] = hits / (hits + misses) if hits + misses else 0.0
    canon_calls = tracer.spans["scan.canonical_form"].calls
    values["scan.classes_per_labelled"] = (
        res["items"] / canon_calls if canon_calls and not cli else 0.0
    )
    values["cli.interpreter_ms"] = 1000 * statistics.median(bare)
    values["cli.import_ms"] = 1000 * statistics.median(setup_imports)
    # in the cli workload the untraced pass is the in-process main(argv) one
    values["cli.main_ms"] = 1000 * statistics.median(res["latencies_s"]) if cli else 0.0
    values["trace.overhead_ratio"] = res["traced_s"] / res["untraced_s"] - 1
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_environment()
        load_program()
    except (Refusal, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment_record()
    golden = load_golden()
    setup_imports, bare = measure_setup(bare_too=bool(args.trace))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        wl = make_workload(args.workload, "full", workdir, golden)
        res = run_workload(wl, args.seed, args.seconds, bool(args.trace), golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cli = args.workload == "cli"
    metrics = (
        per_layer_metrics(res, setup_imports, bare, cli)
        if args.trace else end_to_end_metrics(res, setup_imports, cli)
    )
    correct = res["failed"] == 0 and res["golden_ok"] and res["traced_ok"]
    seed_note = "" if wl.uses_seed else " (fixed inputs; the seed is ignored)"
    print(f"# env {json.dumps(env)}")
    print(
        f"# workload={args.workload} seed={args.seed}{seed_note} trace={args.trace} "
        f"rounds={res['rounds']} raw_items_per_s={statistics.median(res['raw_rates']):.6g} "
        f"attempted={res['items']} failed={res['failed']} "
        f"failed_ratio={res['failed'] / res['items']:.6g} "
        f"cmd_samples={len(res['latencies_s'])} "
        f"golden={'ok' if res['golden_ok'] else 'MISMATCH'} ({res['golden_checked']} rounds checked) "
        f"traced_digest={'same' if res['traced_ok'] else 'DIFFERENT'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["items"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
