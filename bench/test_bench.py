"""Tests of the benchmark itself: its checks must catch a wrong result.

    python3 -m pytest bench/test_bench.py -q

Each workload runs one round at its tiny size, first as is and then with one
route's result corrupted from the benchmark side (the program is not
touched); the corrupted run must count failed items and miss its golden
digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

run.load_program()


def tiny_run(name: str, trace: bool = False) -> dict:
    golden = run.load_golden()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.BENCH))
    try:
        wl = run.make_workload(name, "tiny", workdir, golden)
        return run.run_workload(wl, run.DEFAULT_SEED, 0, trace, golden, size="tiny")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def corrupt_scan(monkeypatch) -> None:
    SC = sys.modules["chromaplex.scan"]
    real = SC.inverse_nonneg_check

    def wrong(g, window):
        if g.edges == ((1, 2, 3),):
            return SC.CheckResult(True, None, None)
        return real(g, window)

    monkeypatch.setattr(SC, "inverse_nonneg_check", wrong)


def corrupt_coeffs(monkeypatch) -> None:
    CH = sys.modules["chromaplex.chromatic"]
    real = CH.marked_chromatic_poly

    def wrong(g, m):
        poly = real(g, m)
        return poly + 1 if tuple(m) == (1, 1, 1, 1) else poly

    monkeypatch.setattr(CH, "marked_chromatic_poly", wrong)


def corrupt_arrangements(monkeypatch) -> None:
    AR = sys.modules["chromaplex.arrangement"]
    real = AR.count_complement
    monkeypatch.setattr(AR, "count_complement", lambda arr, p: real(arr, p) + 1)


def corrupt_cli(monkeypatch) -> None:
    real = workloads.Cli._subprocess

    def wrong(self, argv):
        code, stdout = real(self, argv)
        return code, stdout.replace("1", "2") if argv[0] == "series" else stdout

    monkeypatch.setattr(workloads.Cli, "_subprocess", wrong)


CORRUPTIONS = {
    "scan": corrupt_scan,
    "coeffs": corrupt_coeffs,
    "arrangements": corrupt_arrangements,
    "cli": corrupt_cli,
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_checks_pass_then_catch_a_corrupted_route(name, monkeypatch):
    clean = tiny_run(name)
    assert clean["items"] > 0
    assert clean["failed"] == 0
    assert clean["golden_checked"] == 1 and clean["golden_ok"]

    CORRUPTIONS[name](monkeypatch)
    bad = tiny_run(name)
    assert bad["items"] == clean["items"]
    assert bad["failed"] / bad["items"] > clean["failed"] / clean["items"]
    assert not bad["golden_ok"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_matches_untraced(name):
    res = tiny_run(name, trace=True)
    assert res["failed"] == 0 and res["golden_ok"] and res["traced_ok"]
    metrics = run.per_layer_metrics(res, [0.05], [0.06], name == "cli")
    assert [m for m in metrics] == [m for m, _ in run.per_layer_names()]
    busy = {
        "scan": "scan.canonical_form.calls",
        "coeffs": "chromatic.coefficient_via_binomial.calls",
        "arrangements": "arrangement.characteristic_polynomial.calls",
        "cli": "chromatic.brute_force_count.calls",
    }[name]
    assert metrics[busy][0] > 0


def _run_py(args: list[str], cwd: Path, env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args, "bench/run.py", "--workload", "scan", "--seconds", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_optimized_mode_and_other_budgets():
    env = dict(os.environ)
    env.pop("CHROMAPLEX_BUDGET", None)
    proc = _run_py(["-O"], run.ROOT, env)
    assert proc.returncode != 0 and proc.stdout == "" and "-O" in proc.stderr
    proc = _run_py([], run.ROOT, {**env, "CHROMAPLEX_BUDGET": "30"})
    assert proc.returncode != 0 and proc.stdout == "" and "CHROMAPLEX_BUDGET" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_py([], tmp_path, dict(os.environ))
    assert proc.returncode != 0 and proc.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["bench"]


def test_benchmark_json_lists_what_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    res = tiny_run("scan")
    printed = run.end_to_end_metrics(res, [0.05], cli=False)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in printed.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
