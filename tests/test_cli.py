import importlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chromaplex
from chromaplex import budget
import chromaplex.cli as cli
import chromaplex.scan as scan_module
from chromaplex.cli import build_parser, main
from chromaplex.errors import VerificationError

WORKED = '{"n":4,"edges":[[1,2,3],[3,4]],"special":[1]}'
WORKED_PRETTY = "1/4*q^6 - 1/2*q^5 - 3/4*q^4 + 2*q^3 - q^2"
BRAID3 = '{"n":3,"special":[],"subspaces":[{"forms":[[1,-1,0]]},{"forms":[[1,0,-1]]},{"forms":[[0,1,-1]]}]}'
PLANE = '{"n":3,"special":[],"subspaces":[{"forms":[[1,1,-1]]}]}'


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chrom_pretty(capsys):
    code, out, err = run(["chrom", WORKED, "--m", "2,1,1,2", "--at", "7"], capsys)
    assert code == 0
    assert err == ""
    assert out == WORKED_PRETTY + "\nvalue at q=7: 19845\n"


def test_chrom_json(capsys):
    code, out, err = run(
        ["chrom", WORKED, "--m", "2,1,1,2", "--at", "7", "--format", "json"], capsys
    )
    assert code == 0
    assert out == (
        '{"poly":{"coeffs":["0","0","-1","2","-3/4","-1/2","1/4"]},'
        f'"pretty":"{WORKED_PRETTY}",'
        '"at":{"q":7,"value":"19845"}}\n'
    )
    obj = json.loads(out)
    assert obj["at"]["value"] == "19845"


def test_chrom_methods_agree(capsys):
    code, base, _ = run(["chrom", WORKED, "--m", "2,1,1,2"], capsys)
    assert code == 0
    code, blowup, _ = run(["chrom", WORKED, "--m", "2,1,1,2", "--method", "blowup"], capsys)
    assert code == 0
    assert blowup == base
    path = '{"n":3,"edges":[[1,2],[2,3]],"special":[]}'
    code, a, _ = run(["chrom", path, "--m", "2,1,2"], capsys)
    assert code == 0
    code, b, _ = run(["chrom", path, "--m", "2,1,2", "--method", "chordal"], capsys)
    assert code == 0
    assert a == b


def test_chrom_verify_keeps_output(capsys):
    code, plain, _ = run(["chrom", WORKED, "--m", "1,1,1,1"], capsys)
    assert code == 0
    code, verified, err = run(["chrom", WORKED, "--m", "1,1,1,1", "--verify"], capsys)
    assert code == 0
    assert err == ""
    assert verified == plain


def test_chrom_input_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(WORKED)
    code, from_file, _ = run(["chrom", str(path), "--m", "2,1,1,2"], capsys)
    assert code == 0
    assert from_file == WORKED_PRETTY + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED))
    code, from_stdin, _ = run(["chrom", "-", "--m", "2,1,1,2"], capsys)
    assert code == 0
    assert from_stdin == from_file


def test_series_frozen(capsys):
    code, out, err = run(
        ["series", '{"n":2,"edges":[[1,2]],"special":[]}', "--q", "-1", "--trunc", "2,2"],
        capsys,
    )
    assert code == 0
    assert out == (
        '{"n":2,"trunc":[2,2],"terms":['
        '{"e":[0,0],"c":"1"},{"e":[0,1],"c":"-1"},{"e":[1,0],"c":"-1"},'
        '{"e":[0,2],"c":"1"},{"e":[1,1],"c":"2"},{"e":[2,0],"c":"1"},'
        '{"e":[1,2],"c":"-3"},{"e":[2,1],"c":"-3"},{"e":[2,2],"c":"6"}]}\n'
    )


def test_series_deterministic(capsys):
    argv = ["series", WORKED, "--q", "2", "--trunc", "1,1,1,1"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    code, second, _ = run(argv, capsys)
    assert first == second


def test_arrangement_charpoly(capsys):
    code, out, _ = run(["arrangement", "charpoly", BRAID3], capsys)
    assert code == 0
    assert out == "q^3 - 3*q^2 + 2*q\n"
    code, out, _ = run(
        ["arrangement", "charpoly", BRAID3, "--at", "5", "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["at"] == {"q": 5, "value": "60"}


def test_arrangement_regions_countfp(capsys):
    code, out, _ = run(["arrangement", "regions", BRAID3], capsys)
    assert code == 0
    assert out == "6\n"
    code, out, _ = run(["arrangement", "countfp", PLANE, "--p", "5"], capsys)
    assert code == 0
    assert out == "100\n"


def test_arrangement_markchrom(capsys):
    code, out, err = run(
        ["arrangement", "markchrom", PLANE, "--m", "2,2,1", "--at", "7"], capsys
    )
    assert code == 0
    assert err == ""
    assert out.splitlines()[1] == "value at q=7: 1470"
    code, verified, err = run(
        ["arrangement", "markchrom", PLANE, "--m", "2,2,1", "--at", "7", "--verify"],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert verified == out


def test_arrangement_markchrom_verify_skips_bad_primes(capsys):
    """The lines x1 + 2 x2 = 0 and x1 = 3 x2 coincide over F_5, where the
    coloring count is not the polynomial's value; --verify passes over 5 and
    checks at 7 and 11."""
    lines = '{"n":2,"special":[],"subspaces":[{"forms":[[1,2]]},{"forms":[[1,-3]]}]}'
    argv = ["arrangement", "markchrom", lines, "--m", "1,1"]
    assert run(argv, capsys) == (0, "q^2 - 2*q + 1\n", "")
    assert run(argv + ["--verify"], capsys) == (0, "q^2 - 2*q + 1\n", "")


def test_arrangement_markchrom_verify_certifies_large_clans(capsys):
    """At m = (3, 2, 2) the finest clan has 41 rows in dimension 7; its
    primes are certified within the default budget."""
    arr = '{"n":3,"special":[1,2],"subspaces":[{"forms":[[1,1,-1]]},{"forms":[[1,0,-1],[0,1,0]]}]}'
    want = "1/24*q^7 - 3/8*q^6 + 43/24*q^5 - 37/8*q^4 + 17/3*q^3 - 5/2*q^2\n"
    argv = ["arrangement", "markchrom", arr, "--m", "3,2,2", "--verify"]
    assert run(argv, capsys) == (0, want, "")


def test_verify_reports_the_first_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_count", lambda g, m, q: -1)
    assert run(["chrom", WORKED, "--m", "2,1,1,2", "--verify"], capsys) == (
        3,
        WORKED_PRETTY + "\n",
        "verification mismatch at q=2: polynomial gives 0, brute force counts -1\n",
    )
    monkeypatch.setattr(cli, "brute_force_arrangement_count", lambda arr, sp, m, p: -1)
    assert run(["arrangement", "markchrom", PLANE, "--m", "1,1,1", "--verify"], capsys) == (
        3,
        "q^3 - q^2\n",
        "verification mismatch at p=5: polynomial gives 100, enumeration counts -1\n",
    )


def test_verification_error_exits_3(capsys, monkeypatch):
    def disagreeing(g, m):
        raise VerificationError("two routes disagree")

    monkeypatch.setattr(cli, "marked_chromatic_poly", disagreeing)
    assert run(["chrom", WORKED, "--m", "2,1,1,2"], capsys) == (
        3,
        "",
        "verification: two routes disagree\n",
    )


def test_arrangement_clan(capsys):
    code, out, _ = run(["arrangement", "clan", PLANE, "--m", "1,1,1"], capsys)
    assert code == 0
    assert out == '{"n":3,"special":[],"subspaces":[{"forms":[[1,1,-1]]}]}\n'
    code, out, _ = run(["arrangement", "clan", PLANE, "--m", "2,1,1"], capsys)
    assert code == 0
    assert out == (
        '{"n":4,"special":[],"subspaces":'
        '[{"forms":[[0,1,1,-1]]},{"forms":[[1,0,1,-1]]}]}\n'
    )


def test_system_commands(capsys):
    code, out, _ = run(["system", "validate", '{"n":2,"members":[[],[1],[2]]}'], capsys)
    assert code == 0
    assert out == '{"n":2,"members":3,"simple":true}\n'
    code, out, _ = run(["system", "validate", '{"n":2,"members":[[],[1]]}'], capsys)
    assert code == 0
    assert out == '{"n":2,"members":2,"simple":false}\n'
    code, out, _ = run(
        ["system", "tograph", '{"n":3,"members":[[],[1],[2],[3],[1,3]]}'], capsys
    )
    assert code == 0
    assert out == '{"n":3,"edges":[[1,2],[2,3]],"special":[]}\n'
    code, out, _ = run(
        ["system", "tograph", '{"n":3,"members":[[],[1],[2],[3],[1,3]]}', "--special", "1,3"],
        capsys,
    )
    assert code == 0
    assert out == '{"n":3,"edges":[[1,2],[2,3]],"special":[1,3]}\n'


def test_scan_command(capsys):
    code, out, err = run(["scan", "--max-n", "3"], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith(
        "scanned 8 hypergraphs (n<=3, window 2 per vertex, dedup=on, 0 skipped): "
        "7 even all nonneg apart from 0, 1 odd-edged all negative apart from 0;"
    )
    code, out, _ = run(["scan", "--max-n", "3", "--no-dedup"], capsys)
    assert code == 0
    assert out.startswith("scanned 12 hypergraphs")


def test_scan_out_resume(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run(["scan", "--max-n", "3", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 8
    assert lines[0] == '{"version":"0.1.0","window":2}'
    code, out, _ = run(
        ["scan", "--max-n", "3", "--out", str(out_path), "--resume"], capsys
    )
    assert code == 0
    assert out.startswith("scanned 0 hypergraphs (n<=3, window 2 per vertex, dedup=on, 12 skipped)")
    assert out_path.read_text().splitlines() == lines
    code, out, err = run(
        ["scan", "--max-n", "3", "--trunc", "0", "--out", str(out_path), "--resume"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: report") and "header" in err
    assert out_path.read_text().splitlines() == lines


def test_scan_truncation_failure_exit(capsys):
    code, out, err = run(["scan", "--max-n", "3", "--trunc", "0"], capsys)
    assert code == 3
    assert "odd-edged hypergraph with no negative found" in err


def test_scan_even_negative_exit(capsys, monkeypatch):
    """A verdict that contradicts parity exits 3: here every check is made to
    report a negative, so each of the 7 even classes to n = 3 is named."""
    monkeypatch.setattr(scan_module, "_work", lambda item: scan_module.CheckResult(False, None, None))
    code, out, err = run(["scan", "--max-n", "3"], capsys)
    assert code == 3
    assert out.startswith(
        "scanned 8 hypergraphs (n<=3, window 2 per vertex, dedup=on, 0 skipped): "
        "7 even all nonneg apart from 7, 1 odd-edged all negative apart from 0;"
    )
    lines = err.splitlines()
    assert len(lines) == 7
    assert lines[0] == "even hypergraph with a negative coefficient: [1,[]]"
    assert all(line.startswith("even hypergraph with a negative coefficient: [") for line in lines)


def test_scan_budget_refusal(capsys, monkeypatch):
    monkeypatch.setattr(budget, "_limit", 1 << budget.DEFAULT_EXPONENT)
    code, out, err = run(["scan", "--max-n", "7"], capsys)
    assert code == 4
    assert err.startswith("budget:")
    assert out == ""


def test_selftest(capsys):
    code, out, err = run(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("pass  ") for line in lines)


def test_selftest_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "region_count", lambda arr: 5)
    code, out, err = run(["selftest"], capsys)
    assert code == 3
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 7
    assert [line for line in lines if not line.startswith("pass  ")] == ["FAIL  triangle regions"]


def test_input_errors_exit_2(capsys, tmp_path):
    code, out, err = run(["chrom", "{oops", "--m", "1"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["chrom", str(tmp_path / "missing.json"), "--m", "1"], capsys)
    assert code == 2
    code, _, err = run(["chrom", WORKED, "--m", "1,1"], capsys)
    assert code == 2
    code, _, err = run(["chrom", WORKED, "--m", "2,1,1,2", "--method", "chordal"], capsys)
    assert code == 2
    code, _, err = run(["arrangement", "countfp", PLANE, "--p", "6"], capsys)
    assert code == 2
    code, _, err = run(["chrom", '{"n":1,"edges":[],"special":[]}', "--m", "bad"], capsys)
    assert code == 2
    code, _, err = run(["series", WORKED, "--q", "1", "--trunc", "1,1"], capsys)
    assert code == 2


def test_stdin_must_hold_a_json_object(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
    assert run(["chrom", "-", "--m", "1,1"], capsys) == (
        2,
        "",
        "error: input must be a JSON object\n",
    )


def test_malformed_json_objects_exit_2(capsys):
    cases = [
        ["chrom", '{"n":2,"edges":5}', "--m", "1,1"],
        ["chrom", '{"n":2,"edges":[],"special":3}', "--m", "1,1"],
        ["arrangement", "charpoly", '{"n":2,"subspaces":[5]}'],
        ["system", "validate", '{"n":2,"members":[[1],7]}'],
        # JSON integers only: no float, string or boolean read as one
        ["chrom", '{"n":2.7,"edges":[[1,2]]}', "--m", "1,1"],
        ["chrom", '{"n":"2","edges":[[1,2]]}', "--m", "1,1"],
        ["chrom", '{"n":2,"edges":["12"]}', "--m", "1,1"],
        ["chrom", '{"n":2,"edges":[[1,2]],"special":[true]}', "--m", "1,1"],
        ["arrangement", "charpoly", '{"n":2,"subspaces":[{"forms":[[1.5,1]]}]}'],
        # a vertex outside 1..n
        ["chrom", '{"n":2,"edges":[[1,3]]}', "--m", "1,1"],
    ]
    for argv in cases:
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: malformed "), err


def test_json_arrays_are_not_read_from_strings_or_objects(capsys):
    """A string or an object where a JSON array belongs is refused, not
    iterated as an empty or one-member array, at every level."""
    cases = [
        (["chrom", '{"n":2,"edges":{},"special":""}', "--m", "1,1"], "hypergraph", "edges: {}"),
        (["chrom", '{"n":2,"edges":[],"special":""}', "--m", "1,1"], "hypergraph", "special: ''"),
        (["arrangement", "charpoly", '{"n":2,"special":{},"subspaces":{}}'], "arrangement",
         "subspaces: {}"),
        (["arrangement", "charpoly", '{"n":2,"subspaces":""}'], "arrangement", "subspaces: ''"),
        (["arrangement", "charpoly", '{"n":2,"subspaces":[{"forms":["ab"]}]}'], "arrangement",
         "forms: 'ab'"),
        (["arrangement", "charpoly", '{"n":2,"special":"","subspaces":[]}'], "arrangement",
         "special: ''"),
        (["system", "validate", '{"n":2,"members":[[],"",{}]}'], "independence-system",
         "members: ''"),
    ]
    for argv, kind, what in cases:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == f"error: malformed {kind} object: {what} is not a JSON array\n", err


def test_internal_type_error_is_not_input_error(capsys, monkeypatch):
    def broken(g, m):
        raise TypeError("internal fault")

    monkeypatch.setattr(cli, "marked_chromatic_poly", broken)
    with pytest.raises(TypeError, match="internal fault"):
        main(["chrom", WORKED, "--m", "2,1,1,2"])


def test_missing_required_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arrangement", "markchrom", PLANE])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["arrangement", "countfp", PLANE])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_help_lists_commands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("chrom", "series", "arrangement", "system", "scan", "selftest"):
        assert name in text


def run_process(command, extra_env=None):
    """Run ``command`` as a child process that imports the ``chromaplex``
    package under test (first on ``PYTHONPATH``), not whatever is installed,
    with ``extra_env`` added to this process's environment."""
    package_root = str(Path(chromaplex.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(extra_env or {}), "PYTHONPATH": pythonpath}
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def test_budget_is_read_from_the_environment():
    """The environment variable is the one setting a user has: K8's poset
    walk (4,140 flats times 28 members) is refused at 2^16 with exit 4, the
    scan past the antichain bounds at 2^62, and a malformed value exits 2."""
    pairs = itertools.combinations(range(8), 2)
    forms = [[int(k == i) - int(k == j) for k in range(8)] for i, j in pairs]
    k8 = json.dumps({"n": 8, "special": [], "subspaces": [{"forms": [f]} for f in forms]})
    cases = [
        ("16", ["arrangement", "charpoly", k8], 4, "budget: refusing intersection poset walk"),
        ("62", ["scan", "--max-n", "8"], 4, "budget: refusing hypergraph scan up to n=8"),
        ("abc", ["chrom", WORKED, "--m", "2,1,1,2"], 2,
         "error: CHROMAPLEX_BUDGET must be an integer, got 'abc'\n"),
        ("63", ["chrom", WORKED, "--m", "2,1,1,2"], 2,
         "error: CHROMAPLEX_BUDGET must be between 0 and 62, got 63\n"),
    ]
    for value, argv, code, err in cases:
        proc = run_process([sys.executable, "-m", "chromaplex", *argv], {budget.ENV_VAR: value})
        assert (proc.returncode, proc.stdout) == (code, ""), (value, argv)
        assert proc.stderr.startswith(err), (value, argv, proc.stderr)


def test_readme_budget_example_is_refused():
    """The README's budget example, run as written: the scan to n = 6 is
    refused before it starts, its estimate named against the budget 2^22."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (line,) = [t for t in readme.splitlines() if t.startswith(f"{budget.ENV_VAR}=")]
    assignment, program, *argv = line.split()
    name, _, value = assignment.partition("=")
    assert (name, program) == (budget.ENV_VAR, "chromaplex")
    proc = run_process([sys.executable, "-m", "chromaplex", *argv], {name: value})
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        "budget: refusing hypergraph scan up to n=6: estimated enumeration size 7836132 "
        "exceeds budget 4194304 (raise CHROMAPLEX_BUDGET to allow)\n"
    )


def test_budget_is_read_once(monkeypatch):
    """The first read of the budget is kept for the rest of the process."""
    monkeypatch.setattr(budget, "_limit", None)
    monkeypatch.delenv("CHROMAPLEX_BUDGET", raising=False)
    assert budget.budget_limit() == 1 << 24
    monkeypatch.setenv("CHROMAPLEX_BUDGET", "4")
    assert budget.budget_limit() == 1 << 24
    monkeypatch.setattr(budget, "_limit", None)
    assert budget.budget_limit() == 1 << 4

def test_console_script_entry_point():
    # ``python -m chromaplex`` runs what the installed console script runs:
    # ``sys.exit(chromaplex.cli.main())``, in a separate process.
    proc = run_process([sys.executable, "-m", "chromaplex", "arrangement", "regions", BRAID3])
    assert proc.returncode == 0
    assert proc.stdout == "6\n"
    proc = run_process([sys.executable, "-m", "chromaplex", "chrom", "{oops", "--m", "1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    # Last, so that a missing tomllib (Python 3.10) never skips the checks above.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["chromaplex"]
    assert target == "chromaplex.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(
    shutil.which("chromaplex") is None, reason="chromaplex console script not installed"
)
def test_installed_console_script():
    proc = run_process(["chromaplex", "arrangement", "regions", BRAID3])
    assert proc.returncode == 0
    assert proc.stdout == "6\n"
