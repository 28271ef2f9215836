"""Command line behavior: outputs, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from lisenum import CheckResult, GridSpec, VerificationReport, oracle, pipeline
from lisenum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_basic(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "9", "--k", "2")
    assert (code, out, err) == (0, "55\n", "")


def test_count_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "7", "--k", "3", "--method", "oracle")
    assert (code, out) == (0, "104\n")


def test_count_all_methods_agree(capsys):
    outputs = set()
    for method in ("formula", "oracle", "kernel", "cramer"):
        code, out, _ = run_cli(capsys, "count", "--n", "8", "--k", "3", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {"191\n"}


def test_count_domain_error(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "3", "--k", "2")
    assert code == 2
    assert out == ""
    assert "n >= 2k violated" in err


def test_count_bad_method_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "4", "--k", "1", "--method", "guess"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "2", "--n-from", "4", "--n-to", "9", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:] == [
        "B(1),1,5,11,19,29,41",
        "B(2),2,4,6,8,10,12",
        "B(3),2,2,2,2,2,2",
        "A,5,11,19,29,41,55",
    ]


def test_table_markdown_default(capsys):
    code, out, _ = run_cli(capsys, "table", "--k", "1", "--n-from", "2", "--n-to", "6")
    assert code == 0
    assert "| #B(1) | 0 | 1 | 2 | 3 | 4 |" in out
    assert "| #A | 1 | 2 | 3 | 4 | 5 |" in out


def test_table_k0(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "0", "--n-from", "1", "--n-to", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "B(1),1,1,1,1,1"
    assert lines[2] == "A,1,1,1,1,1"


def test_table_one_column(capsys):
    assert run_cli(
        capsys, "table", "--k", "2", "--n-from", "5", "--n-to", "5", "--format", "csv"
    ) == (0, "component,n=5\nB(1),5\nB(2),4\nB(3),2\nA,11\n", "")


def test_table_json_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "1", "--n-from", "2", "--n-to", "3", "--format", "json"
    )
    assert (code, out) == (0, """{
  "components": [
    [
      "0",
      "1"
    ],
    [
      "1",
      "1"
    ]
  ],
  "k": 1,
  "n_values": [
    2,
    3
  ],
  "totals": [
    "1",
    "2"
  ]
}
""")


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "3", "--n-from", "6", "--n-to", "11", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"] == ["47", "104", "191", "314", "479", "692"]


def test_table_domain_error(capsys):
    code, _, err = run_cli(capsys, "table", "--k", "2", "--n-from", "3", "--n-to", "9")
    assert code == 2
    assert "n >= 2k violated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "9", "--k", "3", "--method", "kernel"),
        ("table", "--k", "3", "--n-from", "6", "--n-to", "9"),
    ],
)
def test_kernel_conjecture_violation_exits_2(monkeypatch, capsys, argv, fresh_kernel_memo):
    monkeypatch.setattr(pipeline, "solve_bareiss", lambda a, v: (Fraction(1, 2), Fraction(-1)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: kernel solve at k=3 is not a nonnegative integer vector: [1/2, -1]\n"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "1432\n2413\n2431\n3412\n3421\n"


def test_enumerate_prefix(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--k", "2", "--prefix", "3")
    assert (code, out) == (0, "3412\n3421\n")


def test_enumerate_empty_prefix_is_success(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--k", "2", "--prefix", "4")
    assert (code, out, err) == (0, "", "")


def test_enumerate_prefix_out_of_range(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--k", "2", "--prefix", "5")
    assert code == 2
    assert "prefix" in err


@pytest.mark.parametrize(
    "n, k, prefix",
    [
        (9, 4, None),  # digit strings
        (10, 4, None),  # comma-separated from n = 10 on
        (0, 0, None),  # one empty line: the empty permutation
        (10, 4, 2),
        (10, 4, 6),  # beyond k+1: nothing
        # k = 0: one head-only block, where a stray separator could show
        (1, 0, None),
        (10, 0, None),
        (12, 0, None),
        (12, 6, 7),  # 720 members, one block of 6 free values: two writes
    ],
)
def test_enumerate_prints_format_perm_lines(capsys, n, k, prefix):
    argv = ["enumerate", "--n", str(n), "--k", str(k)]
    if prefix is not None:
        argv += ["--prefix", str(prefix)]
    members = [oracle.format_perm(mu) for mu in oracle.iter_class(n, k, prefix)]
    text = "".join(line + "\n" for line in members)
    assert "".join(oracle.lines(n, k, prefix)) == text
    assert run_cli(capsys, *argv) == (0, text, "")


# sha256 of `enumerate --n 11 --k 5`: 24,694 lines, several chunks
ENUMERATE_11_5_SHA256 = "79da1cdbb8251faeedc65ca2315d6abc5f73d9df068d6de41fcd4ef9939c3286"


def test_enumerate_writes_pinned_stdout_a_chunk_at_a_time(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["enumerate", "--n", "11", "--k", "5"]) == 0
    assert len(writes) > 1
    # every write but the last holds exactly one chunk of 512 lines (README)
    assert all(text.count("\n") == 512 for text in writes[:-1])
    assert 0 < writes[-1].count("\n") <= 512
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == ENUMERATE_11_5_SHA256


@pytest.mark.parametrize(
    "n, k, prefix, lines_per_write",
    [
        (9, 4, None, [512, 512, 381]),  # single-digit lines
        (12, 6, 7, [512, 208]),  # one block of 720 lines
        (4, 2, 4, []),  # nothing to list: no write at all
        (0, 0, None, [1]),  # one empty line
        (12, 6, 6, [512] * 7 + [16]),  # five blocks of 720 lines: chunks cross block ends
    ],
)
def test_enumerate_cuts_writes_at_512_lines(monkeypatch, n, k, prefix, lines_per_write):
    argv = ["enumerate", "--n", str(n), "--k", str(k)]
    if prefix is not None:
        argv += ["--prefix", str(prefix)]
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(argv) == 0
    assert [text.count("\n") for text in writes] == lines_per_write
    assert all(text.endswith("\n") for text in writes)
    members = oracle.iter_class(n, k, prefix)
    assert "".join(writes) == "".join(oracle.format_perm(mu) + "\n" for mu in members)


def test_enumerate_into_closed_pipe_exits_2():
    # the reader takes one line and leaves, as `| head -1` does
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
        [sys.executable, "-m", "lisenum", "enumerate", "--n", "12", "--k", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    ) as proc:
        assert proc.stdout.readline() == "1,2,3,4,5,12,11,10,9,8,7,6\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert "error: [Errno 32] Broken pipe" in err.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "20", "--k", "10"),
        ("enumerate", "--n", "20", "--k", "10", "--prefix", "1"),
        ("count", "--n", "20", "--k", "10", "--method", "oracle"),
    ],
)
def test_brute_force_over_budget_exits_2(monkeypatch, capsys, argv):
    def entered(*args):
        raise AssertionError("the brute-force walk was entered")

    for name in ("_roots", "_place", "_count", "_blocks", "iter_class"):
        monkeypatch.setattr(oracle, name, entered)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: brute force at n=20, k=10: 670442572800 candidates exceeds budget 1000000\n"
    )


@pytest.mark.parametrize("argv, error", [
    (("enumerate", "--n", "30", "--k", "20"), "error: n >= 2k violated: n=30, k=20\n"),
    (("count", "--n", "-1", "--k", "0", "--method", "oracle"),
     "error: n must be nonnegative, got n=-1\n"),
])
def test_brute_force_checks_the_size_before_the_budget(capsys, argv, error):
    assert run_cli(capsys, *argv) == (2, "", error)


def test_brute_force_budget_is_inclusive(monkeypatch, capsys):
    # (7, 3) has C(7, 3) * 3! = 210 candidates
    argv = ("count", "--n", "7", "--k", "3", "--method", "oracle")
    monkeypatch.setattr(pipeline, "DEFAULT_BUDGET", 210)
    assert run_cli(capsys, *argv) == (0, "104\n", "")
    monkeypatch.setattr(pipeline, "DEFAULT_BUDGET", 209)
    assert run_cli(capsys, *argv)[:2] == (2, "")
    assert run_cli(capsys, "enumerate", "--n", "7", "--k", "3")[:2] == (2, "")


def test_brute_force_commands_skip_the_verify_n_cap(capsys):
    # the n cap limits the verify grid; one named cell meets the budget alone
    n = pipeline.ORACLE_N_CAP + 2
    assert run_cli(capsys, "count", "--n", str(n), "--k", "1", "--method", "oracle") == (
        0, f"{n - 1}\n", "",
    )
    code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--k", "1")
    assert (code, len(out.splitlines())) == (0, n - 1)


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _run_capped(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child under a 1 GiB address space and a 20 s timeout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "lisenum", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_cap_address_space,
        capture_output=True, text=True, timeout=20,
    )


def test_out_of_memory_exits_2():
    # one candidate fits the budget, but the walk would build an n-entry
    # prefix: tens of GB, so the child runs capped
    done = _run_capped("enumerate", "--n", "1000000000", "--k", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1] == "error: out of memory"


def test_oracle_count_builds_no_prefix():
    # counting starts from the one root's state, built from the values
    # left (none), so under the same cap it answers
    done = _run_capped("count", "--n", "1000000000", "--k", "0", "--method", "oracle")
    assert (done.returncode, done.stdout) == (0, "1\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_conjecture(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture", "--k-max", "3")
    assert code == 0
    assert "suite conjecture" in out
    assert "0 failed" in out


def test_verify_all_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "all", "--k-max", "2", "--n-max", "8",
        "--budget", "100000", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["suite"] == "all"
    assert data["bounds"] == {"k_max": 2, "n_max": 8, "budget": 100000}
    assert data["totals"]["fail"] == 0
    assert isinstance(data["runtime_seconds"], float)


def test_verify_budget_zero_skips_every_bijection_cell(capsys):
    # a budget of 0 is a budget, not an error; each cut cell records one
    # skip and no check result
    assert run_cli(capsys, "verify", "--suite", "bijection", "--budget", "0") == (
        0,
        "suite bijection: 0 passed, 0 failed, 27 skipped (27 checks)\n"
        "  bijection: 0 passed, 0 failed, 27 skipped\n",
        "",
    )


def test_verify_stdout_is_byte_identical(capsys):
    args = ("verify", "--suite", "lemmaC", "--k-max", "2", "--n-max", "8")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_grid_config(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"k": [0, 1], "n": [0, 6], "A": [-2, 2], "B": [-2, 2]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmaA", "--grid", str(grid_path))
    assert code == 0
    assert "0 failed" in out


def test_verify_ones_grid_below_the_window(tmp_path, capsys):
    # r = -3 reaches r <= -k-2, where the sign exponent k+r+j is negative
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"k": [0, 2], "n": [0, 8], "r": [-3, 3]}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemmaB", "--grid", str(grid_path), "--out", str(out_path)
    )
    assert code == 0
    assert out.splitlines()[0] == "suite lemmaB: 74 passed, 0 failed, 196 skipped (270 checks)"
    witnesses = [c["witness"] for c in json.loads(out_path.read_text())["checks"] if "witness" in c]
    assert witnesses and not [w for w in witnesses if re.search(r"\d\.\d", w)]


def test_verify_convolution_grid_without_nonnegative_x(tmp_path, capsys):
    # x >= 0 is empty in -6..-1: each (A, B) check evaluates nothing and is skipped
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"x": [-6, -1]}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemmaA", "--grid", str(grid_path), "--out", str(out_path)
    )
    assert code == 0
    assert out.splitlines()[0] == "suite lemmaA: 96 passed, 0 failed, 441 skipped (537 checks)"
    checks = json.loads(out_path.read_text())["checks"]
    convolution = [c for c in checks if c["name"].startswith("convolution ")]
    assert len(convolution) == 441
    assert convolution[0]["name"] == "convolution A=-10 B=-10 x=0..-1"
    assert {(c["status"], c["witness"]) for c in convolution} == {
        ("skipped", "x range -6..-1 holds no x >= 0")
    }
    assert all(c["status"] == "pass" for c in checks if c not in convolution)


def test_verify_convolution_grid_with_one_x(tmp_path, capsys):
    # a one-value x range is not empty: each (A, B) check evaluates x = 3
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"x": [3, 3]}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lemmaA", "--grid", str(grid_path), "--out", str(out_path)
    )
    assert code == 0
    assert out.splitlines()[0] == "suite lemmaA: 537 passed, 0 failed, 0 skipped (537 checks)"
    checks = json.loads(out_path.read_text())["checks"]
    convolution = [c for c in checks if c["name"].startswith("convolution ")]
    assert len(convolution) == 441
    assert convolution[0]["name"] == "convolution A=-10 B=-10 x=3..3"


@pytest.mark.parametrize("k_max, checks", [(None, 270), (1, 195)])
def test_run_suite_resolves_bounds_as_verify_does(tmp_path, capsys, k_max, checks):
    # a bound left out is the grid's upper bound, and a bound given replaces
    # it for every check, for the CLI and the library alike
    grid = {"k": [0, 2], "n": [0, 8]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "lemmaB", "--grid", str(grid_path), "--out", str(out_path)]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    assert run_cli(capsys, *argv)[0] == 0
    expected = json.loads(out_path.read_text())
    report = pipeline.run_suite("lemmaB", k_max=k_max, grid=GridSpec.from_dict(grid))
    got = json.loads(json.dumps(report.to_json()))
    assert got["bounds"] == expected["bounds"] == {
        "k_max": 2 if k_max is None else k_max, "n_max": 8, "budget": pipeline.DEFAULT_BUDGET,
    }
    assert got["checks"] == expected["checks"]
    assert len(got["checks"]) == checks


@pytest.mark.parametrize("override, error", [
    (["--k-max", "2"], "error: empty range for k: [3, 2]\n"),
    (["--n-max", "8"], "error: empty range for n: [9, 8]\n"),
])
def test_verify_bound_below_the_grid_is_a_usage_error(tmp_path, capsys, override, error):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"k": [3, 4], "n": [9, 10]}))
    assert run_cli(capsys, "verify", "--grid", str(grid_path), *override) == (2, "", error)


def test_verify_writes_the_report_when_stdout_closes(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    out_path = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["verify", "--suite", "lemmaC", "--out", str(out_path)])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")
    expected = pipeline.run_suite("lemmaC").to_json()["checks"]
    assert json.loads(out_path.read_text())["checks"] == expected


def indented_dump(report) -> bytes:
    return (json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("argv, grid", [
    ([], None),
    # the bijection is capped at n <= 9, so this grid leaves no check
    (["--suite", "bijection"], {"n": [10, 20]}),
])
def test_verify_report_file_is_the_indented_dump(tmp_path, capsys, monkeypatch, argv, grid):
    reports, real = [], pipeline.run_suite

    def keep(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(pipeline, "run_suite", keep)
    if grid is not None:
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        argv = [*argv, "--grid", str(tmp_path / "grid.json")]
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, "verify", *argv, "--out", str(out_path))[0] == 0
    assert out_path.read_bytes() == indented_dump(reports[0])
    assert bool(reports[0].checks) == (grid is None)


def test_report_writer_escapes_as_json_does(tmp_path):
    witness = 'quote " backslash \\ newline \n tab \t e-acute \u00e9 clef \U0001d11e'
    report = VerificationReport("lemmaA", {"k_max": 1, "n_max": 2, "budget": 3}, [
        CheckResult('name "quoted"', "fail", witness, "lemmaA"),
        CheckResult("plain", "pass"),
    ], 0.25)
    out_path = tmp_path / "report.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        report.write_json(handle)
    assert out_path.read_bytes() == indented_dump(report)


def test_verify_help_names_the_default_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--k-max K_MAX default 5 --n-max N_MAX default 20" in text


def test_verify_bad_grid_file(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"bogus": [0, 1]}))
    code, _, err = run_cli(capsys, "verify", "--suite", "lemmaA", "--grid", str(grid_path))
    assert code == 2
    assert "unknown grid keys" in err


def test_verify_missing_grid_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--grid", "/nonexistent/grid.json")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text", ["5", '[["k",[0,1]]]', '{"k": [null, 3]}', '{"k": [0, 3.7]}', '{"k": [0,'],
)
def test_verify_malformed_grid_file(tmp_path, capsys, text):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--suite", "lemmaA", "--grid", str(grid_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_verify_inconsistent_bounds(capsys):
    code, _, err = run_cli(capsys, "verify", "--k-max", "4", "--n-max", "5")
    assert code == 2
    assert "n-max" in err
    assert run_cli(capsys, "verify", "--budget", "-1") == (
        2, "", "error: budget must be nonnegative, got -1\n"
    )


def test_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2
