"""Tests of the benchmark itself: op generation, checks, runner and tracer.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The tracer tests spawn the real CLI, one traced pass per workload, and
take about a minute.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Spans and counters each workload must exercise (names as the tracer records them).
NAMED_SPANS = {
    "verify": [
        "exact.binomial", "matrices.det_bareiss", "matrices.solve_cramer", "matrices.construct",
        "matrices.det_dodgson", "matrices.mat_mul", "#matrices.dodgson_fallbacks",
        "oracle.scan", "#oracle.candidates", "oracle.lis_length", "#oracle.members",
        "#oracle.component_counts.repeat_calls",
        "identities.convolution", "identities.ones", "identities.moment",
        "pipeline.suite.counts", "pipeline.suite.conjecture", "pipeline.suite.lemmaA",
        "pipeline.suite.lemmaB", "pipeline.suite.lemmaC", "pipeline.suite.prop33",
        "pipeline.suite.bijection", "pipeline.suite.dodgson",
        "#report.checks", "#report.skipped", "report.write", "cli.handler",
    ],
    "table": [
        "exact.falling_factorial", "pipeline.components", "pipeline.count_formula",
        "pipeline.component_table", "matrices.solve_cramer", "matrices.det_bareiss", "cli.handler",
    ],
    "solve": [
        "exact.binomial", "matrices.det_bareiss", "matrices.solve_cramer", "matrices.construct",
        "pipeline.count_formula", "pipeline.components", "cli.handler",
    ],
    "brute": [
        "oracle.scan", "#oracle.candidates", "oracle.lis_length", "#oracle.members",
        "oracle.format_perm", "cli.handler", "#cli.stdout_bytes",
    ],
}
EXACT_COUNTS = [name for name, unit, _ in run.PER_LAYER if unit in run.EXACT_UNITS]


def brute_class_size(n: int, k: int) -> int:
    """Class size straight from the definition, for tiny n."""
    size = 0
    for mu in permutations(range(1, n + 1)):
        if any(mu[i] >= mu[i + 1] for i in range(n - k - 1)):
            continue
        best = [1] * n
        for j in range(n):
            for i in range(j):
                if mu[i] < mu[j]:
                    best[j] = max(best[j], best[i] + 1)
        if max(best, default=0) <= n - k:
            size += 1
    return size


def test_closed_form_matches_definition():
    for n in range(0, 8):
        for k in range(0, n // 2 + 1):
            assert workloads.closed_form(n, k) == brute_class_size(n, k), (n, k)


def test_ops_come_from_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    for workload in ("table", "solve", "brute"):
        lists = {json.dumps(workloads.generate(workload, seed)) for seed in range(20)}
        assert len(lists) > 1, workload


def test_brute_force_ops_are_bounded():
    for seed in range(50):
        for argv in workloads.generate("brute", seed) + workloads.generate("verify", seed):
            if workloads.uses_oracle(argv):
                n, k = int(workloads.flag(argv, "--n")), int(workloads.flag(argv, "--k"))
                assert workloads.candidate_count(n, k) <= workloads.CANDIDATE_LIMIT
    # the guard refuses, without running anything, an enumeration of ~6.7e11 candidates
    with pytest.raises(ValueError):
        workloads.check_bounded(["enumerate", "--n", "20", "--k", "10"])
    with pytest.raises(ValueError):
        workloads.check_bounded(["count", "--n", "20", "--k", "10", "--method", "oracle"])
    workloads.check_bounded(["count", "--n", "20", "--k", "10", "--method", "formula"])


def test_every_generated_op_has_a_golden_or_a_closed_form():
    goldens = runner.load_goldens()
    space = {workloads.golden_key(argv) for argv in workloads.golden_space()}
    assert space == set(goldens)
    for seed in range(200):
        for workload in workloads.WORKLOADS:
            for argv in workloads.generate(workload, seed):
                assert argv[0] == "count" or workloads.golden_key(argv) in goldens, argv


def _fake(argv, stdout: bytes, exit_code=0, wall_s=0.1) -> runner.OpResult:
    return runner.OpResult(
        argv=argv, wall_s=wall_s, first_byte_s=wall_s, rss_mb=10.0, exit_code=exit_code,
        stdout_sha256=runner.hashlib.sha256(stdout).hexdigest(), stdout_bytes=len(stdout),
        stdout_lines=stdout.count(b"\n"), stdout=stdout, stderr_tail=b"", report=None, trace=None,
    )


def test_check_catches_wrong_output():
    count = ["count", "--n", "10", "--k", "3", "--method", "kernel"]
    right = f"{workloads.closed_form(10, 3)}\n".encode()
    assert runner.check(_fake(count, right), {}) is None
    assert runner.check(_fake(count, b"1\n"), {}) is not None
    assert runner.check(_fake(count, right, exit_code=1), {}) is not None
    assert runner.check(_fake(count, right, exit_code=None), {}).startswith("timed out")
    table = ["table", "--k", "1", "--n-from", "2", "--n-to", "3", "--format", "csv"]
    good = b"component,n=2,n=3\nB(1),0,1\nB(2),1,1\nA,1,2\n"
    bad = b"component,n=2,n=3\nB(1),0,1\nB(2),1,1\nA,1,3\n"
    goldens = {workloads.golden_key(table): {"exit": 0, "stdout_sha256": _fake(table, good).stdout_sha256}}
    assert runner.check(_fake(table, good), goldens) is None
    assert runner.check(_fake(table, bad), goldens) == "output differs from the golden record"
    goldens[workloads.golden_key(table)]["stdout_sha256"] = _fake(table, bad).stdout_sha256
    assert runner.check(_fake(table, bad), goldens) == "table totals differ from the closed form"
    assert runner.check(_fake(["enumerate", "--n", "4", "--k", "1"], b""), {}) is not None


def test_child_rss_excludes_the_harness_peak():
    env = runner.child_env()
    baseline = runner.run_op(run.SETUP_ARGV, env).rss_mb
    ballast = bytearray(200 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    del ballast
    after = runner.run_op(run.SETUP_ARGV, env)
    assert after.exit_code == 0
    assert after.rss_mb < baseline + 50


def test_timeout_kills_the_op(monkeypatch):
    monkeypatch.setattr(runner, "OP_TIMEOUT_S", 0.01)
    result = runner.run_op(["verify", "--suite", "all", "--out", workloads.OUT], runner.child_env())
    assert result.exit_code is None
    assert runner.check(result, runner.load_goldens()).startswith("timed out")


def test_refuses_a_checkout_without_sources():
    bare = runner.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(runner.GOLDEN, bare / "perfbench" / runner.GOLDEN.name)
    shutil.copy(runner.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_prints_its_checksum_without_lisenum():
    wall, stdout = runner.run_reference(runner.child_env())
    assert stdout == f"{reference.EXPECTED}\n".encode()
    assert "lisenum" not in (BENCH / "reference.py").read_text().split('"""')[2]


def test_times_are_scaled_by_the_reference(monkeypatch):
    """An op of 1 s beside a reference of twice the nominal time reads 0.5 s."""
    argv = ["count", "--n", "0", "--k", "0"]
    monkeypatch.setattr(runner, "run_reference", lambda env: (2 * run.REF_NOMINAL_S, f"{reference.EXPECTED}\n".encode()))
    monkeypatch.setattr(runner, "run_op", lambda argv, env, traced=False: _fake(argv, b"1\n", wall_s=1.0))
    bench_run = run.Run(1)
    metrics, samples = run.end_to_end(bench_run, [argv], 1)
    assert bench_run.failures == []
    for name in ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "first_line_s"):
        assert metrics[name] == (0.5, "s"), name
    assert samples["median_scale"] == 0.5
    monkeypatch.setattr(runner, "run_reference", lambda env: (0.2, b"wrong\n"))
    bench_run = run.Run(1)
    assert run.end_to_end(bench_run, [argv], 1) == ({}, {})
    assert bench_run.failures


def test_install_rebinds_every_namespace():
    sys.path.insert(0, str(runner.SRC))
    try:
        importlib.import_module("lisenum.cli")
        wrapped = tracer.Tracer().install()
    finally:
        sys.path.remove(str(runner.SRC))
    modules = [sys.modules["lisenum"]] + [sys.modules[f"lisenum.{m}"] for m in tracer.MODULES]
    originals = {id(original) for original, _ in wrapped.values()}
    for module in modules:
        for attr, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{attr} still unwrapped"
    # pipeline imports these by name; they must be the traced versions there too
    pipeline = sys.modules["lisenum.pipeline"]
    assert pipeline.det_bareiss is sys.modules["lisenum.matrices"].det_bareiss
    assert pipeline.det_bareiss.__wrapped__ is not None


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass (with its untraced twin) of every workload, seed 0."""
    out = {}
    for workload in workloads.WORKLOADS:
        bench_run = run.Run(seconds=1)
        metrics, samples, spans = run.per_layer(bench_run, workloads.generate(workload, 0), 1)
        out[workload] = (bench_run, metrics, spans)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_is_correct_and_byte_identical(traced_passes, workload):
    bench_run, metrics, _ = traced_passes[workload]
    # per_layer compares every traced stdout with its untraced twin
    assert bench_run.failures == []
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER} | {"trace.overhead_frac"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_named_spans_are_exercised(traced_passes, workload):
    _, _, spans = traced_passes[workload]
    for name in NAMED_SPANS[workload]:
        assert spans.get(name, [0])[0] > 0, f"{name} never ran on {workload}"


def test_verify_counts(traced_passes):
    _, metrics, _ = traced_passes["verify"]
    assert metrics["matrices.dodgson_fallbacks"][0] > 0
    assert 0 < metrics["report.skipped"][0] < metrics["report.checks"][0]


def test_exact_counts_repeat():
    ops = [argv for argv in workloads.generate("brute", 0) if workloads.flag(argv, "--n") == "11"]
    ops.append(workloads.generate("table", 0)[0])
    first = run.per_layer(run.Run(seconds=1), ops, 1)[0]
    second = run.per_layer(run.Run(seconds=1), ops, 1)[0]
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
