"""Acceptance gate: every criterion at its stated tolerance (exact equality
throughout) and time limit.  One PASS/FAIL line is printed per criterion;
run with ``pytest tests/test_acceptance.py -v -s`` to see them live.
"""

import io
import json
import random
from contextlib import redirect_stdout
from hashlib import sha256
from math import factorial
from time import perf_counter

from lisenum import (
    Matrix,
    component_counts,
    component_matrix,
    component_table,
    components,
    count_formula,
    counting_row,
    check_insertion_bijection,
    check_transfer_consistency,
    det_bareiss,
    det_dodgson,
    dot,
    initial_vector,
    iter_class,
    kernel_by_solve,
    kernel_matrix,
    ones_entry_recurrence_residuals,
    ones_product_entry,
    binomial_moment_sum,
    moment_identity_check,
    vandermonde_chu_check,
)
from lisenum.cli import main as cli_main
from lisenum.matrices import row_times_matrix

GOLDEN_TABLES = {
    1: {"ns": (2, 6), "rows": [[0, 1, 2, 3, 4], [1, 1, 1, 1, 1]],
        "totals": [1, 2, 3, 4, 5]},
    2: {"ns": (4, 9), "rows": [[1, 5, 11, 19, 29, 41], [2, 4, 6, 8, 10, 12],
                               [2, 2, 2, 2, 2, 2]],
        "totals": [5, 11, 19, 29, 41, 55]},
    3: {"ns": (6, 11), "rows": [[14, 47, 104, 191, 314, 479], [15, 33, 57, 87, 123, 165],
                                [12, 18, 24, 30, 36, 42], [6, 6, 6, 6, 6, 6]],
        "totals": [47, 104, 191, 314, 479, 692]},
}


def run_criterion(index, label, limit_seconds, body):
    start = perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {index} {label}: FAIL")
        raise
    elapsed = perf_counter() - start
    print(f"ACCEPTANCE {index} {label}: PASS ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over the {limit_seconds}s limit"


def test_criterion_1_golden_tables():
    def body():
        for k, golden in GOLDEN_TABLES.items():
            n_from, n_to = golden["ns"]
            table = component_table(k, n_from, n_to)
            for i in range(1, k + 2):
                assert list(table.row(i)) == golden["rows"][i - 1], (k, i)
            assert list(table.totals) == golden["totals"], k

    run_criterion(1, "reference tables cell-for-cell", 1.0, body)


def test_criterion_2_formula_vs_enumeration():
    def body():
        for k in range(0, 5):
            for n in range(2 * k, 13):
                assert count_formula(n, k) == len(list(iter_class(n, k))), (n, k)

    run_criterion(2, "closed formula equals brute force (k<=4, n<=12)", 5.0, body)


def test_criterion_3_kernel_conjecture():
    def body():
        for k in range(0, 9):
            assert kernel_by_solve(k) == component_counts(2 * k, k), k

    run_criterion(3, "solved kernel equals brute-forced kernel (k<=8)", 5.0, body)


def test_criterion_4_component_pipelines():
    def body():
        for k in range(0, 5):
            for n in range(2 * k, 13):
                recursion = components(n, k, "recursion")
                assert components(n, k, "cramer") == recursion, (n, k)
                assert components(n, k, "transfer_matrix") == recursion, (n, k)
                assert components(n, k, "oracle") == recursion, (n, k)
        for k in range(0, 6):
            for n in range(2 * k, 21):
                assert (
                    components(n, k, "cramer") == components(n, k, "transfer_matrix")
                ), (n, k)

    run_criterion(4, "all component routes agree", 30.0, body)


def test_criterion_5_determinants():
    def body():
        for k in range(0, 6):
            m = kernel_matrix(k)
            assert det_bareiss(m) == 1 and det_dodgson(m) == 1, k
            for n in range(2 * k, 21):
                q = component_matrix(k, n)
                assert det_bareiss(q) == 1 and det_dodgson(q) == 1, (k, n)
        rng = random.Random(20240229)
        for index in range(1000):
            dim = 2 + index % 5
            rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            if index % 3 == 0 and dim >= 3:
                rows[rng.randint(1, dim - 2)][rng.randint(1, dim - 2)] = 0
            matrix = Matrix(rows)
            assert det_bareiss(matrix) == det_dodgson(matrix), index

    run_criterion(5, "unit determinants and engine agreement", 30.0, body)


def test_criterion_6_identity_suites():
    def body():
        # matrix-product reduction, entrywise
        for k in range(0, 6):
            for n in range(2 * k, 21):
                result = check_transfer_consistency(k, n)
                assert result.status == "pass", result.witness
        # convolution over the full box
        for a in range(-10, 11):
            for b in range(-10, 11):
                for x in range(0, 11):
                    assert vandermonde_chu_check(a, b, x).status == "pass", (a, b, x)
        # unit row-product entries and their recurrences
        for k in range(0, 6):
            for n in range(max(2 * k, k + 2), 21):
                for r in range(1, k + 2):
                    assert ones_product_entry(k, r, n) == 1, (k, r, n)
                    try:
                        residuals = ones_entry_recurrence_residuals(k, r, n)
                    except ValueError:
                        continue  # referenced point undefined: out of domain
                    assert residuals == (0, 0), (k, r, n, residuals)
        # moment sums, both forms
        for k in range(0, 6):
            for n in range(max(2 * k, k + 2), 21):
                for b in range(0, k + 1):
                    assert binomial_moment_sum(k, b, n) == 1, (k, b, n)
                    assert moment_identity_check(k, b, n).status == "pass", (k, b, n)

    run_criterion(6, "identity and recurrence grids", 10.0, body)


def test_criterion_7_row_functional_chain():
    def body():
        for k in range(0, 6):
            for n in range(max(2 * k, k + 2), 21):
                row = counting_row(k, n)
                ones = row_times_matrix(row, component_matrix(k, n))
                assert ones == (1,) * (k + 1), (k, n)
                assert dot(row, initial_vector(k)) == count_formula(n, k), (k, n)

    run_criterion(7, "row functional normalizes and telescopes", 10.0, body)


def test_criterion_8_insertion_bijection():
    def body():
        for k in range(0, 4):
            for n in range(max(2 * k, 1), 10):
                result = check_insertion_bijection(n, k)
                assert result.status == "pass", result.witness
        golden = {
            1: ["12543", "13524", "13542", "14523", "14532"],
            2: ["23514", "23541", "24513", "24531"],
            3: ["34512", "34521"],
        }
        for i, expected in golden.items():
            members = list(iter_class(5, 2, i))
            assert ["".join(map(str, mu)) for mu in members] == expected, i

    run_criterion(8, "prefix insertion is a bijection (k<=3, n<=9)", 30.0, body)


# sha256 of the default run's stdout and of its report's ``checks`` array
# (compact JSON, sorted keys), as recorded in perfbench/golden.json
VERIFY_STDOUT_SHA256 = "0aea9f5de1662a8eeb42736cafc181c2578d43764eadcb7c321bf7227dcb5fe7"
VERIFY_CHECKS_SHA256 = "fa85322b75df0381cfb738757fabefabfa417213056e0e20f40a158f2a567b74"


def test_criterion_9_default_verify_run(tmp_path):
    def body():
        out = tmp_path / "report.json"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert cli_main(["verify", "--suite", "all", "--out", str(out)]) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        encoded = json.dumps(checks, sort_keys=True, separators=(",", ":"))
        assert sha256(stdout.getvalue().encode()).hexdigest() == VERIFY_STDOUT_SHA256
        assert sha256(encoded.encode()).hexdigest() == VERIFY_CHECKS_SHA256

    run_criterion(9, "default verify --suite all exits 0, golden output", 60.0, body)
