"""Failure paths of the verification suites.

Every other test sees the suites pass.  These plant a fault with
monkeypatch and pin the exact ``fail`` records, witness text included,
together with the CLI's exit code 1 and its FAIL line.
"""

import math
import random
import signal
from fractions import Fraction

import pytest

from lisenum import Matrix, identities, matrices, oracle, pipeline
from lisenum.cli import main
from lisenum.identities import GridSpec

SMALL_ALL = {"k_max": 1, "n_max": 3, "budget": 10**4}


def failures(checks):
    return [(c.group, c.name, c.witness) for c in checks if c.status == "fail"]


def skips(checks):
    return [(c.name, c.witness) for c in checks if c.status == "skipped"]


def run_all_small():
    return pipeline.run_suite("all", **SMALL_ALL).checks


# ---------------------------------------------------------------------------
# counts and conjecture
# ---------------------------------------------------------------------------

def test_components_disagree(monkeypatch):
    real = pipeline.components

    def skewed(n, k, method="recursion"):
        vec = real(n, k, method)
        return [v + 1 for v in vec] if method == "cramer" else vec

    monkeypatch.setattr(pipeline, "components", skewed)
    checks = run_all_small()
    assert failures(c for c in checks if c.group == "counts") == [
        ("counts", "components-agree k=0 n=0", "recursion=[1] transfer=[1] cramer=[2]"),
        ("counts", "components-agree k=0 n=1", "recursion=[1] transfer=[1] cramer=[2]"),
        ("counts", "components-agree k=0 n=2", "recursion=[1] transfer=[1] cramer=[2]"),
        ("counts", "components-agree k=0 n=3", "recursion=[1] transfer=[1] cramer=[2]"),
        ("counts", "components-agree k=1 n=2", "recursion=[0, 1] transfer=[0, 1] cramer=[1, 2]"),
        ("counts", "components-agree k=1 n=3", "recursion=[1, 1] transfer=[1, 1] cramer=[2, 2]"),
    ]
    # a disagreement ends the checks for that cell
    assert [c.name for c in checks if c.group == "counts"] == [
        f"components-agree k={k} n={n}" for k, n in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    ]


def test_count_formula_off_by_one(monkeypatch):
    real = pipeline.count_formula
    monkeypatch.setattr(pipeline, "count_formula", lambda n, k: real(n, k) + 1)
    assert failures(run_all_small()) == [
        ("counts", "count-formula-match k=0 n=0", "components sum 1, formula 2"),
        ("counts", "count-formula-match k=0 n=1", "components sum 1, formula 2"),
        ("counts", "count-formula-match k=0 n=2", "components sum 1, formula 2"),
        ("counts", "telescoped-count k=0 n=2", "row functional gives 1, formula 2"),
        ("counts", "count-formula-match k=0 n=3", "components sum 1, formula 2"),
        ("counts", "telescoped-count k=0 n=3", "row functional gives 1, formula 2"),
        ("counts", "count-formula-match k=1 n=2", "components sum 1, formula 2"),
        ("counts", "count-formula-match k=1 n=3", "components sum 2, formula 3"),
        ("counts", "telescoped-count k=1 n=3", "row functional gives 2, formula 3"),
    ]


def test_telescoped_count_rational_witness(monkeypatch):
    real = pipeline.dot
    monkeypatch.setattr(pipeline, "dot", lambda a, b: real(a, b) + Fraction(1, 2))
    assert failures(run_all_small()) == [
        ("counts", "telescoped-count k=0 n=2", "row functional gives 3/2, formula 1"),
        ("counts", "telescoped-count k=0 n=3", "row functional gives 3/2, formula 1"),
        ("counts", "telescoped-count k=1 n=3", "row functional gives 5/2, formula 2"),
    ]


def test_last_component(monkeypatch):
    monkeypatch.setattr(pipeline, "factorial", lambda k: math.factorial(k) + 1)
    assert failures(run_all_small()) == [
        ("counts", f"last-component k={k} n={n}", "got 1, expected 2")
        for k, n in ((0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    ]


def test_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(oracle, "component_counts", lambda n, k: [0] * (k + 1))
    assert failures(run_all_small()) == [
        ("counts", "oracle-agree k=0 n=0", "oracle=[0] recursion=[1]"),
        ("counts", "oracle-agree k=0 n=1", "oracle=[0] recursion=[1]"),
        ("counts", "oracle-agree k=0 n=2", "oracle=[0] recursion=[1]"),
        ("counts", "oracle-agree k=0 n=3", "oracle=[0] recursion=[1]"),
        ("counts", "oracle-agree k=1 n=2", "oracle=[0, 0] recursion=[0, 1]"),
        ("counts", "oracle-agree k=1 n=3", "oracle=[0, 0] recursion=[1, 1]"),
        ("conjecture", "kernel k=0", "solved=[1] oracle=[0]"),
        ("conjecture", "kernel k=1", "solved=[0, 1] oracle=[0, 0]"),
    ]


def test_conjecture_violation(monkeypatch):
    def violate(k):
        raise pipeline.ConjectureViolation(k, (Fraction(1, 2), Fraction(-1)))

    monkeypatch.setattr(pipeline, "kernel_by_solve", violate)
    checks = (
        pipeline.run_suite("conjecture", k_max=1).checks
        + pipeline.run_suite("prop33", k_max=1, n_max=2).checks
    )
    witness = "kernel solve at k={} is not a nonnegative integer vector: [1/2, -1]"
    assert failures(checks) == [
        ("conjecture", "kernel k=0", witness.format(0)),
        ("conjecture", "kernel k=1", witness.format(1)),
        ("prop33", "integral-kernel-solve k=0", witness.format(0)),
        ("prop33", "integral-kernel-solve k=1", witness.format(1)),
    ]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_dodgson_engine_wrong(monkeypatch):
    monkeypatch.setattr(pipeline, "det_dodgson", lambda m: 2)
    assert failures(pipeline.run_suite("prop33", k_max=0, n_max=1).checks) == [
        ("prop33", "det-kernel-matrix k=0 engine=dodgson", "det = 2"),
        ("prop33", "det-component-matrix k=0 n=0 engine=dodgson", "det = 2"),
        ("prop33", "det-component-matrix k=0 n=1 engine=dodgson", "det = 2"),
    ]
    assert failures(pipeline.run_suite("dodgson").checks)[:3] == [
        ("dodgson", "engines-agree dim=2 planted-zero=false count=200",
         "matrix #0: bareiss 55 vs dodgson 2"),
        ("dodgson", "engines-agree dim=3 planted-zero=false count=133",
         "matrix #1: bareiss -991 vs dodgson 2"),
        ("dodgson", "engines-agree dim=3 planted-zero=true count=67",
         "matrix #6: bareiss 363 vs dodgson 2"),
    ]


def test_dodgson_runs_without_bareiss(monkeypatch):
    # condensation never builds a minor for the other engine, so neither
    # det_bareiss nor Matrix may be reached from det_dodgson
    rng = random.Random(20240229)
    suite = [pipeline.random_integer_matrix(rng, 2 + index % 5, index % 3 == 0)
             for index in range(1000)]
    expected = [matrices.det_bareiss(matrix) for matrix in suite]
    m = Matrix([[2, 1, 3, 1], [5, 0, 1, 4], [4, 2, 2, 3], [1, 3, 5, 2]])
    ones = Matrix([[1] * 4 for _ in range(4)])

    def refuse(*args):
        raise AssertionError("det_dodgson reached the Bareiss engine")

    monkeypatch.setattr(matrices, "det_bareiss", refuse)
    monkeypatch.setattr(matrices, "Matrix", refuse)
    assert matrices.det_dodgson(m) == 45
    assert matrices.det_dodgson(ones) == 0
    assert [matrices.det_dodgson(matrix) for matrix in suite] == expected
    # the suite's own det_bareiss is pipeline's binding, left unpatched
    checks = pipeline.run_suite("dodgson").checks
    assert [c.status for c in checks] == ["pass"] * 9


def test_cramer_count_row_functional_mismatch(monkeypatch, capsys):
    real = matrices.counting_row
    monkeypatch.setattr(pipeline, "counting_row", lambda k, n: real(k, n)[:-1] + (0,))
    message = "row-functional count 27 disagrees with determinant count 55 at n=9, k=2"
    with pytest.raises(ArithmeticError) as exc:
        pipeline.count(9, 2, "cramer")
    assert str(exc.value) == message
    code = main(["count", "--n", "9", "--k", "2", "--method", "cramer"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_cramer_components_non_integral(monkeypatch):
    monkeypatch.setattr(pipeline, "solve_cramer", lambda a, v: (Fraction(2), Fraction(1, 2)))
    with pytest.raises(ArithmeticError, match=r"n=3, k=1: entry 2 is non-integral \(1/2\)"):
        pipeline.components(3, 1, "cramer")


def test_det_product_mismatch(monkeypatch):
    real = matrices.binomial_det_product
    monkeypatch.setattr(pipeline, "binomial_det_product", lambda k, x, y: real(k, x, y) + 1)
    grid = GridSpec(k=(0, 0), n=(0, 0), x=(0, 1), y=(0, 1))
    assert failures(pipeline.run_suite("prop33", k_max=0, n_max=0, grid=grid).checks) == [
        ("prop33", "det-product k=0 x=0 y=0", "product 3 vs determinant 2"),
        ("prop33", "det-product k=0 x=0 y=1", "product 4 vs determinant 3"),
        ("prop33", "det-product k=0 x=1 y=0", "product 4 vs determinant 3"),
        ("prop33", "det-product k=0 x=1 y=1", "product 7 vs determinant 6"),
    ]


def test_det_product_vanishing_divisor_is_skipped():
    grid = GridSpec(k=(0, 0), n=(0, 0), x=(0, 0), y=(-2, -2))
    assert skips(pipeline.run_suite("prop33", grid=grid).checks) == [
        ("det-product k=0 x=0 y=-2", "vanishing divisor binomial(-1, -1) at i=1 (x=0, y=-2)"),
    ]


# ---------------------------------------------------------------------------
# matrix checks report the first differing entry
# ---------------------------------------------------------------------------

def test_matrix_product_collapse_wrong(monkeypatch):
    real = matrices.transfer_matrix

    def planted(n, k):
        rows = [list(row) for row in real(n, k).entries]
        rows[-1] = [x + Fraction(1, 2) for x in rows[-1]]
        return Matrix(rows)

    monkeypatch.setattr(pipeline, "transfer_matrix", planted)
    grid = GridSpec(A=(0, 0), B=(0, 0), x=(0, 0))
    assert failures(pipeline.run_suite("lemmaA", k_max=2, n_max=5, grid=grid).checks) == [
        ("lemmaA", f"matrix-product-collapse k=0 n={n}", "entry (1, 1): got 3/2, expected 1")
        for n in range(6)
    ] + [
        # entry (1, 2) of the component matrix vanishes at n = 2k: row 1 is right
        ("lemmaA", "matrix-product-collapse k=1 n=2", "entry (2, 1): got 3/2, expected 1"),
        ("lemmaA", "matrix-product-collapse k=1 n=3", "entry (1, 1): got 1/2, expected 1"),
        ("lemmaA", "matrix-product-collapse k=1 n=4", "entry (1, 1): got 0, expected 1"),
        ("lemmaA", "matrix-product-collapse k=1 n=5", "entry (1, 1): got -1/2, expected 1"),
        ("lemmaA", "matrix-product-collapse k=2 n=4", "entry (1, 1): got 3/2, expected 1"),
        ("lemmaA", "matrix-product-collapse k=2 n=5", "entry (1, 1): got 5/2, expected 1"),
    ]


def test_counting_row_normalization_wrong(monkeypatch):
    real = matrices.row_times_matrix
    monkeypatch.setattr(
        pipeline, "row_times_matrix",
        lambda u, a: tuple(v + Fraction(j, 2) for j, v in enumerate(real(u, a))),
    )
    grid = GridSpec(k=(0, 0), n=(0, 0), r=(1, 1))
    assert failures(pipeline.run_suite("lemmaB", k_max=2, n_max=5, grid=grid).checks) == [
        ("lemmaB", f"counting-row-normalization k={k} n={n}", "column 2: got 3/2, expected 1")
        for k, n in ((1, 3), (1, 4), (1, 5), (2, 4), (2, 5))
    ]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_ones_entry_wrong_in_window(monkeypatch):
    real = identities.ones_product_entry

    def planted(k, r, n):
        return Fraction(2) if 1 <= r <= k + 1 else real(k, r, n)

    monkeypatch.setattr(identities, "ones_product_entry", planted)
    grid = GridSpec(k=(0, 1), n=(0, 4), r=(1, 3))
    assert failures(pipeline.run_suite("lemmaB", grid=grid).checks) == [
        ("lemmaB", "ones-entry k=0 r=1 n=2", "value 2"),
        ("lemmaB", "ones-entry k=0 r=1 n=3", "value 2"),
        ("lemmaB", "ones-recurrence k=0 r=1 n=3", "residuals (0, -1)"),
        ("lemmaB", "ones-entry k=0 r=1 n=4", "value 2"),
        ("lemmaB", "ones-recurrence k=0 r=1 n=4", "residuals (0, -2)"),
        ("lemmaB", "ones-entry k=1 r=1 n=3", "value 2"),
        ("lemmaB", "ones-entry k=1 r=2 n=3", "value 2"),
        ("lemmaB", "ones-entry k=1 r=1 n=4", "value 2"),
        ("lemmaB", "ones-entry k=1 r=2 n=4", "value 2"),
        ("lemmaB", "ones-recurrence k=1 r=2 n=4", "residuals (0, -2)"),
    ]


def test_moment_sum_wrong_k_direction(monkeypatch):
    real = identities.binomial_moment_sum

    def planted(k, b, n):
        return Fraction(2) if (k, b) == (0, 0) else real(k, b, n)

    monkeypatch.setattr(identities, "binomial_moment_sum", planted)
    grid = GridSpec(k=(0, 1), n=(0, 3), b=(0, 2))
    assert failures(pipeline.run_suite("lemmaC", grid=grid).checks) == [
        ("lemmaC", "moment-sum k=0 b=0 n=2", "value 2"),
        ("lemmaC", "moment-sum k=0 b=0 n=3", "value 2"),
        ("lemmaC", "moment-recurrence k=0 b=0 n=3", "k-direction residual -1"),
    ]


def test_moment_sum_wrong_b_direction(monkeypatch):
    real = identities.binomial_moment_sum

    def planted(k, b, n):
        return real(k, b, n) + b if b <= k else real(k, b, n)

    monkeypatch.setattr(identities, "binomial_moment_sum", planted)
    checks = pipeline.run_suite("lemmaC", grid=GridSpec(k=(0, 1), n=(0, 5), b=(0, 2))).checks
    assert failures(checks) == [
        ("lemmaC", "moment-sum k=1 b=1 n=3", "value 2"),
        ("lemmaC", "moment-recurrence k=1 b=0 n=4", "b-direction residual 1"),
        ("lemmaC", "moment-sum k=1 b=1 n=4", "value 2"),
        ("lemmaC", "moment-recurrence k=1 b=0 n=5", "b-direction residual 1"),
        ("lemmaC", "moment-sum k=1 b=1 n=5", "value 2"),
    ]
    by_name = {c.name: c for c in checks}
    # b == k with a vanishing k-direction residual is a recorded probe
    probe = by_name["moment-recurrence k=1 b=1 n=4"]
    assert (probe.status, probe.witness) == (
        "skipped", "b-direction probes b+1 > k, recorded residual -3/2; k-direction residual 0"
    )


def test_out_of_window_probes_are_recorded():
    ones = identities.run_ones_identity_grid(GridSpec(k=(1, 1), n=(4, 5), r=(2, 3)))
    undefined = "undefined reference: denominator n-j vanishes in 1..k+1: n=4, k=3"
    assert skips(ones) == [
        ("ones-recurrence k=1 r=2 n=4", undefined),
        ("ones-entry k=1 r=3 n=4", "outside 1 <= r <= k+1, recorded value -2"),
        ("ones-recurrence k=1 r=3 n=4", undefined),
        ("ones-entry k=1 r=3 n=5", "outside 1 <= r <= k+1, recorded value -5"),
        ("ones-recurrence k=1 r=3 n=5", "outside 1 <= r <= k+1, recorded residuals (0, 0)"),
    ]
    assert [c.status for c in ones if c.name.endswith("r=2 n=5")] == ["pass", "pass"]
    moment = identities.run_moment_identity_grid(GridSpec(k=(1, 1), n=(4, 4), b=(1, 3)))
    assert skips(moment) == [
        ("moment-recurrence k=1 b=1 n=4",
         "b-direction probes b+1 > k, recorded residual -1/2; k-direction residual 0"),
        ("moment-sum k=1 b=2 n=4", "outside 0 <= b <= k, recorded value 1/2"),
        ("moment-recurrence k=1 b=2 n=4", "outside 0 <= b <= k, recorded residuals (1/2, -1/2)"),
        ("moment-sum k=1 b=3 n=4", "outside 0 <= b <= k, recorded value 0"),
        ("moment-recurrence k=1 b=3 n=4", "outside 0 <= b <= k, recorded residuals (3/4, 0)"),
    ]


def test_convolution_wrong(monkeypatch):
    real = identities.binomial
    monkeypatch.setattr(identities, "binomial", lambda c, d: 3 if (c, d) == (2, 1) else real(c, d))
    grid = GridSpec(A=(0, 0), B=(-1, 0), x=(0, 2))
    checks = [identities.vandermonde_chu_check(0, 0, 1)] + identities.run_convolution_grid(grid)
    assert failures(checks) == [
        ("", "convolution A=0 B=0 x=1", "lhs=2 rhs=3"),
        ("", "convolution A=0 B=0 x=0..2", "lhs=2 rhs=3"),
    ]


def test_moment_identity_wrong(monkeypatch):
    real = identities.binomial
    monkeypatch.setattr(identities, "binomial", lambda c, d: 2 if (c, d) == (5, 0) else real(c, d))
    assert failures([identities.moment_identity_check(0, 0, 5)]) == [
        ("", "moment-identity k=0 b=0 n=5", "lhs=1/4 rhs=1/2"),
    ]


# ---------------------------------------------------------------------------
# insertion bijection
# ---------------------------------------------------------------------------

def test_bijection_image_out_of_order(monkeypatch, capsys):
    real = oracle.insert_prefix

    def swapped(mu, i):
        image = real(mu, i)
        return image[:-2] + (image[-1], image[-2])

    monkeypatch.setattr(oracle, "insert_prefix", swapped)
    result = pipeline.check_insertion_bijection(4, 2)
    assert (result.group, result.name, result.status, result.witness) == (
        "", "insertion-bijection k=2 n=4->5", "fail", "image 12534, enumerated 12543",
    )
    code = main(["verify", "--suite", "bijection", "--k-max", "2", "--n-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "  FAIL [bijection] insertion-bijection k=2 n=4->5: image 12534, enumerated 12543" in lines


@pytest.mark.parametrize(
    "n, k, size, drop, witness",
    [
        (4, 2, 5, -1, "image 34521, enumerated none"),
        (4, 2, 4, 0, "image 13524, enumerated 12543"),
        (1, 0, 1, 0, "image none, enumerated 12"),
    ],
)
def test_bijection_member_missing(monkeypatch, n, k, size, drop, witness):
    real = oracle.iter_class
    sizes = []

    def planted(m, j):
        sizes.append(m)
        members = list(real(m, j))
        if m == size:
            del members[drop]
        return iter(members)

    monkeypatch.setattr(oracle, "iter_class", planted)
    result = pipeline.check_insertion_bijection(n, k)
    assert (result.status, result.witness) == ("fail", witness)
    assert sizes == [n, n + 1]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_cell_failure(monkeypatch, capsys):
    real = pipeline.count_formula
    monkeypatch.setattr(pipeline, "count_formula", lambda n, k: real(n, k) + (n == 7))
    message = "table cell failure at k=2, n=7: recursion total 29 vs formula 30"
    with pytest.raises(ArithmeticError) as exc:
        pipeline.component_table(2, 4, 9)
    assert str(exc.value) == message
    code = main(["table", "--k", "2", "--n-from", "4", "--n-to", "9"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "det_dodgson", lambda m: 2)
    code = main(["verify", "--suite", "prop33"])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    assert "  FAIL [prop33] det-kernel-matrix k=0 engine=dodgson: det = 2" in lines
    assert lines[0].startswith("suite prop33: ")
    assert " 0 failed" not in lines[0]


def test_each_test_runs_under_a_time_cap():
    # tests/conftest.py arms an alarm around every test: a spinning loop
    # gets an error no `except Exception` or hypothesis retry catches
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= 60
    with pytest.raises(BaseException) as exc:
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
    assert not isinstance(exc.value, Exception)
    assert str(exc.value) == "test ran past its 60 s cap"
