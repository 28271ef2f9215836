"""Counting routes, tables and the cross-validation engine."""

import json
import random
import re
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisenum import (
    CheckResult,
    ConjectureViolation,
    GridSpec,
    VerificationReport,
    component_counts,
    component_table,
    components,
    count,
    count_formula,
    kernel_by_solve,
    run_suite,
)
from lisenum import matrices, pipeline
from lisenum.pipeline import ORACLE_N_CAP
from lisenum.report import failed, passed, skipped

KERNELS = {
    0: [1],
    1: [0, 1],
    2: [1, 2, 2],
    3: [14, 15, 12, 6],
    4: [225, 188, 132, 72, 24],
    5: [4364, 3205, 2080, 1140, 480, 120],
}

TABLE_K1 = {2: [0, 1], 3: [1, 1], 4: [2, 1], 5: [3, 1], 6: [4, 1]}
TABLE_K2 = {4: [1, 2, 2], 5: [5, 4, 2], 6: [11, 6, 2], 7: [19, 8, 2], 8: [29, 10, 2], 9: [41, 12, 2]}
TABLE_K3 = {
    6: [14, 15, 12, 6],
    7: [47, 33, 18, 6],
    8: [104, 57, 24, 6],
    9: [191, 87, 30, 6],
    10: [314, 123, 36, 6],
    11: [479, 165, 42, 6],
}


@pytest.mark.parametrize(
    "n, k, expected",
    [(4, 2, 5), (11, 3, 692), (3, 0, 1), (9, 0, 1), (2, 1, 1), (9, 2, 55), (10, 3, 479)],
)
def test_count_formula(n, k, expected):
    assert count_formula(n, k) == expected


def test_count_formula_domain():
    with pytest.raises(ValueError):
        count_formula(3, 2)


def test_kernels_by_solve():
    for k, expected in KERNELS.items():
        assert kernel_by_solve(k) == expected


def test_kernel_by_solve_rejects_negative_k():
    with pytest.raises(ValueError, match=r"^k must be nonnegative, got k=-1$"):
        kernel_by_solve(-1)


def test_each_call_returns_a_fresh_kernel():
    kernel = kernel_by_solve(3)
    kernel[0] = -1
    kernel.append(7)
    assert kernel_by_solve(3) == KERNELS[3]
    assert kernel_by_solve(3) is not kernel_by_solve(3)


def test_kernel_is_solved_once_per_k(monkeypatch, fresh_kernel_memo):
    solves, real = [], pipeline.solve_bareiss

    def counted(a, v):
        solves.append(len(v) - 1)
        return real(a, v)

    monkeypatch.setattr(pipeline, "solve_bareiss", counted)
    run_suite("all")
    assert solves == list(range(6))
    # typed: an equal bool is solved on its own, an equal float refused
    assert kernel_by_solve(True) == KERNELS[1] and solves[-1] == 1 and len(solves) == 7
    with pytest.raises(TypeError):
        kernel_by_solve(2.0)


def test_a_conjecture_violation_is_not_memoized(monkeypatch, fresh_kernel_memo):
    monkeypatch.setattr(pipeline, "solve_bareiss", lambda a, v: (Fraction(1, 2), Fraction(-1)))
    for _ in range(3):
        with pytest.raises(ConjectureViolation, match=r"^kernel solve at k=3 .*: \[1/2, -1\]$"):
            kernel_by_solve(3)
    assert pipeline._solved_kernel.cache_info().currsize == 0


def test_kernels_match_oracle():
    for k in range(0, 5):
        assert kernel_by_solve(k) == component_counts(2 * k, k)


def test_components_methods():
    assert components(5, 2, "recursion") == [5, 4, 2]
    assert components(9, 3, "cramer") == [191, 87, 30, 6]
    for k in range(0, 5):
        assert components(2 * k, k, "transfer_matrix") == KERNELS[k]
    with pytest.raises(ValueError):
        components(8, 2, "nonsense")


def test_components_agree_across_methods():
    for k in range(0, 4):
        for n in range(2 * k, 13):
            recursion = components(n, k, "recursion")
            assert components(n, k, "transfer_matrix") == recursion
            assert components(n, k, "cramer") == recursion
            assert components(n, k, "oracle") == recursion


def test_count_methods():
    assert count(8, 2, "oracle") == 41
    assert count(10, 3, "formula") == 479
    assert count(6, 1, "kernel") == 5
    assert count(7, 3, "cramer") == 104
    with pytest.raises(ValueError):
        count(8, 2, "nonsense")
    with pytest.raises(ValueError):
        count(6, 1, "kernel_recursion")


def test_kernel_count_takes_no_column_steps():
    # stepping the n - 2k columns took seconds at (10^7, 2)
    start = time.perf_counter()
    assert count(10**7, 2, "kernel") == 99999970000001
    assert time.perf_counter() - start < 1.0


def test_kernel_count_matches_formula():
    for k in range(13):
        for n in range(2 * k, 2 * k + 60):
            assert count(n, k, "kernel") == count_formula(n, k), (n, k)


def test_count_agreement_small_grid():
    for k in range(0, 4):
        for n in range(2 * k, 11):
            values = {count(n, k, m) for m in ("formula", "oracle", "kernel", "cramer")}
            assert len(values) == 1, (n, k, values)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


def _patch_out(monkeypatch, *names):
    """Make every named solver raise, in matrices and where pipeline
    imported it by name; its callers empty the kernel memo
    (``fresh_kernel_memo``), so that a kernel solved before is solved
    again."""
    for name in names:
        for module in (matrices, pipeline):
            monkeypatch.setattr(module, name, _refuse(name))


def test_kernel_route_computes_no_determinant(monkeypatch, fresh_kernel_memo):
    # route 3 solves by one elimination; route 4's solver and the
    # determinant engine behind it are never entered
    _patch_out(monkeypatch, "solve_cramer", "det_bareiss")
    assert count(60, 12, "kernel") == count_formula(60, 12)
    table = component_table(7, 14, 40)
    assert table.totals[-1] == count_formula(40, 7)
    assert kernel_by_solve(5) == KERNELS[5]


def test_cramer_route_uses_no_elimination_solve(monkeypatch, fresh_kernel_memo):
    _patch_out(monkeypatch, "solve_bareiss")
    assert count(60, 12, "cramer") == count_formula(60, 12)
    assert components(9, 3, "cramer") == [191, 87, 30, 6]


def sizes(k_max):
    """(n, k) with k <= k_max and 2k <= n <= 200; the tests below are
    derandomized, so tier-1 runs the same examples every time."""
    return st.integers(0, k_max).flatmap(lambda k: st.tuples(st.integers(2 * k, 200), st.just(k)))


SIZES = sizes(30)


# k <= 60 reaches past the top rung of the solve benchmark
@settings(max_examples=60, deadline=None, derandomize=True)
@given(sizes(60))
def test_routes_agree_beyond_brute_force(size):
    n, k = size
    assert count(n, k, "formula") == count(n, k, "kernel") == count(n, k, "cramer")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SIZES)
def test_last_component_is_k_factorial(size):
    n, k = size
    assert components(n, k)[-1] == factorial(k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SIZES, st.integers(1, 30))
def test_table_columns_are_tail_sums(size, width):
    n, k = size
    table = component_table(k, n, n + width)
    for before, after in zip(table.columns, table.columns[1:]):
        assert list(after) == [sum(before[i:]) for i in range(k + 1)]


def test_conjecture_violation_is_loud():
    exc = ConjectureViolation(7, (1, 2))
    assert (exc.k, exc.solution) == (7, (1, 2))
    assert "k=7" in str(exc)


def test_cramer_count_checks_the_row_functional_from_n_equal_k_plus_2(monkeypatch):
    # (4, 2) is the first size where counting_row is defined at k = 2
    monkeypatch.setattr(pipeline, "counting_row", lambda k, n: (0,) * (k + 1))
    with pytest.raises(ArithmeticError, match=(
        "^row-functional count 0 disagrees with determinant count 5 at n=4, k=2$"
    )):
        count(4, 2, "cramer")


@pytest.mark.parametrize("method", ["formula", "kernel", "oracle"])
def test_only_the_cramer_count_reads_the_row_functional(monkeypatch, method):
    monkeypatch.setattr(pipeline, "counting_row", _refuse("counting_row"))
    assert count(4, 2, method) == 5


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_reproduce_reference_columns():
    for k, golden in ((1, TABLE_K1), (2, TABLE_K2), (3, TABLE_K3)):
        ns = sorted(golden)
        table = component_table(k, ns[0], ns[-1])
        for pos, n in enumerate(table.n_values):
            assert list(table.columns[pos]) == golden[n], (k, n)
        assert list(table.totals) == [sum(golden[n]) for n in ns]


def test_table_columns_match_components():
    # the table advances one column at a time; components restarts at n = 2k
    for k in range(7):
        for n_from in (2 * k, 2 * k + 3):
            table = component_table(k, n_from, 60)
            assert table.n_values == tuple(range(n_from, 61))
            for n, col in zip(table.n_values, table.columns):
                assert list(col) == components(n, k), (k, n)


def test_table_k0_is_all_ones():
    table = component_table(0, 1, 5)
    assert table.columns == ((1,),) * 5
    assert table.totals == (1, 1, 1, 1, 1)


def test_table_render_csv():
    got = component_table(2, 4, 9).render("csv").splitlines()
    assert got[0] == "component,n=4,n=5,n=6,n=7,n=8,n=9"
    assert got[1] == "B(1),1,5,11,19,29,41"
    assert got[2] == "B(2),2,4,6,8,10,12"
    assert got[3] == "B(3),2,2,2,2,2,2"
    assert got[4] == "A,5,11,19,29,41,55"
    assert len(got) == 5


def test_table_render_markdown():
    lines = component_table(1, 2, 6).render("md").splitlines()
    assert lines[0] == "| component | n=2 | n=3 | n=4 | n=5 | n=6 |"
    assert lines[2] == "| #B(1) | 0 | 1 | 2 | 3 | 4 |"
    assert lines[3] == "| #B(2) | 1 | 1 | 1 | 1 | 1 |"
    assert lines[4] == "| #A | 1 | 2 | 3 | 4 | 5 |"


def test_table_render_json():
    data = json.loads(component_table(3, 6, 11).render("json"))
    assert data["k"] == 3
    assert data["n_values"] == list(range(6, 12))
    assert data["components"][0] == [str(TABLE_K3[n][0]) for n in range(6, 12)]
    assert data["totals"] == [str(sum(TABLE_K3[n])) for n in range(6, 12)]


def test_table_domain_errors():
    with pytest.raises(ValueError):
        component_table(2, 3, 9)  # n_from < 2k
    with pytest.raises(ValueError):
        component_table(2, 9, 4)
    with pytest.raises(ValueError):
        component_table(2, 4, 9).render("yaml")


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_cross_validate_small_grid_passes():
    report = run_suite("all", k_max=2, n_max=8, budget=10**5)
    assert report.ok
    assert report.totals()["fail"] == 0
    assert report.bounds == {"k_max": 2, "n_max": 8, "budget": 10**5}
    names = [c.name for c in report.checks]
    assert f"kernel k=2" in names
    assert "components-agree k=2 n=8" in names


def test_cross_validate_is_deterministic():
    a = run_suite("all", k_max=1, n_max=6, budget=10**4)
    b = run_suite("all", k_max=1, n_max=6, budget=10**4)
    assert [(c.group, c.name, c.status, c.witness) for c in a.checks] == [
        (c.group, c.name, c.status, c.witness) for c in b.checks
    ]


def test_budget_skips_brute_force():
    report = run_suite("conjecture", k_max=4, budget=10)
    by_name = {c.name: c for c in report.checks}
    assert by_name["kernel k=0"].status == "pass"
    assert by_name["kernel k=3"].status == "skipped"
    assert "exceeds budget" in by_name["kernel k=3"].witness
    assert report.ok  # skips are not failures


def test_budget_boundary_and_skip_witnesses():
    # the default run's golden skips no conjecture or bijection cell, so
    # the boundary and the full texts are pinned here, one cell per suite
    def cell(suite, name, budget, k_max):
        checks = run_suite(suite, k_max=k_max, budget=budget).checks
        return next(c for c in checks if c.name == name)

    # (6, 3) has C(6, 3) * 3! = 120 candidates
    assert pipeline.over_budget(6, 3, 120) is None
    assert pipeline.over_budget(6, 3, 119) == "120 candidates exceeds budget 119"
    assert cell("conjecture", "kernel k=3", 120, 3) == ("kernel k=3", "pass", None, "conjecture")
    assert cell("conjecture", "kernel k=3", 119, 3) == (
        "kernel k=3", "skipped",
        "solved kernel [14, 15, 12, 6]; 120 candidates exceeds budget 119", "conjecture",
    )
    # the bijection from n = 2 walks (3, 1): 3 candidates
    name = "insertion-bijection k=1 n=2->3"
    assert cell("bijection", name, 3, 1) == (name, "pass", None, "bijection")
    assert cell("bijection", name, 2, 1) == (
        name, "skipped", "3 candidates exceeds budget 2", "bijection"
    )
    # (4, 1): 4 candidates
    name = "oracle-agree k=1 n=4"
    assert cell("all", name, 4, 1) == (name, "pass", None, "counts")
    assert cell("all", name, 3, 1) == (
        name, "skipped", f"4 candidates exceeds cap (budget 3, n cap {ORACLE_N_CAP})", "counts"
    )


def test_oracle_cap_applies():
    report = run_suite("all", k_max=0, n_max=ORACLE_N_CAP + 1, budget=10**6)
    skipped = [c for c in report.checks if c.status == "skipped" and "oracle-agree" in c.name]
    assert any(f"n={ORACLE_N_CAP + 1}" in c.name for c in skipped)


def test_individual_suites_pass():
    for suite in ("conjecture", "lemmaA", "lemmaB", "lemmaC", "prop33", "bijection", "dodgson"):
        report = run_suite(suite, k_max=2, n_max=8, budget=10**5)
        assert report.ok, (suite, [c for c in report.checks if c.status == "fail"][:3])
        assert report.suite == suite


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("all", k_max=-1)
    with pytest.raises(ValueError):
        run_suite("all", k_max=3, n_max=4)
    # bounds taken from a grid are validated like given ones
    with pytest.raises(ValueError, match=(
        r"^n upper bound \(--n-max or the grid's n\) must be at least twice the k upper bound: "
        r"n_max=8, k_max=5$"
    )):
        run_suite("all", grid=GridSpec.from_dict({"k": [0, 5], "n": [0, 8]}))
    with pytest.raises(
        ValueError, match=r"^k upper bound \(--k-max or the grid's k\) must be nonnegative, got -1$"
    ):
        run_suite("all", k_max=-1, grid=GridSpec.from_dict({"k": [0, 2], "n": [0, 8]}))
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        run_suite("all", budget=-1)


@pytest.mark.parametrize("grid, error", [
    (GridSpec(x=(5, 1)), "empty range for x: [5, 1]"),
    (GridSpec(r=(5, 1)), "empty range for r: [5, 1]"),
    (GridSpec(A=(0, 1.5)), "range for A must be a [lo, hi] integer pair, got (0, 1.5)"),
])
def test_run_suite_refuses_a_malformed_grid_however_built(grid, error):
    # a grid built in code meets the checks a --grid file meets
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        run_suite("all", grid=grid)


GROUP_ORDER = ["counts", "conjecture", "lemmaA", "lemmaB", "lemmaC", "prop33", "bijection", "dodgson"]


def test_run_suite_sets_each_group_once_in_table_order():
    checks = run_suite("all", k_max=1, n_max=3, budget=10**4).checks
    runs = [c.group for i, c in enumerate(checks) if i == 0 or c.group != checks[i - 1].group]
    assert runs == GROUP_ORDER
    for suite in GROUP_ORDER[1:]:
        single = run_suite(suite, k_max=1, n_max=3, budget=10**4).checks
        assert single and {c.group for c in single} == {suite}
        assert single == [c for c in checks if c.group == suite]


INNER_GRID = GridSpec(k=(3, 4), n=(9, 10))


@pytest.mark.parametrize("suite", pipeline.SUITES)
def test_every_suite_reads_its_cells_from_the_grid(suite):
    # the grid's lower bounds narrow the matrix and brute-force checks
    # too; the counts group runs only under "all"
    cells = [
        (c.name, key, int(value))
        for c in run_suite(suite, grid=INNER_GRID).checks
        for key, value in re.findall(r"\b([kn])=(-?\d+)", c.name)
    ]
    assert cells or suite == "dodgson"
    bounds = {"k": INNER_GRID.k, "n": INNER_GRID.n}
    assert [(name, key, v) for name, key, v in cells
            if not bounds[key][0] <= v <= bounds[key][1]] == []


def test_k_max_bounds_the_identity_grids_too():
    report = run_suite("lemmaB", k_max=1, grid=GridSpec(k=(0, 2), n=(0, 8)))
    assert report.bounds["k_max"] == 1
    assert [c.name for c in report.checks if re.search(r"\bk=2\b", c.name)] == []
    assert any(c.name.startswith("ones-entry k=1 ") for c in report.checks)


def test_report_runtime_is_the_run_time():
    # perf_counter() - start: nonnegative and within the call's own wall time
    start = time.perf_counter()
    report = run_suite("conjecture", k_max=3, n_max=6)
    wall = time.perf_counter() - start
    assert 0 <= report.runtime_seconds <= wall


def test_random_integer_matrix_draws_as_randint_does():
    # the dodgson suite's matrices are those the acceptance criterion draws
    # row by row with randint(-9, 9), planted zeros included
    ours, theirs = random.Random(20240229), random.Random(20240229)
    for index in range(1000):
        dim, plant = 2 + index % 5, index % 3 == 0
        rows = [[theirs.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        if plant and dim >= 3:
            rows[theirs.randint(1, dim - 2)][theirs.randint(1, dim - 2)] = 0
        assert pipeline.random_integer_matrix(ours, dim, plant) == matrices.Matrix(rows), index


def test_report_json_shape():
    report = run_suite("dodgson")
    data = report.to_json()
    assert data["suite"] == "dodgson"
    assert set(data["totals"]) == {"pass", "fail", "skipped"}
    assert data["totals"]["pass"] == len(data["checks"])
    for check in data["checks"]:
        assert {"group", "name", "status"} <= set(check)
    text = json.dumps(data)
    assert json.loads(text) == data


def test_report_summary_mentions_failures():
    report = VerificationReport("demo", {}, [CheckResult("broken thing", "fail", "witness text", "g")])
    assert not report.ok
    assert "broken thing" in report.summary()
    assert "witness text" in report.summary()


def test_report_summary_labels_builder_records_ungrouped():
    # a check builder called on its own leaves group "", which the summary
    # prints as "(ungrouped)", sorted before every named group
    report = VerificationReport("demo", {}, [
        CheckResult("z", "fail", "late", "lemmaA"),
        passed("a"), skipped("b", "why"), failed("c", "w"), skipped("d", "why"),
        passed("e"), skipped("f", "why"),
    ])
    assert report.summary() == "\n".join([
        "suite demo: 2 passed, 2 failed, 3 skipped (7 checks)",
        "  (ungrouped): 2 passed, 1 failed, 3 skipped",
        "  lemmaA: 0 passed, 1 failed, 0 skipped",
        "  FAIL [lemmaA] z: late",
        "  FAIL [] c: w",
    ])


def test_report_records_construct_and_compare():
    check = CheckResult("c", "pass")
    assert check == CheckResult(name="c", status="pass", witness=None, group="")
    assert check != CheckResult("c", "pass", group="g")
    assert repr(check) == "CheckResult(name='c', status='pass', witness=None, group='')"
    report = VerificationReport(suite="demo", bounds={}, checks=[check])
    assert report == VerificationReport("demo", {}, [check], 0.0)
    with pytest.raises(TypeError):
        VerificationReport("demo", {})  # checks has no shared default


@pytest.mark.parametrize("record, fields", [
    (CheckResult("c", "fail", "w", "g"), "name status witness group"),
    (GridSpec(), "k n r b x y A B"),
    (component_table(1, 2, 4), "k n_values columns totals"),
    (VerificationReport("demo", {}, []), "suite bounds checks runtime_seconds"),
], ids=["CheckResult", "GridSpec", "ComponentTable", "VerificationReport"])
def test_records_are_immutable(record, fields):
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
