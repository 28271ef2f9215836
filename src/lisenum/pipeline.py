"""End-to-end counting methods, table generation and cross-validation.

Four independent routes produce the same numbers:

* ``formula``    the alternating closed formula,
* ``oracle``     brute-force enumeration,
* ``kernel``     the solved kernel times the binomial transfer matrix,
* ``cramer``     column-replacement determinant solves at size n.

The check builders the suites run over the route modules
(``check_transfer_consistency``, ``check_counting_row``,
``check_insertion_bijection``) live here, so no route module builds a
check record.  ``run_suite`` resolves the one grid every suite reads
its (k, n) cells from, holds the one table of suite groups and sets
each record's group to the group that built it; a builder called on
its own returns group ``""``.

Each sibling module is bound one way: ``oracle`` as a module
(``oracle.iter_class``), every other sibling by name
(``det_bareiss``, ``run_convolution_grid``).  Every name is looked up
when it is called, so patching ``pipeline.<name>`` or
``oracle.<name>`` reaches every caller here.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import accumulate, chain, zip_longest
from math import factorial
from typing import Iterator, NamedTuple

from . import oracle
from .exact import binomial, check_size, falling_factorial
from .identities import GridSpec, run_convolution_grid, run_moment_identity_grid
from .identities import run_ones_identity_grid
from .matrices import (
    Matrix,
    binomial_det_product,
    component_matrix,
    counting_row,
    det_bareiss,
    det_dodgson,
    dot,
    initial_vector,
    kernel_matrix,
    mat_mul,
    matrix_times_vector,
    row_times_matrix,
    shifted_binomial_matrix,
    solve_bareiss,
    solve_cramer,
    transfer_matrix,
)
from .report import PASS, CheckResult, VerificationReport, expect, expect_entries
from .report import failed, passed, skipped

COUNT_METHODS = ("formula", "oracle", "kernel", "cramer")
COMPONENT_METHODS = ("recursion", "transfer_matrix", "cramer", "oracle")
SUITES = ("all", "conjecture", "lemmaA", "lemmaB", "lemmaC", "prop33", "bijection", "dodgson")

DEFAULT_BUDGET = 10**6
# brute force is kept to small n by default even when the matrix grids go
# to the default n bound, GridSpec().n[1]; the candidate budget is the
# second, harder cap
ORACLE_N_CAP = 14


class ConjectureViolation(Exception):
    """The kernel solve produced something other than nonnegative integers."""

    def __init__(self, k: int, solution: tuple[Fraction, ...]):
        self.k = k
        self.solution = solution
        super().__init__(
            f"kernel solve at k={k} is not a nonnegative integer vector: "
            f"[{', '.join(map(str, solution))}]"
        )


def count_formula(n: int, k: int) -> int:
    """Closed form: sum_{i=0..k} (-1)^(k-i) binomial(k, i) n!/(n-i)!."""
    check_size(n, k)
    return sum(
        (-1) ** (k - i) * binomial(k, i) * falling_factorial(n, i) for i in range(k + 1)
    )


# kernel_by_solve's kernels for the life of the process, keyed by k and
# its type, so 2.0 or True is not served the kernel of 2 or 1
_kernels: dict[tuple[int, type], list[int]] = {}


def kernel_by_solve(k: int) -> list[int]:
    """The kernel column obtained by solving the kernel matrix system
    with one fraction-free elimination (no determinant is computed).

    This is the conjectured description of the kernel; it raises
    ConjectureViolation rather than rounding if the solve is ever
    non-integral or negative, and the verification suites compare it
    against brute force.  Each k is solved once per process; a
    violation is not kept, so it raises on every call, and each call
    returns a fresh list.
    """
    key = k, type(k)
    if key not in _kernels:
        solution = solve_bareiss(kernel_matrix(k), initial_vector(k))
        if any(x.denominator != 1 or x < 0 for x in solution):
            raise ConjectureViolation(k, solution)
        _kernels[key] = [int(x) for x in solution]
    return list(_kernels[key])


def _next_column(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The component vector at n+1 from the one at n: entry i becomes
    the tail sum of entries i..k+1."""
    return tuple(accumulate(reversed(vec)))[::-1]


def components(n: int, k: int, method: str = "recursion") -> list[int]:
    """Component vector [#B(1), ..., #B(k+1)] by the chosen method."""
    check_size(n, k)
    if method == "recursion":
        vec = kernel_by_solve(k)
        for _ in range(2 * k, n):
            vec = _next_column(vec)
        return list(vec)
    if method == "transfer_matrix":
        return list(matrix_times_vector(transfer_matrix(n, k), kernel_by_solve(k)))
    if method == "cramer":
        vec = solve_cramer(component_matrix(k, n), initial_vector(k))
        for j, x in enumerate(vec, start=1):
            if x.denominator != 1:
                raise ArithmeticError(
                    f"determinant components at n={n}, k={k}: entry {j} is non-integral ({x})"
                )
        return [x.numerator for x in vec]
    if method == "oracle":
        return oracle.component_counts(n, k)
    raise ValueError(f"unknown component method {method!r}; use one of {COMPONENT_METHODS}")


def count(n: int, k: int, method: str = "formula") -> int:
    """Total class size by the chosen method.

    The ``cramer`` route additionally cross-checks its total against the
    row-functional product counting_row . initial_vector whenever the
    row is defined.
    """
    if method == "formula":
        return count_formula(n, k)
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown count method {method!r}; use one of {COUNT_METHODS}")
    total = sum(components(n, k, "transfer_matrix" if method == "kernel" else method))
    if method == "cramer" and n >= k + 2:
        via_row = dot(counting_row(k, n), initial_vector(k))
        if via_row != total:
            raise ArithmeticError(
                f"row-functional count {via_row} disagrees with "
                f"determinant count {total} at n={n}, k={k}"
            )
    return total


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class ComponentTable(NamedTuple):
    """One column per n: the k+1 component counts plus the total row."""

    k: int
    n_values: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    def row(self, i: int) -> tuple[int, ...]:
        """Component row i, 1-based."""
        return tuple(col[i - 1] for col in self.columns)

    def _label_rows(self, mark: str) -> Iterator[list[str]]:
        """Header, component and total rows as text; ``mark`` prefixes labels."""
        yield ["component"] + [f"n={n}" for n in self.n_values]
        for i in range(1, self.k + 2):
            yield [f"{mark}B({i})"] + [str(v) for v in self.row(i)]
        yield [f"{mark}A"] + [str(v) for v in self.totals]

    def render(self, fmt: str) -> str:
        """The table as ``md``, ``csv`` or ``json`` text; JSON counts are
        decimal strings, since they outgrow 64-bit consumers quickly."""
        if fmt == "md":
            rows = self._label_rows("#")
            header = next(rows)
            lines = chain([header, ["---"] * len(header)], rows)
            return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)
        if fmt == "csv":
            return "\n".join(",".join(row) for row in self._label_rows(""))
        if fmt == "json":
            import json
            return json.dumps({
                "k": self.k,
                "n_values": list(self.n_values),
                "components": [[str(v) for v in self.row(i)] for i in range(1, self.k + 2)],
                "totals": [str(v) for v in self.totals],
            }, indent=2, sort_keys=True)
        raise ValueError(f"unknown table format {fmt!r}; use md, csv or json")


def component_table(k: int, n_from: int, n_to: int) -> ComponentTable:
    """Component vectors for n_from..n_to via the recursion, with every
    column total cross-checked against the closed formula.

    The recursion runs from n = 2k to n_from once; each later column is
    one tail-sum step from the column before it."""
    if n_to < n_from:
        raise ValueError(f"empty range: n_from={n_from} > n_to={n_to}")
    cols = []
    totals = []
    col = tuple(components(n_from, k, "recursion"))
    for n in range(n_from, n_to + 1):
        if n > n_from:
            col = _next_column(col)
        total = sum(col)
        expected = count_formula(n, k)
        if total != expected:
            raise ArithmeticError(
                f"table cell failure at k={k}, n={n}: recursion total {total} "
                f"vs formula {expected}"
            )
        cols.append(col)
        totals.append(total)
    return ComponentTable(k, tuple(range(n_from, n_to + 1)), tuple(cols), tuple(totals))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def over_budget(n: int, k: int, budget: int) -> str | None:
    """Why brute force at (n, k) does not fit ``budget``, or None when it
    does: it fits when its ``oracle.candidate_count(n, k)`` candidates
    number at most ``budget``.  The reason reads
    ``"{candidates} candidates exceeds budget {budget}"``.  A size that
    ``check_size`` refuses raises its ``ValueError`` before any pricing.

    This is the one budget rule, for the suites and for the CLI's
    brute-force commands alike.  ORACLE_N_CAP is not part of it: it
    limits how far the verify grid reaches, not what one cell costs,
    so a single cell named on the command line is held to the budget
    alone.
    """
    check_size(n, k)
    candidates = oracle.candidate_count(n, k)
    if candidates > budget:
        return f"{candidates} candidates exceeds budget {budget}"
    return None


def _suite_counts(grid: GridSpec, budget: int) -> list[CheckResult]:
    """Method agreement, row sums, constant last entry, telescoped count."""
    results = []
    for k in grid.k_values():
        for n in grid.sizes(k):
            recursion = components(n, k, "recursion")
            agree = expect(
                f"components-agree k={k} n={n}",
                (recursion, components(n, k, "transfer_matrix"), components(n, k, "cramer")),
                (recursion,) * 3,
                "recursion={got[0]} transfer={got[1]} cramer={got[2]}",
            )
            results.append(agree)
            if agree.status != PASS:
                continue
            expected = count_formula(n, k)
            results.append(expect(
                f"count-formula-match k={k} n={n}", sum(recursion), expected,
                "components sum {got}, formula {want}",
            ))
            lname = f"last-component k={k} n={n}"
            results.append(expect(lname, recursion[-1], factorial(k)))
            oname = f"oracle-agree k={k} n={n}"
            if n > ORACLE_N_CAP or over_budget(n, k, budget):
                results.append(skipped(
                    oname,
                    f"{oracle.candidate_count(n, k)} candidates exceeds cap "
                    f"(budget {budget}, n cap {ORACLE_N_CAP})",
                ))
            else:
                results.append(expect(
                    oname, oracle.component_counts(n, k), recursion,
                    "oracle={got} recursion={want}",
                ))
            if n >= k + 2:
                results.append(expect(
                    f"telescoped-count k={k} n={n}",
                    dot(counting_row(k, n), initial_vector(k)), expected,
                    "row functional gives {got}, formula {want}",
                ))
    return results


def _suite_conjecture(grid: GridSpec, budget: int) -> list[CheckResult]:
    """Solved kernel versus brute-forced kernel."""
    results = []
    for k in grid.k_values():
        name = f"kernel k={k}"
        try:
            solved = kernel_by_solve(k)
        except ConjectureViolation as exc:
            results.append(failed(name, str(exc)))
            continue
        if why := over_budget(2 * k, k, budget):
            results.append(skipped(name, f"solved kernel {solved}; {why}"))
            continue
        results.append(expect(
            name, solved, oracle.component_counts(2 * k, k), "solved={got} oracle={want}",
        ))
    return results


def check_transfer_consistency(k: int, n: int) -> CheckResult:
    """component_matrix(k, n) @ transfer_matrix(n, k) == kernel_matrix(k)."""
    product = mat_mul(component_matrix(k, n), transfer_matrix(n, k))
    return expect_entries(
        f"matrix-product-collapse k={k} n={n}",
        (
            (f"entry ({i}, {j})", got, want)
            for i, rows in enumerate(zip(product.entries, kernel_matrix(k).entries), 1)
            for j, (got, want) in enumerate(zip(*rows), 1)
        ),
    )


def check_counting_row(k: int, n: int) -> CheckResult:
    """counting_row(k, n) . component_matrix(k, n) == (1, ..., 1)."""
    product = row_times_matrix(counting_row(k, n), component_matrix(k, n))
    return expect_entries(
        f"counting-row-normalization k={k} n={n}",
        ((f"column {j}", value, 1) for j, value in enumerate(product, 1)),
    )


def _suite_lemma_a(grid: GridSpec, budget: int) -> list[CheckResult]:
    collapse = [check_transfer_consistency(k, n) for k in grid.k_values() for n in grid.sizes(k)]
    return collapse + run_convolution_grid(grid)


def _suite_lemma_b(grid: GridSpec, budget: int) -> list[CheckResult]:
    rows = [check_counting_row(k, n) for k in grid.k_values() for n in grid.n_values(k)]
    return rows + run_ones_identity_grid(grid)


def _suite_lemma_c(grid: GridSpec, budget: int) -> list[CheckResult]:
    return run_moment_identity_grid(grid)


def _suite_prop33(grid: GridSpec, budget: int) -> list[CheckResult]:
    """Unit determinants by both engines, integral solves and the product
    form of the parameterized determinant."""
    engines = (("bareiss", det_bareiss), ("dodgson", det_dodgson))
    results = []
    for k in grid.k_values():
        m = kernel_matrix(k)
        for label, engine in engines:
            name = f"det-kernel-matrix k={k} engine={label}"
            results.append(expect(name, engine(m), 1, "det = {got}"))
        sname = f"integral-kernel-solve k={k}"
        try:
            kernel_by_solve(k)
            results.append(passed(sname))
        except ConjectureViolation as exc:
            results.append(failed(sname, str(exc)))
        for n in grid.sizes(k):
            q = component_matrix(k, n)
            for label, engine in engines:
                name = f"det-component-matrix k={k} n={n} engine={label}"
                results.append(expect(name, engine(q), 1, "det = {got}"))
    for k in grid._replace(k=(grid.k[0], min(grid.k[1], 3))).k_values():
        for x in range(grid.x[0], grid.x[1] + 1):
            for y in range(grid.y[0], grid.y[1] + 1):
                name = f"det-product k={k} x={x} y={y}"
                try:
                    closed = binomial_det_product(k, x, y)
                except ValueError as exc:
                    results.append(skipped(name, str(exc)))
                    continue
                results.append(expect(
                    name, closed, det_bareiss(shifted_binomial_matrix(k, x, y)),
                    "product {got} vs determinant {want}",
                ))
    return results


def check_insertion_bijection(n: int, k: int) -> CheckResult:
    """Verify that prefix insertion is a bijection onto the next column.

    Insertion keeps the order of the values it shifts, so the images
    under target prefix i = 1..k+1 of the members with first entry
    r >= i, taken in lexicographic order, must list the class at n+1 in
    lexicographic order.  The first mismatch is the witness, ``none``
    past the end of either list.
    """
    if n == 0:
        raise ValueError("insertion is undefined from the empty permutation; need n >= 1")
    name = f"insertion-bijection k={k} n={n}->{n + 1}"
    source = list(oracle.iter_class(n, k))
    images = [oracle.insert_prefix(mu, i) for i in range(1, k + 2) for mu in source if mu[0] >= i]
    members = list(oracle.iter_class(n + 1, k))
    if images == members:
        return passed(name)
    pair = next(pair for pair in zip_longest(images, members) if pair[0] != pair[1])
    image, member = ("none" if mu is None else oracle.format_perm(mu) for mu in pair)
    return failed(name, f"image {image}, enumerated {member}")


def _suite_bijection(grid: GridSpec, budget: int) -> list[CheckResult]:
    """The bijection from every n >= 1 of the grid, capped at k <= 3, n <= 9."""
    small = grid._replace(k=(grid.k[0], min(grid.k[1], 3)),
                          n=(max(grid.n[0], 1), min(grid.n[1], 9)))
    results = []
    for k in small.k_values():
        for n in small.sizes(k):
            if why := over_budget(n + 1, k, budget):
                name = f"insertion-bijection k={k} n={n}->{n + 1}"
                results.append(skipped(name, why))
                continue
            results.append(check_insertion_bijection(n, k))
    return results


def random_integer_matrix(rng: random.Random, dim: int, plant_zero: bool) -> Matrix:
    """Uniform entries in [-9, 9], drawn row by row as ``rng.randint(-9,
    9)`` draws them (``randrange(19) - 9``, more cheaply: CPython's
    ``randrange(19)`` draws 5 random bits until they read below 19);
    optionally force one interior zero, so condensation takes its
    shifted path."""
    bits = rng.getrandbits
    entries = []
    for _ in range(dim * dim):
        while (r := bits(5)) >= 19:
            pass
        entries.append(r - 9)
    rows = [entries[i:i + dim] for i in range(0, dim * dim, dim)]
    if plant_zero and dim >= 3:
        rows[rng.randint(1, dim - 2)][rng.randint(1, dim - 2)] = 0
    return Matrix(rows)


def _suite_dodgson(grid: GridSpec, budget: int) -> list[CheckResult]:
    """Engine agreement on 1000 seeded random matrices of dimension 2..6;
    the grid and the budget bound none of them."""
    rng = random.Random(20240229)
    batches: dict[tuple[int, bool], list[tuple[int, Matrix]]] = {}
    for index in range(1000):
        dim, plant = 2 + index % 5, index % 3 == 0
        matrix = random_integer_matrix(rng, dim, plant)
        batches.setdefault((dim, plant and dim >= 3), []).append((index, matrix))
    results = []
    for (dim, planted), batch in sorted(batches.items()):
        name = f"engines-agree dim={dim} planted-zero={str(planted).lower()} count={len(batch)}"
        dets = ((i, det_bareiss(m), det_dodgson(m)) for i, m in batch)
        bad = next((f"matrix #{i}: bareiss {b} vs dodgson {d}" for i, b, d in dets if b != d), None)
        results.append(passed(name) if bad is None else failed(name, bad))
    return results


def run_suite(
    suite: str,
    k_max: int | None = None,
    n_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
    grid: GridSpec | None = None,
) -> VerificationReport:
    """Run one named verification suite and return its report.

    Every suite reads its k and n ranges from one resolved grid:
    ``grid``, or ``GridSpec()`` when none is given, with its ``k`` and
    ``n`` upper bounds replaced by ``k_max`` and ``n_max`` when those
    are given.  That grid passes through ``GridSpec.from_dict``, so a
    malformed range raises there however the grid was built, as does a
    bound below its range's lower bound.
    ``groups`` is the one table of suite groups, in report order; each
    record's group is the group that built it."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; use one of {SUITES}")
    grid = grid or GridSpec()
    k_max = grid.k[1] if k_max is None else k_max
    n_max = grid.n[1] if n_max is None else n_max
    if k_max < 0:
        raise ValueError("k upper bound (--k-max or the grid's k) must be nonnegative, "
                         f"got {k_max}")
    if n_max < 2 * k_max:
        raise ValueError("n upper bound (--n-max or the grid's n) must be at least twice "
                         f"the k upper bound: n_max={n_max}, k_max={k_max}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    grid = GridSpec.from_dict({**grid._asdict(), "k": (grid.k[0], k_max), "n": (grid.n[0], n_max)})
    groups = {
        "counts": _suite_counts,
        "conjecture": _suite_conjecture,
        "lemmaA": _suite_lemma_a,
        "lemmaB": _suite_lemma_b,
        "lemmaC": _suite_lemma_c,
        "prop33": _suite_prop33,
        "bijection": _suite_bijection,
        "dodgson": _suite_dodgson,
    }
    start = time.perf_counter()
    checks: list[CheckResult] = []
    for group, run in groups.items():
        if suite in ("all", group):
            checks.extend(CheckResult(name, status, witness, group)
                          for name, status, witness, _ in run(grid, budget))
    bounds = {"k_max": grid.k[1], "n_max": grid.n[1], "budget": budget}
    return VerificationReport(suite, bounds, checks, time.perf_counter() - start)
