"""The routes share no code beyond ``exact``: each route module may import
only the package modules pinned here, read from its source with ``ast``.
No module reads a sibling's private names.  The package exports each of
its public names exactly once, and the CLI loads no standard module that
its commands do not use.  Only ``run_suite`` names the suite groups, and
the source holds no float but the report's runtime, nor does any value a
package function returns.  On the wide grid, the identity grid runners,
which compare integer numerators, give the records that the public
``Fraction`` functions give."""

import ast
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import lisenum
from lisenum import GridSpec, binomial, cli, identities, matrices, pipeline
from lisenum.report import expect, expect_within, failed, skipped

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lisenum"

ALLOWED = {
    "exact": set(),
    "report": set(),
    "oracle": {"exact"},
    "matrices": {"exact"},
    "identities": {"exact", "report"},
}


def import_forms(module: str) -> tuple[set[str], set[str]]:
    """The top-level package modules that ``module`` imports, wherever it
    does: those bound as modules, and those it takes names from."""
    as_module, by_name = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names, found = [alias.name for alias in node.names], as_module
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = f"lisenum.{source}".rstrip(".")
            if source == "lisenum":
                # from . import a, b: each name is a module
                names, found = [f"lisenum.{alias.name}" for alias in node.names], as_module
            else:
                names, found = [source], by_name
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("lisenum.")}
    return as_module, by_name


def package_imports(module: str) -> set[str]:
    """Top-level package modules that ``module`` imports, wherever it does."""
    return set.union(*import_forms(module))


@pytest.mark.parametrize("module", ALLOWED)
def test_route_module_imports(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_scan_sees_package_imports():
    assert package_imports("pipeline") >= {"exact", "identities", "matrices", "oracle", "report"}
    assert package_imports("cli") >= {"identities", "oracle", "pipeline"}
    # and tells a module binding from names taken out of it
    assert import_forms("cli") == ({"oracle", "pipeline"}, {"identities"})
    assert import_forms("pipeline")[1] >= {"exact", "identities", "matrices", "report"}


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_each_sibling_is_bound_one_way(module):
    # a module bound both ways can be patched under one binding while
    # calls go through the other
    as_module, by_name = import_forms(module)
    assert not as_module & by_name


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_private_name_of_a_sibling(module):
    # a sibling's underscore names are its own to change: neither read as
    # an attribute of the module nor imported by name
    as_module = import_forms(module)[0]
    private = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in as_module and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert not private


def reaches(module: str) -> dict[str, set[str]]:
    """For each top-level definition of ``module``, the other top-level
    definitions it reaches by following the names it uses, transitively."""
    defs = {
        node.name: node for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    uses = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in defs}
        for name, node in defs.items()
    }
    found = {}
    for name in defs:
        seen, todo = set(), [name]
        while todo:
            for used in uses[todo.pop()] - seen:
                seen.add(used)
                todo.append(used)
        found[name] = seen - {name}
    return found


# README: route 3's solver shares no elimination code with route 4, and
# the two determinant engines share no code.
SHARE_NO_CODE = {
    "solve_bareiss": {"det_bareiss", "_bareiss_step", "solve_cramer", "det_dodgson", "_condense"},
    "det_dodgson": {"det_bareiss", "_bareiss_step", "solve_bareiss", "solve_cramer"},
    "det_bareiss": {"det_dodgson", "_condense"},
    "solve_cramer": {"det_dodgson", "_condense", "solve_bareiss"},
}


@pytest.mark.parametrize("function", SHARE_NO_CODE)
def test_matrices_functions_share_no_code(function):
    assert not reaches("matrices")[function] & SHARE_NO_CODE[function]


def test_the_scan_follows_calls():
    found = reaches("matrices")
    assert found["solve_cramer"] >= {"det_bareiss", "_bareiss_step", "SingularMatrixError"}
    assert "_bareiss_step" in found["det_bareiss"]
    assert "_condense" in found["det_dodgson"]


# The five memoized constructors, and kernel_by_solve over its memoized
# kernel, stay plain functions: the benchmark's tracer times only plain
# functions, so a bare lru_cache on one would drop it from its span
MEMOIZED = (
    matrices.kernel_matrix, matrices.component_matrix, matrices.transfer_matrix,
    matrices.initial_vector, matrices.counting_row, pipeline.kernel_by_solve,
)


@pytest.mark.parametrize("function", MEMOIZED, ids=lambda f: f.__name__)
def test_memoized_names_stay_plain_functions(function):
    assert type(function) is FunctionType


def test_all_names_each_public_attribute_once():
    names = lisenum.__all__
    assert len(names) == len(set(names))
    public = {
        name for name, value in vars(lisenum).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(names) == public


# Modules no count, csv table or enumerate call needs: ``dataclasses``
# drags in ``inspect``, ``ast`` and ``dis``, and ``json`` serves only
# verify and the JSON table.  Each costs every CLI call its import time.
UNUSED_ON_CLI_PATH = ("dataclasses", "inspect", "ast", "dis", "json")

IMPORT_PROBE = """
import sys
from lisenum import cli

def loaded():
    print("loaded:", *[m for m in %r if m in sys.modules])

for argv in (
    ["count", "--n", "0", "--k", "0"],
    ["table", "--k", "2", "--n-from", "4", "--n-to", "6", "--format", "csv"],
    ["enumerate", "--n", "6", "--k", "2"],
):
    assert cli.main(argv) == 0
loaded()
assert cli.main(["table", "--k", "2", "--n-from", "4", "--n-to", "6", "--format", "json"]) == 0
loaded()
""" % (UNUSED_ON_CLI_PATH,)


def test_cli_path_imports_only_what_runs():
    # -S: no site hook, so the modules seen are the ones lisenum loads
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    reports = [line.split()[1:] for line in done.stdout.splitlines() if line.startswith("loaded:")]
    assert reports == [[], ["json"]]


def module_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_only_run_suite_names_the_groups():
    groups = set(pipeline.SUITES) - {"all"} | {"counts"}
    for module in MODULES:
        if module != "pipeline":
            nodes = ast.walk(module_tree(module))
            found = {n.value for n in nodes if isinstance(n, ast.Constant) and n.value in groups}
            assert not found, module
    helpers = {
        node.name: [arg.arg for arg in node.args.args]
        for node in module_tree("report").body if isinstance(node, ast.FunctionDef)
    }
    assert set(helpers) == {
        "passed", "failed", "skipped", "expect", "expect_within", "expect_entries",
    }
    assert not [name for name, args in helpers.items() if "group" in args]


# the integer functions of math; the rest take or return floats
EXACT_MATH = {"comb", "perm", "lcm", "prod", "factorial"}


def test_no_float_in_the_source():
    # the one float is VerificationReport.runtime_seconds: its annotation,
    # its 0.0 default and the clock readings in run_suite that fill it
    floats, math_names, clock = [], set(), []
    for module in MODULES:
        for top in module_tree(module).body:
            where = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and type(node.value) is float:
                    floats.append((*where, node.value))
                elif isinstance(node, ast.Name) and node.id == "float":
                    floats.append((*where, "float"))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id == "math":
                        math_names.add(node.attr)
                    elif node.value.id == "time":
                        clock.append((*where, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module == "math":
                    math_names |= {alias.name for alias in node.names}
                elif isinstance(node, ast.Import):
                    assert all(a.asname is None for a in node.names if a.name == "math")
    report = ("report", "VerificationReport")
    assert floats == [(*report, "float"), (*report, 0.0)]
    assert math_names <= EXACT_MATH
    assert clock == [("pipeline", "run_suite", "perf_counter")] * 2


def float_path(value, depth=3):
    """Index path to a float in ``value``, looking into tuples and lists
    ``depth`` levels deep; None when there is none."""
    if isinstance(value, float):
        return ()
    if depth and isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            path = float_path(item, depth - 1)
            if path is not None:
                return (i, *path)
    return None


# holds every cell of the default run; x reaches below 0, where the
# determinant product grid reads it
WIDE_GRID = GridSpec.from_dict({
    "k": [0, 6], "n": [-3, 22], "r": [-4, 9], "b": [-2, 8],
    "x": [-6, 12], "y": [-2, 7], "A": [-12, 12], "B": [-12, 12],
})
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))


def test_no_float_is_returned_at_runtime(capsys):
    # every return (and yield) of a function in the package is inspected
    # over verify on the wide grid, the CLI commands and every demo; the
    # one float allowed is VerificationReport.runtime_seconds
    package = os.path.dirname(lisenum.__file__)
    flagged = []

    def hook(frame, event, value):
        code = frame.f_code
        if event == "return" and os.path.dirname(code.co_filename) == package:
            path = float_path(value)
            if path is not None:
                flagged.append((Path(code.co_filename).stem, code.co_name, path))

    runs = [["count", "--n", str(n), "--k", str(k), "--method", method]
            for n, k in ((0, 0), (9, 2), (11, 5)) for method in pipeline.COUNT_METHODS]
    runs += [["table", "--k", "3", "--n-from", "6", "--n-to", "12", "--format", fmt]
             for fmt in ("md", "csv", "json")]
    runs += [["enumerate", "--n", "8", "--k", "3"],
             ["enumerate", "--n", "9", "--k", "4", "--prefix", "2"]]
    sys.setprofile(hook)
    try:
        report = pipeline.run_suite("all", grid=WIDE_GRID)
        codes = [cli.main(argv) for argv in runs]
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    assert report.ok and codes == [0] * len(runs) and DEMOS
    runtime = (report._fields.index("runtime_seconds"),)
    assert flagged == [("pipeline", "run_suite", runtime)]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# grid runners against the public Fraction functions
# ---------------------------------------------------------------------------

def reference_ones_records(spec):
    """run_ones_identity_grid's records, built from each point's Fraction
    value and Fraction residuals."""
    records = []
    for k in spec.k_values():
        for n in spec.n_values(k):
            for r in range(spec.r[0], spec.r[1] + 1):
                inside = 1 <= r <= k + 1
                records.append(expect_within(
                    f"ones-entry k={k} r={r} n={n}", inside, identities.ones_product_entry(k, r, n),
                    1, "value {got}", "outside 1 <= r <= k+1, recorded value {got}",
                ))
                rname = f"ones-recurrence k={k} r={r} n={n}"
                try:
                    residuals = identities.ones_entry_recurrence_residuals(k, r, n)
                except ValueError as exc:
                    records.append(skipped(rname, f"undefined reference: {exc}"))
                    continue
                records.append(expect_within(
                    rname, inside, residuals, (0, 0), "residuals ({got[0]}, {got[1]})",
                    "outside 1 <= r <= k+1, recorded residuals ({got[0]}, {got[1]})",
                ))
    return records


def reference_moment_identity(k, b, n):
    """moment_identity_check with both sides summed term by term as Fractions."""
    lhs = sum((Fraction((-1) ** (j - 1) * binomial(k, j - 1) * binomial(j, b), n - j)
               for j in range(1, k + 2)), Fraction(0))
    rhs = Fraction((-1) ** k * binomial(n, b), (n - 1) * binomial(n - 2, k))
    return expect(f"moment-identity k={k} b={b} n={n}", lhs, rhs, "lhs={got} rhs={want}")


def reference_moment_records(spec):
    """run_moment_identity_grid's records, built from each point's Fraction
    value and Fraction residuals."""
    records = []
    for k in spec.k_values():
        for n in spec.n_values(k):
            for b in range(spec.b[0], spec.b[1] + 1):
                name = f"moment-sum k={k} b={b} n={n}"
                try:
                    value = identities.binomial_moment_sum(k, b, n)
                except ValueError as exc:
                    records.append(skipped(name, f"undefined: {exc}"))
                    continue
                records.append(expect_within(
                    name, b <= k, value, 1, "value {got}", "outside 0 <= b <= k, recorded value {got}",
                ))
                if b <= k:
                    records.append(reference_moment_identity(k, b, n))
                rname = f"moment-recurrence k={k} b={b} n={n}"
                try:
                    first, second = identities.moment_sum_recurrence_residuals(k, b, n)
                except ValueError as exc:
                    records.append(skipped(rname, f"undefined reference: {exc}"))
                    continue
                if b > k:
                    records.append(skipped(
                        rname, f"outside 0 <= b <= k, recorded residuals ({first}, {second})"))
                elif first != 0:
                    records.append(failed(rname, f"k-direction residual {first}"))
                elif b == k:
                    records.append(skipped(rname, "b-direction probes b+1 > k, recorded residual "
                                           f"{second}; k-direction residual 0"))
                else:
                    records.append(expect(rname, second, 0, "b-direction residual {got}"))
    return records


def planted_ones(real):
    # wrong by a third at every even k, inside the window and beyond it
    return lambda k, r, n: real(k, r, n) + (Fraction(r, 3) if k % 2 == 0 else 0)


def planted_moment(real):
    # one rational error at k = 2 and 3: the k-direction fails at k = 1
    # and 3, the b-direction at k = 2
    return lambda k, b, n: real(k, b, n) + (Fraction(b + 1, 5) if k in (2, 3) else 0)


@pytest.mark.parametrize("plant", (False, True), ids=("as-is", "planted"))
@pytest.mark.parametrize("name, run, reference, wrong", [
    ("ones_product_entry", identities.run_ones_identity_grid, reference_ones_records,
     planted_ones),
    ("binomial_moment_sum", identities.run_moment_identity_grid, reference_moment_records,
     planted_moment),
], ids=("ones", "moment"))
def test_grid_records_match_the_fraction_functions(monkeypatch, name, run, reference, wrong,
                                                   plant):
    if plant:
        monkeypatch.setattr(identities, name, wrong(getattr(identities, name)))
    records = run(WIDE_GRID)
    assert records == reference(WIDE_GRID)
    statuses = {c.status for c in records}
    # the wide grid holds probes and refused points; a plant adds failures
    assert statuses == ({"pass", "skipped", "fail"} if plant else {"pass", "skipped"})
