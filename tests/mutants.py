"""Mutation check, run by hand: ``python tests/mutants.py [NAME ...]``.

Each mutant is an exact text replacement in one file of ``src/lisenum``
together with the tests that should kill it.  The script copies ``src/``,
``tests/``, ``demos/``, ``pyproject.toml`` and ``README.md`` into a
temporary directory (several tests find ``src/``, ``demos/`` and the
README next to their own file), runs every named test there once
unmutated, then applies one mutant at a time and runs its tests in a
child pytest with the copy first on ``PYTHONPATH``.  A mutant is killed when one of
its tests fails (or the child runs past ``TIMEOUT_S``) and survives when
they all pass.

A mutant whose old text does not occur exactly once in its file is
stale; the script names every stale mutant and stops before running
anything: a refactor has to carry its mutants along.  Pytest collects
only ``test_*.py``, so tier-1 does not run this file.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 for
a stale mutant or named tests that fail unmutated.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
# address space of each child pytest, so a mutant that blows up the walk
# fails with MemoryError rather than starving the host
MEMORY_CAP = 2 << 30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/lisenum
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # exact: upper negation of the generalized binomial
    Mutant(
        "binomial-upper-negation", "exact.py",
        "return (-1) ** d * math.comb(d - c - 1, d)",
        "return (-1) ** d * math.comb(d - c, d)",
        ("tests/test_exact.py::test_binomial_against_product_oracle",),
    ),
    # exact: the all-int fast path of integer_rows
    Mutant(
        "integer-rows-fast-path-fractions", "exact.py",
        "if set(map(type, row)) == {int}:",
        "if set(map(type, row)) >= {int}:",
        ("tests/test_exact.py::test_integer_rows_scales_only_fraction_rows",),
    ),
    Mutant(
        "integer-rows-aliases-input", "exact.py",
        "out.append(list(row))",
        "out.append(row)",
        ("tests/test_exact.py::test_integer_rows_copies_int_rows",),
    ),
    # route 2: one node state, its child rule, the pruning and free-tail lemmas
    Mutant(
        "children-keep-a-pruned-child", "oracle.py",
        "if child[-1] >= 0:",
        "if child[-1] >= -1:",
        ("tests/test_oracle.py::test_enumerate_small_goldens",),
    ),
    Mutant(
        "free-tail-slack", "oracle.py",
        "range(len(state) - 1, -1, -1)",
        "[0] * len(state)",
        ("tests/test_oracle.py::test_blocks_are_free_tails",),
    ),
    Mutant(
        "free-tail-bound-one-lax", "oracle.py",
        "range(len(state) - 1, -1, -1)",
        "range(len(state) - 2, -2, -1)",
        ("tests/test_oracle.py::test_blocks_are_free_tails",),
    ),
    # cost only: more, smaller blocks, and more memo states
    Mutant(
        "free-tail-bound-one-strict", "oracle.py",
        "range(len(state) - 1, -1, -1)",
        "range(len(state), 0, -1)",
        (
            "tests/test_oracle.py::test_walk_skips_the_children_the_pruning_lemma_cuts",
            "tests/test_oracle.py::test_counting_memoizes_live_roots_only",
        ),
    ),
    # cost only: the walk lists every block one member at a time
    Mutant(
        "node-descends-below-blocks", "oracle.py",
        "return None if _free(state) else",
        "return None if not state else",
        ("tests/test_oracle.py::test_walk_skips_the_children_the_pruning_lemma_cuts",),
    ),
    Mutant(
        "children-cut-the-largest-too", "oracle.py",
        "if child[-1] >= 0:",
        "if child[-1] > 0:",
        ("tests/test_oracle.py::test_blocks_are_free_tails",),
    ),
    Mutant(
        "child-lowers-every-later-entry", "oracle.py",
        "child = state[:j] + (d - 1,) * c + later[c:]",
        "child = state[:j] + tuple(e - 1 for e in later)",
        ("tests/test_oracle.py::test_walk_carries_the_tail_positions",),
    ),
    Mutant(
        "child-lowers-another-distance", "oracle.py",
        "c = later.count(d)",
        "c = later.count(d - 1)",
        ("tests/test_oracle.py::test_walk_carries_the_tail_positions",),
    ),
    Mutant(
        "roots-last-tail-one-late", "oracle.py",
        "(n - k - 1,) * (first - 1)",
        "(n - k,) * (first - 1)",
        ("tests/test_oracle.py::test_walk_carries_the_tail_positions",),
    ),
    Mutant(
        "roots-pick-entry-one-high", "oracle.py",
        "state + (n - q - c,)",
        "state + (n - q - c + 1,)",
        ("tests/test_oracle.py::test_walk_carries_the_tail_positions",),
    ),
    Mutant(
        "roots-yield-dead-roots", "oracle.py",
        "for q in range(n - c, lo - 1, -1):",
        "for q in range(n - c + 1, lo - 1, -1):",
        ("tests/test_oracle.py::test_walks_match_candidate_scan",),
    ),
    Mutant(
        "roots-first-alone-at-n-0", "oracle.py",
        "values[first:first + 1], tuple(range(1, first))",
        "[first], tuple(range(1, first))",
        ("tests/test_oracle.py::test_enumerate_small_goldens",),
    ),
    Mutant(
        "roots-n-alone-twice", "oracle.py",
        "yield prefix + values[lo:], rest, state",
        "yield prefix + values[lo:n] + [n], rest, state",
        ("tests/test_oracle.py::test_enumerate_small_goldens",),
    ),
    Mutant(
        "iter-class-drops-prefix", "oracle.py",
        "permutations(free)) for head, free in _blocks(n, k, prefix)",
        "permutations(free)) for head, free in _blocks(n, k)",
        ("tests/test_oracle.py::test_enumerate_with_prefix",),
    ),
    # route 2's listing text: one head per block, arguments checked on the call
    Mutant(
        "enumerate-trailing-separator", "oracle.py",
        'text = sep.join(map(name, head)) + (sep if free else "")',
        "text = sep.join(map(name, head)) + sep",
        ("tests/test_cli.py::test_enumerate_prints_format_perm_lines",),
    ),
    Mutant(
        "block-text-drops-last-newline", "oracle.py",
        'return f"{text}{body}\\n"',
        'return f"{text}{body}"',
        ("tests/test_cli.py::test_enumerate_prints_format_perm_lines",),
    ),
    Mutant(
        "lines-check-when-read", "oracle.py",
        "    return starmap(block_text, blocks)\n",
        "    yield from starmap(block_text, blocks)\n",
        ("tests/test_oracle.py::test_lines_check_the_prefix_when_called",),
    ),
    # the package API: __all__ is every public name the imports bind
    Mutant(
        "all-keeps-modules", "__init__.py",
        'if not name.startswith("_") and not isinstance(value, _ModuleType)',
        'if not name.startswith("_")',
        ("tests/test_boundaries.py::test_all_names_each_public_attribute_once",),
    ),
    # route 2's counting: the walk's roots, children and blocks, memoized
    Mutant(
        "roots-drop-value-n", "oracle.py",
        "yield prefix + values[lo:], rest, state",
        "yield prefix + values[lo:n], rest, state",
        ("tests/test_oracle.py::test_walks_match_candidate_scan",),
    ),
    Mutant(
        "roots-one-pick-short", "oracle.py",
        "pick(first + 1, k - first + 1,",
        "pick(first + 1, k - first,",
        ("tests/test_oracle.py::test_walks_match_candidate_scan",),
    ),
    Mutant(
        "children-skip-the-last", "oracle.py",
        "for j, d in enumerate(state):",
        "for j, d in enumerate(state[:-1]):",
        ("tests/test_oracle.py::test_walks_match_candidate_scan",),
    ),
    Mutant(
        "count-block-one-value-short", "oracle.py",
        "return factorial(len(state))",
        "return factorial(len(state) - 1)",
        ("tests/test_oracle.py::test_count_sums_the_blocks_below_each_root",),
    ),
    # cost only: counting a free node through its children
    Mutant(
        "count-free-node-walks", "oracle.py",
        "    if _free(state):\n        return factorial(len(state))\n",
        "    if not state:\n        return 1\n",
        (
            "tests/test_oracle.py::test_count_of_a_free_node_calls_no_child",
            "tests/test_oracle.py::test_counting_memoizes_live_roots_only",
        ),
    ),
    # route 4 and the Bareiss engine
    Mutant(
        "bareiss-step-divisor", "matrices.py",
        "for j in range(t + 1, len(top)):\n"
        "            num = row[j] * p - f * top[j]\n"
        "            q, r = divmod(num, prev)",
        "for j in range(t + 1, len(top)):\n"
        "            num = row[j] * p - f * top[j]\n"
        "            q, r = divmod(num, 1)",
        ("tests/test_matrices.py::test_bareiss_step_refuses_an_inexact_division",),
    ),
    Mutant(
        "det-bareiss-no-swap-sign", "matrices.py",
        "            sign = -sign\n        _bareiss_step(m, t, prev, m[t + 1:])",
        "        _bareiss_step(m, t, prev, m[t + 1:])",
        ("tests/test_matrices.py::test_bareiss_needs_row_pivoting",),
    ),
    Mutant(
        "det-bareiss-zero-column", "matrices.py",
        "return Fraction(0)",
        "return Fraction(1)",
        ("tests/test_matrices.py::test_bareiss_needs_row_pivoting",),
    ),
    Mutant(
        "cramer-clears-below-only", "matrices.py",
        "_bareiss_step(m, t, prev, m[:t] + m[t + 1:])",
        "_bareiss_step(m, t, prev, m[t + 1:])",
        ("tests/test_matrices.py::test_solve_cramer_golden",),
    ),
    Mutant(
        "cramer-skips-pivot-check", "matrices.py",
        "if last != d:",
        "if False:",
        ("tests/test_matrices.py::test_solve_cramer_checks_its_last_pivot",),
    ),
    # route 3 must not share route 4's step
    Mutant(
        "solve-bareiss-shares-step", "matrices.py",
        "        for row in m[t + 1:]:\n"
        "            f = row[t]\n"
        "            for j in range(t + 1, n + 1):\n"
        "                num = row[j] * p - f * top[j]\n"
        "                q, r = divmod(num, prev)\n"
        "                if r:\n"
        "                    exact_div(num, prev)  # raises the inexact-division error\n"
        "                row[j] = q\n",
        "        _bareiss_step(m, t, prev, m[t + 1:])\n",
        ("tests/test_boundaries.py::test_matrices_functions_share_no_code",),
    ),
    # route 3's integer back substitution
    Mutant(
        "solve-bareiss-unscaled-rhs", "matrices.py",
        "exact_div(prev * row[n] - rest, row[i])",
        "exact_div(row[n] - rest, row[i])",
        ("tests/test_matrices.py::test_solve_bareiss_matches_fraction_back_substitution",),
    ),
    Mutant(
        "det-product-skips-a-divisor", "matrices.py",
        "den *= divisor",
        "den *= divisor if i <= k else 1",
        ("tests/test_matrices.py::test_det_product_matches_term_by_term_product",),
    ),
    # the second determinant engine
    Mutant(
        "dodgson-shift-too-small", "matrices.py",
        "c = 2 * h + 1",
        "c = h + 1",
        ("tests/test_matrices.py::test_engines_match_leibniz_on_random_integer_matrices",),
    ),
    # Dodgson's paths: unshifted first, restart at a zero divisor, planted
    # zeros straight to the shift
    Mutant(
        "dodgson-unshifted-drops-scale", "matrices.py",
        "            return Fraction(det, scale)\n",
        "            return Fraction(det)\n",
        ("tests/test_matrices.py::test_engines_match_leibniz_on_random_rational_matrices",),
    ),
    Mutant(
        "dodgson-no-zero-divisor-check", "matrices.py",
        "                if not d:\n"
        "                    return None\n",
        "",
        ("tests/test_matrices.py::test_dodgson_restarts_at_a_zero_minor",),
    ),
    # Dodgson's condensation refuses a remainder, and the shift's Pascal rows
    Mutant(
        "condense-keeps-a-remainder", "matrices.py",
        "                if r:\n"
        "                    exact_div(num, d)",
        "                if False:\n"
        "                    exact_div(num, d)",
        ("tests/test_matrices.py::test_condense_refuses_an_inexact_division",),
    ),
    Mutant(
        "pascal-rows-unsummed", "matrices.py",
        "pascal.append(list(accumulate(pascal[-1])))",
        "pascal.append(list(pascal[-1]))",
        ("tests/test_matrices.py::test_engines_match_leibniz_on_random_integer_matrices",),
    ),
    Mutant(
        "dodgson-planted-zero-unshifted", "matrices.py",
        "if all(all(row[1:n - 1]) for row in m[1:n - 1]):",
        "if True:",
        ("tests/test_matrices.py::test_dodgson_planted_zero_goes_straight_to_the_shift",),
    ),
    # identities: the sign exponent must stay an int for r <= -k-2
    Mutant(
        "poles-parity-unreduced", "identities.py",
        "(-1) ** ((k + r + j) % 2)",
        "(-1) ** (k + r + j)",
        ("tests/test_cli.py::test_verify_ones_grid_below_the_window",),
    ),
    Mutant(
        "ones-residual-wrong-base", "identities.py",
        "(-b, k2)",
        "(-b, k1)",
        ("tests/test_identities.py::test_ones_recurrence_residuals",),
    ),
    # identities: the per-run cache's key, reach and lifetime
    Mutant(
        "ones-memo-key-drops-n", "identities.py",
        "f = cache(ones_product_entry)",
        "f = lambda k, r, n, at={}: at.setdefault((k, r), ones_product_entry(k, r, n))",
        ("tests/test_failure_paths.py::test_out_of_window_probes_are_recorded",),
    ),
    Mutant(
        "ones-residuals-skip-memo", "identities.py",
        "first, second = _ones_residuals(f, k, r, n)",
        "first, second = _ones_residuals(ones_product_entry, k, r, n)",
        ("tests/test_identities.py::test_grid_run_evaluates_each_defined_value_once",),
    ),
    Mutant(
        "moment-memo-outlives-run", "identities.py",
        "g = cache(binomial_moment_sum)",
        'g = run_moment_identity_grid.__dict__.setdefault("memo", '
        "cache(binomial_moment_sum))",
        ("tests/test_identities.py::test_grid_memo_ends_with_its_run",),
    ),
    # identities: the pole check inlined into the one-denominator sum
    Mutant(
        "pole-check-range-off-by-one", "identities.py",
        "    if 1 <= n <= k + 1:\n",
        "    if 1 <= n <= k:\n",
        ("tests/test_identities.py::test_sums_match_term_by_term_references",),
    ),
    # identities: the convolution columns and the empty x range
    Mutant(
        "convolution-column-by-symmetry", "identities.py",
        "return [binomial(y + a, y) for y in range(x_hi + 1)]",
        "return [binomial(y + a, a) for y in range(x_hi + 1)]",
        ("tests/test_identities.py::test_convolution_negative_parameters",),
    ),
    Mutant(
        "convolution-empty-range-passes", "identities.py",
        "if x_hi < x_lo:",
        "if False:",
        ("tests/test_cli.py::test_verify_convolution_grid_without_nonnegative_x",),
    ),
    # identities: the grid compares sums, and builds a record for the first failing x only
    Mutant(
        "convolution-one-x-is-empty", "identities.py",
        "if x_hi < x_lo:",
        "if x_hi <= x_lo:",
        ("tests/test_cli.py::test_verify_convolution_grid_with_one_x",),
    ),
    Mutant(
        "convolution-witness-at-first-x", "identities.py",
        "vandermonde_chu_check(a, b, bad).witness",
        "vandermonde_chu_check(a, b, x_lo).witness",
        ("tests/test_failure_paths.py::test_convolution_wrong",),
    ),
    # pipeline: route 3's total, the bijection check, the bounds rule
    Mutant(
        "kernel-count-steps", "pipeline.py",
        '"transfer_matrix" if method == "kernel"',
        '"recursion" if method == "kernel"',
        ("tests/test_pipeline.py::test_kernel_count_takes_no_column_steps",),
    ),
    Mutant(
        "bijection-strict-threshold", "pipeline.py",
        "for mu in source if mu[0] >= i]",
        "for mu in source if mu[0] > i]",
        ("tests/test_oracle.py::test_insertion_bijection_passes",),
    ),
    Mutant(
        "count-formula-float-division", "pipeline.py",
        "* falling_factorial(n, i) for i",
        "* (factorial(n) / factorial(n - i)) for i",
        ("tests/test_boundaries.py::test_no_float_is_returned_at_runtime",),
    ),
    # pipeline: run_suite resolves one grid, and every suite reads its cells from it
    Mutant(
        "run-suite-k-bound-from-grid", "pipeline.py",
        "    if k_max < 0:\n",
        "    if grid.k[1] < 0:\n",
        ("tests/test_pipeline.py::test_run_suite_validation",),
    ),
    Mutant(
        "run-suite-ignores-grid-bound", "pipeline.py",
        "grid = grid or GridSpec()",
        "grid = GridSpec()",
        ("tests/test_cli.py::test_run_suite_resolves_bounds_as_verify_does",),
    ),
    Mutant(
        "override-applied-to-a-copy", "pipeline.py",
        "grid = GridSpec.from_dict({**grid._asdict(),",
        "resolved = GridSpec.from_dict({**grid._asdict(),",
        ("tests/test_pipeline.py::test_k_max_bounds_the_identity_grids_too",),
    ),
    Mutant(
        "grid-sizes-drop-n-floor", "identities.py",
        "return range(max(self.n[0], 2 * k), self.n[1] + 1)",
        "return range(2 * k, self.n[1] + 1)",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "counts-k-from-zero", "pipeline.py",
        "    for k in grid.k_values():\n"
        "        for n in grid.sizes(k):\n"
        "            recursion = ",
        "    for k in range(grid.k[1] + 1):\n"
        "        for n in grid.sizes(k):\n"
        "            recursion = ",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "conjecture-k-from-zero", "pipeline.py",
        "    for k in grid.k_values():\n"
        '        name = f"kernel k={k}"',
        "    for k in range(grid.k[1] + 1):\n"
        '        name = f"kernel k={k}"',
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "lemma-a-k-from-zero", "pipeline.py",
        "check_transfer_consistency(k, n) for k in grid.k_values()",
        "check_transfer_consistency(k, n) for k in range(grid.k[1] + 1)",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "lemma-b-rows-at-poles", "pipeline.py",
        "for k in grid.k_values() for n in grid.n_values(k)]",
        "for k in grid.k_values() for n in grid.sizes(k)]",
        ("tests/test_pipeline.py::test_individual_suites_pass",),
    ),
    Mutant(
        "lemma-c-ignores-grid", "pipeline.py",
        "return run_moment_identity_grid(grid)",
        "return run_moment_identity_grid(GridSpec())",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "prop33-dets-n-from-2k", "pipeline.py",
        "        for n in grid.sizes(k):\n"
        "            q = component_matrix(k, n)",
        "        for n in range(2 * k, grid.n[1] + 1):\n"
        "            q = component_matrix(k, n)",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "det-product-cap-from-zero", "pipeline.py",
        "for k in grid._replace(k=(grid.k[0], min(grid.k[1], 3))).k_values():",
        "for k in range(min(grid.k[1], 3) + 1):",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    Mutant(
        "bijection-floor-drops-grid", "pipeline.py",
        "n=(max(grid.n[0], 1), min(grid.n[1], 9))",
        "n=(1, min(grid.n[1], 9))",
        ("tests/test_pipeline.py::test_every_suite_reads_its_cells_from_the_grid",),
    ),
    # pipeline: the one group table and the records it regroups
    Mutant(
        "run-suite-all-runs-nothing", "pipeline.py",
        'if suite in ("all", group):',
        "if suite == group:",
        ("tests/test_pipeline.py::test_run_suite_sets_each_group_once_in_table_order",),
    ),
    Mutant(
        "group-table-keys-swapped", "pipeline.py",
        '"lemmaA": _suite_lemma_a,\n'
        '        "lemmaB": _suite_lemma_b,',
        '"lemmaB": _suite_lemma_a,\n'
        '        "lemmaA": _suite_lemma_b,',
        ("tests/test_pipeline.py::test_run_suite_sets_each_group_once_in_table_order",),
    ),
    Mutant(
        "regroup-drops-witness", "pipeline.py",
        "CheckResult(name, status, witness, group)",
        "CheckResult(name, status, None, group)",
        ("tests/test_failure_paths.py::test_components_disagree",),
    ),
    # identities: GridSpec owns verify's default bounds
    Mutant(
        "grid-default-k-bound", "identities.py",
        "k: Range = (0, 5)",
        "k: Range = (0, 4)",
        ("tests/test_acceptance.py::test_criterion_9_default_verify_run",),
    ),
    # pipeline: the one budget rule and the suites that ask it
    Mutant(
        "over-budget-inclusive", "pipeline.py",
        "if candidates > budget:",
        "if candidates >= budget:",
        ("tests/test_pipeline.py::test_budget_boundary_and_skip_witnesses",),
    ),
    Mutant(
        "counts-cap-needs-both", "pipeline.py",
        "if n > ORACLE_N_CAP or over_budget(n, k, budget):",
        "if n > ORACLE_N_CAP and over_budget(n, k, budget):",
        ("tests/test_pipeline.py::test_budget_boundary_and_skip_witnesses",),
    ),
    Mutant(
        "conjecture-budget-wrong-cell", "pipeline.py",
        "if why := over_budget(2 * k, k, budget):",
        "if why := over_budget(2 * k + 1, k, budget):",
        ("tests/test_pipeline.py::test_budget_boundary_and_skip_witnesses",),
    ),
    Mutant(
        "bijection-budget-source-cell", "pipeline.py",
        "if why := over_budget(n + 1, k, budget):",
        "if why := over_budget(n, k, budget):",
        ("tests/test_pipeline.py::test_budget_boundary_and_skip_witnesses",),
    ),
    # pipeline: each matrices function is reached through its one binding
    Mutant(
        "transfer-check-bypasses-binding", "pipeline.py",
        "product = mat_mul(component_matrix(k, n), transfer_matrix(n, k))",
        "product = mat_mul(component_matrix(k, n), "
        '__import__("lisenum.matrices").matrices.transfer_matrix(n, k))',
        ("tests/test_failure_paths.py::test_matrix_product_collapse_wrong",),
    ),
    Mutant(
        "counting-row-check-wrong-n", "pipeline.py",
        "row_times_matrix(counting_row(k, n), component_matrix(k, n))",
        "row_times_matrix(counting_row(k, n + 1), component_matrix(k, n))",
        ("tests/test_pipeline.py::test_individual_suites_pass",),
    ),
    Mutant(
        "prop33-one-engine", "pipeline.py",
        'engines = (("bareiss", det_bareiss), ("dodgson", det_dodgson))',
        'engines = (("bareiss", det_bareiss), ("dodgson", det_bareiss))',
        ("tests/test_failure_paths.py::test_dodgson_engine_wrong",),
    ),
    Mutant(
        "dodgson-batch-ignores-dim", "pipeline.py",
        "batches.setdefault((dim, plant and dim >= 3), [])",
        "batches.setdefault((dim, plant), [])",
        ("tests/test_failure_paths.py::test_dodgson_runs_without_bareiss",),
    ),
    # pipeline: the suite's matrices are randint's, row by row, and the
    # report's runtime is the run's own
    Mutant(
        "random-matrix-column-major", "pipeline.py",
        "rows = [entries[i:i + dim] for i in range(0, dim * dim, dim)]",
        "rows = [entries[i::dim] for i in range(dim)]",
        ("tests/test_pipeline.py::test_random_integer_matrix_draws_as_randint_does",),
    ),
    Mutant(
        "runtime-adds-start", "pipeline.py",
        "time.perf_counter() - start)",
        "time.perf_counter() + start)",
        ("tests/test_pipeline.py::test_report_runtime_is_the_run_time",),
    ),
    # identities: the moment recurrence's branches, conditions swapped
    Mutant(
        "moment-branches-swapped", "identities.py",
        "elif first[0]:\n"
        '                    check = failed(rname, f"k-direction residual {Fraction(*first)}")\n'
        "                elif b == k:",
        "elif b == k:\n"
        '                    check = failed(rname, f"k-direction residual {Fraction(*first)}")\n'
        "                elif first[0]:",
        ("tests/test_failure_paths.py::test_out_of_window_probes_are_recorded",),
    ),
    # identities: the right side of the two-sided moment identity
    Mutant(
        "moment-identity-rhs-unsigned", "identities.py",
        "return lhs, ((-1) ** k * binomial(n, b)",
        "return lhs, (binomial(n, b)",
        ("tests/test_identities.py::test_sums_match_term_by_term_references",),
    ),
    Mutant(
        "moment-identity-rhs-drops-pole", "identities.py",
        "(n - 1) * binomial(n - 2, k))",
        "binomial(n - 2, k))",
        ("tests/test_identities.py::test_sums_match_term_by_term_references",),
    ),
    # report: the builders' windows and first-mismatch scan
    Mutant(
        "expect-within-asserts-probes", "report.py",
        "    if inside:\n",
        "    if True:\n",
        ("tests/test_failure_paths.py::test_out_of_window_probes_are_recorded",),
    ),
    Mutant(
        "expect-entries-never-fails", "report.py",
        "        if got != want:\n",
        "        if False:\n",
        ("tests/test_failure_paths.py::test_matrix_product_collapse_wrong",),
    ),
    # report: the streamed report file escapes as json does, and closes an empty list
    Mutant(
        "report-writer-keeps-non-ascii", "report.py",
        "from json.encoder import encode_basestring_ascii as quote",
        "from json.encoder import encode_basestring as quote",
        ("tests/test_cli.py::test_report_writer_escapes_as_json_does",),
    ),
    Mutant(
        "report-writer-opens-empty-checks", "report.py",
        'write("\\n  ]" if self.checks else "[]")',
        'write("[\\n\\n  ]" if not self.checks else "\\n  ]")',
        ("tests/test_cli.py::test_verify_report_file_is_the_indented_dump",),
    ),
    # report: each check is written from its fields, the witness escaped too
    Mutant(
        "report-writer-witness-unescaped", "report.py",
        """',\\n      "witness": ' + quote(witness)""",
        """',\\n      "witness": "' + witness + '"'""",
        ("tests/test_cli.py::test_report_writer_escapes_as_json_does",),
    ),
    # cli: listing's chunks, the budget it asks and its reason, verify's bounds
    Mutant(
        "enumerate-write-per-block", "cli.py",
        "    for text in blocks:\n"
        "        pending += text\n",
        "    for text in blocks:\n"
        "        write(text)\n"
        "        continue\n",
        ("tests/test_cli.py::test_enumerate_writes_pinned_stdout_a_chunk_at_a_time",),
    ),
    Mutant(
        "oracle-budget-fixed", "cli.py",
        "if why := pipeline.over_budget(n, k, pipeline.DEFAULT_BUDGET):",
        "if why := pipeline.over_budget(n, k, 10**6):",
        ("tests/test_cli.py::test_brute_force_budget_is_inclusive",),
    ),
    Mutant(
        "refusal-drops-why", "cli.py",
        'raise ValueError(f"brute force at n={n}, k={k}: {why}")',
        'raise ValueError(f"brute force at n={n}, k={k}")',
        ("tests/test_cli.py::test_brute_force_over_budget_exits_2",),
    ),
    Mutant(
        "verify-budget-default-fixed", "cli.py",
        "default=pipeline.DEFAULT_BUDGET,",
        "default=10**5,",
        ("tests/test_cli.py::test_run_suite_resolves_bounds_as_verify_does",),
    ),
    Mutant(
        "verify-help-n-bound-from-k", "cli.py",
        'help=f"default {GridSpec().n[1]}"',
        'help=f"default {GridSpec().k[1]}"',
        ("tests/test_cli.py::test_verify_help_names_the_default_bounds",),
    ),
    Mutant(
        "verify-out-lost-on-closed-stdout", "cli.py",
        "    try:\n"
        "        print(report.summary())\n"
        "    finally:\n",
        "    if True:\n"
        "        print(report.summary())\n"
        "    if True:\n",
        ("tests/test_cli.py::test_verify_writes_the_report_when_stdout_closes",),
    ),
    Mutant(
        "verify-drops-k-max", "cli.py",
        "k_max=args.k_max, n_max=args.n_max",
        "k_max=None, n_max=args.n_max",
        ("tests/test_cli.py::test_run_suite_resolves_bounds_as_verify_does",),
    ),
    # functions that lost a dead store, a dead branch or a repeated check
    Mutant(
        "bareiss-step-skips-next-column", "matrices.py",
        "        f = row[t]\n        for j in range(t + 1, len(top)):",
        "        f = row[t]\n        for j in range(t + 2, len(top)):",
        ("tests/test_matrices.py::test_engines_match_leibniz_on_random_integer_matrices",),
    ),
    Mutant(
        "solve-bareiss-keeps-a-remainder", "matrices.py",
        "                if r:\n                    exact_div(num, prev)",
        "                if False:\n                    exact_div(num, prev)",
        ("tests/test_matrices.py::test_solve_bareiss_refuses_an_inexact_division",),
    ),
    Mutant(
        "component-counts-skips-the-empty-class", "oracle.py",
        "for first in range(1, k + 2)]",
        "for first in range(1, min(k + 2, n + 1))]",
        ("tests/test_oracle.py::test_component_counts",),
    ),
    Mutant(
        "cramer-row-check-from-k-plus-3", "pipeline.py",
        'if method == "cramer" and n >= k + 2:',
        'if method == "cramer" and n > k + 2:',
        ("tests/test_pipeline.py::test_cramer_count_checks_the_row_functional_from_n_equal_k_plus_2",),
    ),
    Mutant(
        "cramer-row-check-every-method", "pipeline.py",
        'if method == "cramer" and n >= k + 2:',
        "if n >= k + 2:",
        ("tests/test_pipeline.py::test_only_the_cramer_count_reads_the_row_functional",),
    ),
    Mutant(
        "table-one-column-refused", "pipeline.py",
        "if n_to < n_from:",
        "if n_to <= n_from:",
        ("tests/test_cli.py::test_table_one_column",),
    ),
    Mutant(
        "bijection-witness-stops-at-the-shorter-list", "pipeline.py",
        "zip_longest(images, members)",
        "zip(images, members)",
        ("tests/test_failure_paths.py::test_bijection_member_missing",),
    ),
    Mutant(
        "convolution-check-rhs-off-by-one", "identities.py",
        "_column(b, x)), binomial(a + b + x + 1, x)",
        "_column(b, x)), binomial(a + b + x, x)",
        ("tests/test_identities.py::test_convolution_trivial_point",),
    ),
    Mutant(
        "convolution-grid-witness-is-a-name", "identities.py",
        "vandermonde_chu_check(a, b, bad).witness",
        "vandermonde_chu_check(a, b, bad).name",
        ("tests/test_failure_paths.py::test_convolution_wrong",),
    ),
    Mutant(
        "run-suite-grid-built-unchecked", "pipeline.py",
        "grid = GridSpec.from_dict({**grid._asdict(),",
        "grid = GridSpec(**{**grid._asdict(),",
        ("tests/test_pipeline.py::test_run_suite_refuses_a_malformed_grid_however_built",),
    ),
    # statements a deletion sweep found no test for, each now pinned
    Mutant(
        "bijection-budget-cut-runs-the-cell", "pipeline.py",
        "                results.append(skipped(name, why))\n                continue\n",
        "                results.append(skipped(name, why))\n",
        ("tests/test_cli.py::test_verify_budget_zero_skips_every_bijection_cell",),
    ),
    Mutant(
        "budget-zero-refused", "pipeline.py",
        "if budget < 0:",
        "if budget <= 0:",
        ("tests/test_cli.py::test_verify_budget_zero_skips_every_bijection_cell",),
    ),
    Mutant(
        "initial-vector-unchecked", "matrices.py",
        "    check_size(2 * k, k)\n    return tuple(\n        sum(",
        "    return tuple(\n        sum(",
        ("tests/test_matrices.py::test_initial_vector_takes_the_size_rule",),
    ),
    Mutant(
        "insert-prefix-unchecked", "oracle.py",
        "    check_permutation(mu)\n    if not mu:",
        "    if not mu:",
        ("tests/test_oracle.py::test_insert_prefix_errors",),
    ),
    Mutant(
        "conjecture-violation-drops-solution", "pipeline.py",
        "        self.solution = solution\n",
        "",
        ("tests/test_pipeline.py::test_conjecture_violation_is_loud",),
    ),
    Mutant(
        "brute-force-budget-before-size", "pipeline.py",
        "    check_size(n, k)\n    candidates = oracle.candidate_count(n, k)\n",
        "    candidates = oracle.candidate_count(n, k)\n",
        ("tests/test_cli.py::test_brute_force_checks_the_size_before_the_budget",),
    ),
    Mutant(
        "falling-factorial-unchecked", "exact.py",
        "    if n < 0 or i < 0:\n",
        "    if False:\n",
        ("tests/test_exact.py::test_falling_factorial_domain_errors",),
    ),
    Mutant(
        "children-keep-every-child", "oracle.py",
        "if child[-1] >= 0:",
        "if True:",
        ("tests/test_oracle.py::test_walk_skips_the_children_the_pruning_lemma_cuts",),
    ),
    Mutant(
        "dodgson-prescan-skips-last-column", "matrices.py",
        "if all(all(row[1:n - 1]) for row in m[1:n - 1]):",
        "if all(all(row[1:n - 2]) for row in m[1:n - 1]):",
        ("tests/test_matrices.py::test_dodgson_planted_zero_goes_straight_to_the_shift",),
    ),
    Mutant(
        "dodgson-prescan-skips-last-row", "matrices.py",
        "if all(all(row[1:n - 1]) for row in m[1:n - 1]):",
        "if all(all(row[1:n - 1]) for row in m[1:n - 2]):",
        ("tests/test_matrices.py::test_dodgson_planted_zero_goes_straight_to_the_shift",),
    ),
    Mutant(
        "integer-rows-no-fast-path", "exact.py",
        "        if set(map(type, row)) == {int}:\n"
        "            out.append(list(row))\n"
        "            continue\n",
        "",
        ("tests/test_exact.py::test_integer_rows_scales_only_fraction_rows",),
    ),
    Mutant(
        "table-json-indent-3", "pipeline.py",
        "}, indent=2, sort_keys=True)",
        "}, indent=3, sort_keys=True)",
        ("tests/test_cli.py::test_table_json_bytes",),
    ),
    Mutant(
        "enumerate-chunk-drops-newline", "cli.py",
        "(len(oracle.format_perm(range(1, args.n + 1))) + 1)",
        "len(oracle.format_perm(range(1, args.n + 1)))",
        ("tests/test_cli.py::test_enumerate_cuts_writes_at_512_lines",),
    ),
    Mutant(
        "enumerate-cut-one-late", "cli.py",
        "write(pending[:size])\n            pending = pending[size:]",
        "write(pending[:size + 1])\n            pending = pending[size + 1:]",
        ("tests/test_cli.py::test_enumerate_cuts_writes_at_512_lines",),
    ),
    Mutant(
        "enumerate-one-chunk-per-block", "cli.py",
        "while len(pending) >= size:",
        "if len(pending) >= size:",
        ("tests/test_cli.py::test_enumerate_cuts_writes_at_512_lines",),
    ),
    Mutant(
        "enumerate-chunk-513", "cli.py",
        "ENUMERATE_CHUNK = 512",
        "ENUMERATE_CHUNK = 513",
        ("tests/test_cli.py::test_enumerate_writes_pinned_stdout_a_chunk_at_a_time",),
    ),
    # cli: each command binds its own handler; pipeline: the size before the budget
    Mutant(
        "table-bound-to-count", "cli.py",
        "p_table.set_defaults(run=_cmd_table)",
        "p_table.set_defaults(run=_cmd_count)",
        ("tests/test_cli.py::test_table_json_bytes",),
    ),
    Mutant(
        "over-budget-prices-before-size", "pipeline.py",
        "    check_size(n, k)\n    candidates = oracle.candidate_count(n, k)\n",
        "    candidates = oracle.candidate_count(n, k)\n    check_size(n, k)\n",
        ("tests/test_cli.py::test_brute_force_checks_the_size_before_the_budget",),
    ),
    # report: one document for to_json and the streamed file
    Mutant(
        "document-drops-checks", "report.py",
        '"checks": checks,',
        '"checks": [],',
        ("tests/test_pipeline.py::test_report_json_shape",),
    ),
    Mutant(
        "report-split-keeps-empty-checks", "report.py",
        """.split('"checks": []')""",
        """.split('"checks": ')""",
        ("tests/test_cli.py::test_verify_report_file_is_the_indented_dump",),
    ),
    # report: the status tallies are Counters
    Mutant(
        "totals-drops-a-status", "report.py",
        "for status in (PASS, FAIL, SKIPPED)}",
        "for status in (PASS, FAIL)}",
        ("tests/test_pipeline.py::test_report_json_shape",),
    ),
    Mutant(
        "summary-swaps-two-counts", "report.py",
        'f"{by_group[name, FAIL]} failed, {by_group[name, SKIPPED]} skipped"',
        'f"{by_group[name, SKIPPED]} failed, {by_group[name, FAIL]} skipped"',
        ("tests/test_pipeline.py::test_report_summary_labels_builder_records_ungrouped",),
    ),
    # matrices: the square rule and the product form's size rule
    Mutant(
        "square-rule-from-first-row", "matrices.py",
        '_exact(row, len(rows), f"row {r}")',
        '_exact(row, len(rows[0]), f"row {r}")',
        ("tests/test_matrices.py::test_matrix_is_square_by_construction",),
    ),
    Mutant(
        "det-product-size-check-k-minus-1", "matrices.py",
        "    check_size(2 * k, k)\n    num = den = 1",
        "    check_size(2 * k, k - 1)\n    num = den = 1",
        ("tests/test_matrices.py::test_det_product_refuses_negative_k",),
    ),
    # matrices: the constructors' per-process memo
    Mutant(
        "memo-rebuilds-each-call", "matrices.py",
        "        return memo(*args, **kwargs)",
        "        return build(*args, **kwargs)",
        ("tests/test_matrices.py::test_constructors_build_each_value_once",),
    ),
    Mutant(
        "memo-untyped", "matrices.py",
        "lru_cache(maxsize=None, typed=True)",
        "lru_cache(maxsize=None)",
        ("tests/test_matrices.py::test_constructors_build_each_value_once",),
    ),
    Mutant(
        "counting-row-drops-pole-factor", "matrices.py",
        "    scale = (n - 1) * binomial(n - 2, k)\n    return tuple(\n        Fraction(",
        "    scale = binomial(n - 2, k)\n    return tuple(\n        Fraction(",
        ("tests/test_matrices.py::test_counting_row_values",),
    ),
    # matrices: a rational row is cleared of denominators once
    Mutant(
        "row-dots-wrong-scale", "matrices.py",
        "Fraction(_dot(row, c), scale)",
        "Fraction(_dot(row, c))",
        ("tests/test_matrices.py::test_rationals_are_kept_and_promote",),
    ),
    Mutant(
        "row-dots-no-int-path", "matrices.py",
        "    if set(map(type, u)) == {int}:\n        return tuple(_dot(u, c) for c in columns)\n",
        "",
        ("tests/test_matrices.py::test_structured_matrices_and_products_hold_ints",),
    ),
    # identities: integer numerators over the product of the denominators
    Mutant(
        "poles-pair-drops-sign", "identities.py",
        "        denominator *= n - j\n    return numerator, denominator",
        "        denominator *= n - j\n    return numerator, abs(denominator)",
        ("tests/test_identities.py::test_sums_match_term_by_term_references",),
    ),
    Mutant(
        "combine-drops-a-denominator", "identities.py",
        "numerator = numerator * q + c * x.numerator * denominator",
        "numerator = numerator + c * x.numerator * denominator",
        ("tests/test_identities.py::test_residuals_match_fraction_arithmetic",),
    ),
    Mutant(
        "ones-residual-sign-flipped", "identities.py",
        "_combine((c + d, r1), (-c, here), (-d, r2))",
        "_combine((c - d, r1), (-c, here), (-d, r2))",
        ("tests/test_identities.py::test_ones_recurrence_residuals_zero_on_grid",),
    ),
    Mutant(
        "ones-public-residuals-swapped", "identities.py",
        "_ones_residuals(ones_product_entry, k, r, n)\n    return Fraction(*first), Fraction(*second)",
        "_ones_residuals(ones_product_entry, k, r, n)\n    return Fraction(*second), Fraction(*first)",
        ("tests/test_boundaries.py::test_grid_records_match_the_fraction_functions",),
    ),
    Mutant(
        "ones-grid-reads-first-residual-only", "identities.py",
        "elif first[0] or second[0]:",
        "elif first[0]:",
        ("tests/test_failure_paths.py::test_ones_entry_wrong_in_window",),
    ),
    Mutant(
        "ones-grid-asserts-probes", "identities.py",
        "                if not inside:\n",
        "                if False:\n",
        ("tests/test_failure_paths.py::test_out_of_window_probes_are_recorded",),
    ),
    Mutant(
        "moment-sum-drops-normalizer", "identities.py",
        "Fraction(numerator, denominator * nb)",
        "Fraction(numerator, denominator)",
        ("tests/test_identities.py::test_moment_sum_values",),
    ),
    Mutant(
        "moment-residual-wrong-base", "identities.py",
        "return _combine((1, up), (-1, here)),",
        "return _combine((1, up), (-1, up)),",
        ("tests/test_failure_paths.py::test_moment_sum_wrong_k_direction",),
    ),
    Mutant(
        "moment-public-residuals-swapped", "identities.py",
        "_moment_residuals(binomial_moment_sum, k, b, n)\n    return Fraction(*first), Fraction(*second)",
        "_moment_residuals(binomial_moment_sum, k, b, n)\n    return Fraction(*second), Fraction(*first)",
        ("tests/test_boundaries.py::test_grid_records_match_the_fraction_functions",),
    ),
    Mutant(
        "moment-grid-reads-b-denominator", "identities.py",
        "elif second[0]:",
        "elif second[1] == 0:",
        ("tests/test_failure_paths.py::test_moment_sum_wrong_b_direction",),
    ),
    Mutant(
        "moment-identity-cross-product-flipped", "identities.py",
        "if p * t == s * q:",
        "if p * q == s * t:",
        ("tests/test_identities.py::test_moment_identity_check_values",),
    ),
)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """``("pass" | "fail" | "timeout" | "error", detail)`` for one child pytest."""
    path = [str(copy / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"over {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    if done.returncode == 0:
        return "pass", lines[-1] if lines else ""
    if done.returncode == 1:
        first = next((line for line in lines if line.startswith("FAILED ")), "FAILED ?")
        return "fail", first.removeprefix("FAILED ").split(" - ")[0]
    return "error", "\n".join(lines[-20:] + done.stderr.splitlines()[-20:])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    sources = {m.file: (ROOT / "src" / "lisenum" / m.file).read_text() for m in chosen}
    stale = [(m, found) for m in chosen if (found := sources[m.file].count(m.old)) != 1]
    for m, found in stale:
        print(f"stale mutant {m.name}: its old text occurs {found} times in {m.file}",
              file=sys.stderr)
    if stale:
        return 2
    with tempfile.TemporaryDirectory(prefix="lisenum-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        every = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        verdict, detail = run_tests(copy, every)
        if verdict != "pass":
            print(f"the named tests do not pass unmutated ({verdict}):\n{detail}", file=sys.stderr)
            return 2
        survived = 0
        print(f"{'mutant':32} {'verdict':9} {'seconds':>7}  by")
        for m in chosen:
            target = copy / "src" / "lisenum" / m.file
            original = sources[m.file]
            target.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                verdict, detail = run_tests(copy, m.tests)
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - start
            if verdict == "error":
                print(f"mutant {m.name}: pytest did not run:\n{detail}", file=sys.stderr)
                return 2
            label = "survived" if verdict == "pass" else "killed"
            survived += verdict == "pass"
            print(f"{m.name:32} {label:9} {seconds:7.1f}  {detail}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
