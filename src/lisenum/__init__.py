"""Exact enumeration of permutations with an increasing prefix and a
bounded longest increasing subsequence.

The class at size (n, k), n >= 2k, consists of the permutations of
{1..n} whose first n-k entries increase and whose longest increasing
subsequence has length at most n-k.  The package counts it four
independent ways (closed formula, brute force, kernel recursion,
determinant solves), all in exact integer and rational arithmetic, and
ships verification suites that cross-check every route and every
supporting identity.
"""

from .exact import binomial, exact_div, falling_factorial
from .identities import (
    GridSpec,
    binomial_moment_sum,
    moment_identity_check,
    moment_sum_recurrence_residuals,
    ones_entry_recurrence_residuals,
    ones_product_entry,
    vandermonde_chu_check,
)
from .matrices import (
    Matrix,
    SingularMatrixError,
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
from .oracle import (
    component_counts,
    format_perm,
    insert_prefix,
    is_member,
    iter_class,
    lis_length,
)
from .pipeline import (
    ComponentTable,
    ConjectureViolation,
    check_counting_row,
    check_insertion_bijection,
    check_transfer_consistency,
    component_table,
    components,
    count,
    count_formula,
    kernel_by_solve,
    run_suite,
)
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "CheckResult",
    "ComponentTable",
    "ConjectureViolation",
    "GridSpec",
    "SingularMatrixError",
    "VerificationReport",
    "binomial",
    "binomial_det_product",
    "binomial_moment_sum",
    "check_counting_row",
    "check_insertion_bijection",
    "check_transfer_consistency",
    "component_counts",
    "component_matrix",
    "component_table",
    "components",
    "count",
    "count_formula",
    "counting_row",
    "det_bareiss",
    "det_dodgson",
    "dot",
    "exact_div",
    "falling_factorial",
    "format_perm",
    "initial_vector",
    "insert_prefix",
    "is_member",
    "iter_class",
    "kernel_by_solve",
    "kernel_matrix",
    "lis_length",
    "mat_mul",
    "matrix_times_vector",
    "moment_identity_check",
    "moment_sum_recurrence_residuals",
    "ones_entry_recurrence_residuals",
    "ones_product_entry",
    "row_times_matrix",
    "run_suite",
    "shifted_binomial_matrix",
    "solve_bareiss",
    "solve_cramer",
    "transfer_matrix",
    "vandermonde_chu_check",
]
