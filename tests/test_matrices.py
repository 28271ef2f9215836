"""Exact linear algebra: constructors, determinant engines, solves."""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisenum import (
    Matrix,
    SingularMatrixError,
    binomial,
    binomial_det_product,
    check_counting_row,
    check_transfer_consistency,
    component_matrix,
    components,
    count,
    count_formula,
    counting_row,
    det_bareiss,
    det_dodgson,
    dot,
    initial_vector,
    kernel_matrix,
    mat_mul,
    matrices,
    matrix_times_vector,
    row_times_matrix,
    shifted_binomial_matrix,
    solve_bareiss,
    solve_cramer,
    transfer_matrix,
)
from lisenum.matrices import _bareiss_step, _condense
from lisenum.pipeline import COMPONENT_METHODS


def det_leibniz(m: Matrix) -> Fraction:
    """Independent oracle: signed sum over all permutations."""
    n = m.rows
    total = 0
    for sigma in permutations(range(n)):
        inversions = sum(sigma[a] > sigma[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(m.entries[i][sigma[i]] for i in range(n))
    return Fraction(total)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_transfer_matrix_values():
    for k in range(0, 6):
        assert transfer_matrix(2 * k, k) == Matrix.identity(k + 1)
    assert transfer_matrix(3, 1) == Matrix([[1, 1], [0, 1]])
    assert transfer_matrix(6, 2).entries[0] == (1, 2, 3)
    with pytest.raises(ValueError):
        transfer_matrix(3, 2)


def test_kernel_matrix_values():
    assert kernel_matrix(0) == Matrix([[1]])
    assert kernel_matrix(1) == Matrix([[1, 0], [1, 1]])
    assert kernel_matrix(2) == Matrix([[1, -2, 1], [1, -1, 0], [1, 0, 0]])


def test_component_matrix_values():
    assert component_matrix(1, 3) == Matrix([[1, -1], [1, 0]])
    assert component_matrix(2, 5) == Matrix([[1, -3, 3], [1, -2, 1], [1, -1, 0]])
    assert component_matrix(1, 2) == kernel_matrix(1)
    with pytest.raises(ValueError):
        component_matrix(2, 3)


def test_kernel_matrix_is_component_matrix_at_base_size():
    for k in range(0, 7):
        assert kernel_matrix(k) == component_matrix(k, 2 * k)


def test_initial_vector_values():
    assert initial_vector(0) == (1,)
    assert initial_vector(1) == (0, 1)
    assert initial_vector(2) == (-1, -1, 1)
    assert initial_vector(3) == (2, -1, -4, -1)


def test_initial_vector_takes_the_size_rule():
    with pytest.raises(ValueError, match="^k must be nonnegative, got k=-1$"):
        initial_vector(-1)


def test_initial_vector_recomputable_from_definition():
    from math import factorial

    for k in range(0, 7):
        vec = initial_vector(k)
        for i in range(1, k + 2):
            direct = sum(
                (-1) ** (k - b) * binomial(k, b) * binomial(i, b) * factorial(b)
                for b in range(0, i + 1)
            )
            assert vec[i - 1] == direct


def test_counting_row_values():
    assert counting_row(1, 3) == (Fraction(-1), Fraction(2))
    assert counting_row(2, 5) == (Fraction(3), Fraction(-8), Fraction(6))
    assert counting_row(0, 3) == (Fraction(1),)


def test_counting_row_domain_errors():
    with pytest.raises(ValueError, match="n-j vanishes"):
        counting_row(1, 2)  # n = k+1
    with pytest.raises(ValueError, match="n-j vanishes"):
        counting_row(0, 1)
    with pytest.raises(ValueError):
        counting_row(2, 3)  # n < 2k


MEMOIZED = (kernel_matrix, component_matrix, transfer_matrix, initial_vector, counting_row)


def test_constructors_build_each_value_once():
    for build, args in zip(MEMOIZED, ((3,), (3, 9), (9, 3), (3,), (3, 9))):
        assert build(*args) is build(*args)
    # typed: an equal float or bool is not served the int's value
    assert component_matrix(2, 5) is component_matrix(2, 5)
    with pytest.raises(TypeError):
        component_matrix(2.0, 5)
    assert component_matrix(True, 3) is not component_matrix(1, 3)
    assert component_matrix(True, 3) == component_matrix(1, 3)


def test_a_refusal_is_not_memoized():
    size = counting_row.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="^n >= 2k violated: n=4, k=3$"):
            counting_row(3, 4)
        with pytest.raises(ValueError, match="^counting row undefined for n <= k\\+1"):
            counting_row(1, 2)
    assert counting_row.cache_info().currsize == size


def test_no_engine_or_solver_writes_into_a_memoized_matrix():
    cells = [(k, n) for k in range(6) for n in (2 * k, 2 * k + 1, 2 * k + 7)]
    held = {(k, n): (component_matrix(k, n), initial_vector(k)) for k, n in cells}
    for a, v in held.values():
        det_bareiss(a), det_dodgson(a), solve_bareiss(a, v), solve_cramer(a, v)
    for build in MEMOIZED:
        build.cache_clear()
    for (k, n), (a, v) in held.items():
        fresh = component_matrix(k, n)
        assert fresh is not a and fresh.entries == a.entries and initial_vector(k) == v, (k, n)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_mat_mul():
    m2 = kernel_matrix(2)
    assert mat_mul(Matrix.identity(3), m2) == m2
    assert mat_mul(component_matrix(2, 4), transfer_matrix(4, 2)) == component_matrix(2, 4)
    assert mat_mul(component_matrix(2, 5), transfer_matrix(5, 2)) == kernel_matrix(2)
    with pytest.raises(ValueError):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_rectangular_validation():
    with pytest.raises(ValueError, match="dimension mismatch: row 2 has 1 entries, expected 2"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])
    for empty in ((), ((),), [[]]):
        with pytest.raises(ValueError, match="at least one row and one column"):
            Matrix(empty)


def test_constructor_is_from_rows():
    m = Matrix(([1, 2], [3, 4]))
    assert m == Matrix(((1, 2), (3, 4)))
    assert m.entries == ((1, 2), (3, 4))
    assert hash(m) == hash(Matrix(((1, 2), (3, 4))))
    assert Matrix(entries=[[1, 2], [3, 4]]) == m
    assert m != Matrix(((1, 2), (3, 5)))
    assert m != ((1, 2), (3, 4))
    assert repr(m) == "Matrix(entries=((1, 2), (3, 4)))"
    assert det_bareiss(m) == det_dodgson(m) == -2


def test_matrix_is_immutable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError, match="cannot assign to field 'entries'"):
        m.entries = ((5,),)
    with pytest.raises(AttributeError, match="cannot delete field 'entries'"):
        del m.entries
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m.entries == ((1, 2), (3, 4))


# ---------------------------------------------------------------------------
# data format: exact values kept as given
# ---------------------------------------------------------------------------

def all_int(values):
    return all(type(x) is int for x in values)


def entries_are_int(m: Matrix) -> bool:
    return all(all_int(row) for row in m.entries)


def test_structured_matrices_and_products_hold_ints():
    for k in range(0, 6):
        built = [kernel_matrix(k), shifted_binomial_matrix(k, -2, 1)]
        for n in (2 * k, 2 * k + 1, 2 * k + 7):
            built += [component_matrix(k, n), transfer_matrix(n, k)]
        assert all(entries_are_int(m) for m in built), k
        assert all(entries_are_int(mat_mul(a, b)) for a in built for b in built), k
        assert all_int(matrix_times_vector(transfer_matrix(2 * k + 3, k), initial_vector(k)))
        assert all_int(row_times_matrix(initial_vector(k), kernel_matrix(k)))
        assert type(dot(initial_vector(k), initial_vector(k))) is int


def test_components_are_ints_for_every_method():
    for k, n in ((0, 0), (1, 3), (2, 6), (3, 9), (4, 11)):
        for method in COMPONENT_METHODS:
            assert all_int(components(n, k, method)), (n, k, method)


def test_rationals_are_kept_and_promote():
    half = Fraction(1, 2)
    m = Matrix([[half, 1], [0, 2]])
    assert m.entries == ((half, 1), (0, 2))
    assert type(m.entries[0][1]) is int
    assert row_times_matrix((2, 1), m) == (1, 4)
    assert type(row_times_matrix((2, 1), m)[0]) is Fraction
    assert dot((half, 1), (2, 3)) == 4


I2 = Matrix.identity(2)
NOT_EXACT_CALLS = {
    "Matrix": lambda bad: Matrix(((1, bad), (0, 1))),
    "row_times_matrix": lambda bad: row_times_matrix((1, bad), I2),
    "matrix_times_vector": lambda bad: matrix_times_vector(I2, (bad, 1)),
    "dot left": lambda bad: dot((bad,), (1,)),
    "dot right": lambda bad: dot((1,), (bad,)),
    "solve_bareiss": lambda bad: solve_bareiss(I2, (1, bad)),
    "solve_cramer": lambda bad: solve_cramer(I2, (bad, 1)),
}


# a float would carry its binary rounding into every exact result
@pytest.mark.parametrize("bad", (0.1, "1", True), ids=repr)
@pytest.mark.parametrize("entry", NOT_EXACT_CALLS)
def test_non_exact_entries_are_refused(entry, bad):
    with pytest.raises(ValueError, match=f"entry {bad!r} is not an int or a Fraction"):
        NOT_EXACT_CALLS[entry](bad)


def test_vector_length_mismatches():
    m = Matrix.identity(2)
    for call in (
        lambda: row_times_matrix((1, 2, 3), m),
        lambda: matrix_times_vector(m, (1,)),
        lambda: dot((1, 2), (1,)),
        lambda: dot((1,), (1, 2)),
    ):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


# ---------------------------------------------------------------------------
# determinant engines
# ---------------------------------------------------------------------------

def test_det_small_values():
    assert det_bareiss(Matrix([[1, 2], [3, 4]])) == -2
    assert det_dodgson(Matrix([[1, 2], [3, 4]])) == -2
    assert det_bareiss(Matrix([[7]])) == 7
    assert det_dodgson(Matrix([[7]])) == 7


def test_matrix_is_square_by_construction():
    with pytest.raises(ValueError, match="^dimension mismatch: row 1 has 3 entries, expected 2$"):
        Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="^dimension mismatch: row 1 has 2 entries, expected 3$"):
        Matrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="^dimension mismatch: 2x2 times 3x3$"):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_unit_determinants():
    for k in range(0, 6):
        assert det_bareiss(kernel_matrix(k)) == 1
        assert det_dodgson(kernel_matrix(k)) == 1
    assert det_bareiss(component_matrix(3, 9)) == 1
    assert det_dodgson(component_matrix(3, 9)) == 1
    # entries up to binomial(38, 8) = 48903492 make the shift c 67 digits long
    assert det_dodgson(component_matrix(8, 40)) == 1


def test_dodgson_zero_interiors():
    ones = Matrix([[1] * 4 for _ in range(4)])
    assert det_dodgson(ones) == 0
    assert det_bareiss(ones) == 0
    # zero interior with a nonzero determinant
    m = Matrix([[2, 1, 3], [5, 0, 1], [4, 2, 2]])
    assert det_dodgson(m) == det_bareiss(m) == det_leibniz(m)
    # half the entries zero at 12 x 12: big shifted minors, many zero interiors
    rng = random.Random(1212)
    m = Matrix([[rng.choice((0, rng.randint(-9, 9))) for _ in range(12)] for _ in range(12)])
    assert det_dodgson(m) == det_bareiss(m) != 0


def spy_condense(monkeypatch) -> list:
    """Record each ``(rows, result)`` that ``det_dodgson`` condenses."""
    calls, real = [], matrices._condense

    def spy(rows):
        calls.append(([list(row) for row in rows], real(rows)))
        return calls[-1][1]

    monkeypatch.setattr(matrices, "_condense", spy)
    return calls


def test_dodgson_condenses_structured_matrices_unshifted(monkeypatch):
    calls = spy_condense(monkeypatch)
    for m in (kernel_matrix(5), component_matrix(8, 40), component_matrix(12, 100)):
        calls.clear()
        assert det_dodgson(m) == 1
        assert calls == [([list(row) for row in m.entries], 1)]


def test_dodgson_restarts_at_a_zero_minor(monkeypatch):
    # every interior entry is 1, but every 2 x 2 minor vanishes, so the
    # zero divisor comes at stage 4 and the shifted rows are condensed
    calls = spy_condense(monkeypatch)
    assert det_dodgson(Matrix([[1] * 4 for _ in range(4)])) == 0
    assert calls[0] == ([[1] * 4] * 4, None)
    assert len(calls) == 2 and calls[1][1] is not None


def test_dodgson_planted_zero_goes_straight_to_the_shift(monkeypatch):
    # every interior entry divides at stage 3, so a zero at any of them
    # skips the unshifted attempt: one call, on shifted rows
    calls = spy_condense(monkeypatch)
    for i in range(1, 4):
        for j in range(1, 4):
            rows = [[2, 1, 3, 1, 4], [5, 3, 1, 4, 2], [4, 2, 2, 3, 1], [1, 3, 5, 2, 2],
                    [3, 1, 4, 1, 5]]
            rows[i][j] = 0
            m = Matrix(rows)
            calls.clear()
            assert det_dodgson(m) == det_leibniz(m), (i, j)
            assert len(calls) == 1 and calls[0][0] != rows and calls[0][1] is not None, (i, j)


def test_dodgson_cost_stays_near_bareiss():
    # the shifted path alone takes about 1.2 s on a 2-vCPU host: its
    # shift is 561 digits long against 28 for an entry
    m = component_matrix(20, 200)
    start = time.perf_counter()
    assert det_dodgson(m) == 1
    assert time.perf_counter() - start < 0.5


def test_bareiss_needs_row_pivoting():
    # the first two entries of column 1 are zero; the pivot search goes down to row 3
    m = Matrix([[0, 0, 2], [0, 3, 1], [5, 1, 4]])
    assert det_bareiss(m) == det_leibniz(m) == -30
    assert det_dodgson(m) == -30
    # after step 1, column 2 is zero below the diagonal while the entries
    # to its right are not: no pivot in the column means the matrix is singular
    m = Matrix([[1, 2, 3], [2, 4, 7], [3, 6, 1]])
    assert det_bareiss(m) == det_dodgson(m) == det_leibniz(m) == 0


def test_engines_match_leibniz_on_random_integer_matrices():
    # dimensions 1..7 at zero densities 0..90 %; one draw in four copies a
    # row, so it is singular whatever its zeros
    rng = random.Random(1729)
    for trial in range(140):
        dim = 1 + trial % 7
        zeros = trial // 7 % 10 / 10
        rows = [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(dim)]
                for _ in range(dim)]
        singular = trial % 4 == 0 and dim >= 2
        if singular:
            source, target = rng.sample(range(dim), 2)
            rows[target] = list(rows[source])
        m = Matrix(rows)
        expected = 0 if singular else det_leibniz(m)
        assert det_bareiss(m) == expected, rows
        assert det_dodgson(m) == expected, rows


def test_engines_match_leibniz_on_random_rational_matrices():
    rng = random.Random(4104)
    for trial in range(60):
        dim = 2 + trial % 3
        rows = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim)]
            for _ in range(dim)
        ]
        m = Matrix(rows)
        expected = det_leibniz(m)
        assert det_bareiss(m) == expected
        assert det_dodgson(m) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-20, 20), min_size=d, max_size=d), min_size=d, max_size=d
        )
    )
)
def test_engines_agree_property(rows):
    m = Matrix(rows)
    assert det_bareiss(m) == det_dodgson(m)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_solve_cramer_golden():
    assert solve_cramer(kernel_matrix(2), initial_vector(2)) == (1, 2, 2)
    assert solve_cramer(component_matrix(3, 9), initial_vector(3)) == (191, 87, 30, 6)
    v = (Fraction(5), Fraction(-2, 3))
    assert solve_cramer(Matrix.identity(2), v) == v


def test_solve_cramer_random_against_residual():
    rng = random.Random(55)
    solved = 0
    while solved < 40:
        dim = 2 + rng.randrange(3)
        m = Matrix([[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)])
        if det_bareiss(m) == 0:
            continue
        v = [rng.randint(-9, 9) for _ in range(dim)]
        x = solve_cramer(m, v)
        for i in range(dim):
            assert sum(m.entries[i][j] * x[j] for j in range(dim)) == v[i]
        solved += 1


def test_solve_cramer_determinants_match_both_engines():
    # planted zeros make the Gauss-Jordan pass swap rows and det_bareiss swap columns
    rng = random.Random(144)
    solved = singular = 0
    for draw in range(300):
        dim = 1 + draw % 7

        def entry():
            if rng.random() < 0.4:
                return 0
            if draw % 2:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return rng.randint(-5, 5)

        rows = [tuple(entry() for _ in range(dim)) for _ in range(dim)]
        v = [entry() for _ in range(dim)]
        a = Matrix(rows)
        d = det_bareiss(a)
        if d == 0:
            with pytest.raises(SingularMatrixError, match="^cannot solve: determinant is 0$"):
                solve_cramer(a, v)
            singular += 1
            continue
        x = solve_cramer(a, v)
        for i in range(dim):
            a_i = Matrix([row[:i] + (rhs,) + row[i + 1:] for row, rhs in zip(rows, v)])
            assert x[i] * d == det_bareiss(a_i) == det_dodgson(a_i), (draw, i)
        solved += 1
    assert solved > 100 and singular > 10


@pytest.mark.parametrize(
    "m, t, rows",
    [([[1, 2], [3, 5]], 0, slice(1, None)), ([[1, 2, 1], [0, 5, 3]], 1, slice(0, 1))],
    ids=["below", "above"],
)
def test_bareiss_step_refuses_an_inexact_division(m, t, rows):
    # below the pivot 5 * 1 - 3 * 2 = -1, above it 1 * 5 - 2 * 3 = -1:
    # neither is a multiple of the wrong previous pivot 2
    with pytest.raises(ValueError, match="^inexact division"):
        _bareiss_step(m, t, 2, m[rows])


def test_condense_refuses_an_inexact_division():
    # on integer rows every division is exact (Desnanot-Jacobi); a half
    # entry makes the stage-2 entry 1 * 1/2 - 1 * 1 = -1/2, not a multiple of 1
    with pytest.raises(ValueError, match="^inexact division: -1/2 / 1 leaves remainder 1/2$"):
        _condense([[1, 1], [1, Fraction(1, 2)]])


def test_solve_bareiss_refuses_an_inexact_division(monkeypatch):
    # rows left with their half entry: 1/2 * 1 - 1 * 1 = -1/2 is not a
    # multiple of the previous pivot 1
    monkeypatch.setattr(matrices, "integer_rows", lambda rows: ([list(row) for row in rows], 1))
    with pytest.raises(ValueError, match="^inexact division: -1/2 / 1 leaves remainder 1/2$"):
        solve_bareiss(Matrix([[1, 1], [1, Fraction(1, 2)]]), (0, 0))


def test_solve_cramer_checks_its_last_pivot(monkeypatch):
    # a dropped swap sign or a wrong pivot leaves the pass off det(a) by a factor
    real = matrices.det_bareiss
    a, v = component_matrix(3, 9), initial_vector(3)
    for factor in (2, -1):
        monkeypatch.setattr(matrices, "det_bareiss", lambda m: factor * real(m))
        with pytest.raises(
            ArithmeticError, match=f"^Gauss-Jordan pass ends on det 1, det_bareiss gives {factor}$"
        ):
            solve_cramer(a, v)


def test_solve_cramer_errors():
    singular = Matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError, match="determinant is 0"):
        solve_cramer(singular, (1, 1))
    with pytest.raises(ValueError):
        solve_cramer(Matrix.identity(2), (1, 2, 3))


def test_solve_bareiss_golden():
    assert solve_bareiss(kernel_matrix(2), initial_vector(2)) == (1, 2, 2)
    assert solve_bareiss(component_matrix(3, 9), initial_vector(3)) == (191, 87, 30, 6)
    v = (Fraction(5), Fraction(-2, 3))
    assert solve_bareiss(Matrix.identity(2), v) == v


def test_solve_bareiss_matches_cramer_on_structured_systems():
    for k in range(0, 26):
        m, v = kernel_matrix(k), initial_vector(k)
        assert solve_bareiss(m, v) == solve_cramer(m, v), k
    # (10, 20) to (40, 196) are the solve benchmark's rungs
    for k, n in ((1, 2), (3, 7), (5, 10), (6, 19), (9, 40), (12, 100),
                 (10, 20), (25, 110), (30, 140), (35, 170), (40, 196), (60, 240)):
        m, v = component_matrix(k, n), initial_vector(k)
        assert solve_bareiss(m, v) == solve_cramer(m, v), (k, n)
    assert count(240, 60, "cramer") == count_formula(240, 60)


def test_solve_bareiss_random_against_residual():
    rng = random.Random(89)
    solved = 0
    while solved < 60:
        dim = 1 + rng.randrange(5)
        if solved % 2:
            rows = [[Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(dim)]
                    for _ in range(dim)]
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)]
        else:
            rows = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)]
            v = [rng.randint(-9, 9) for _ in range(dim)]
        m = Matrix(rows)
        if det_bareiss(m) == 0:
            with pytest.raises(SingularMatrixError):
                solve_bareiss(m, v)
            continue
        x = solve_bareiss(m, v)
        for i in range(dim):
            assert sum(m.entries[i][j] * x[j] for j in range(dim)) == v[i]
        solved += 1


def _solve_by_fraction_back_substitution(rows, v):
    """Reference for solve_bareiss: the same fraction-free elimination,
    ended by exact rational back substitution on Fractions.  Returns the
    solution, whether a row swap happened and the last pivot."""
    m = []
    for row in (list(row) + [rhs] for row, rhs in zip(rows, v)):
        mult = math.lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * mult) for x in row])
    n = len(m)
    prev, swapped = 1, False
    for t in range(n):
        pi = next(i for i in range(t, n) if m[i][t])
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            swapped = True
        for row in m[t + 1:]:
            for j in range(t + 1, n + 1):
                q, r = divmod(row[j] * m[t][t] - row[t] * m[t][j], prev)
                assert r == 0
                row[j] = q
            row[t] = 0
        prev = m[t][t]
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = Fraction(m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n)), m[i][i])
    return tuple(x), swapped, prev


def test_solve_bareiss_matches_fraction_back_substitution():
    rng = random.Random(2020)
    seen = set()
    solved = 0
    while solved < 300:
        dim = 1 + rng.randrange(6)
        zeros = rng.choice((0.0, 0.5))
        rational = solved % 2

        def entry():
            return Fraction(rng.randint(-8, 8), rng.randint(1, 6)) if rational else rng.randint(-9, 9)

        rows = [[0 if rng.random() < zeros else entry() for _ in range(dim)] for _ in range(dim)]
        v = [entry() for _ in range(dim)]
        m = Matrix(rows)
        if det_bareiss(m) == 0:
            continue
        want, swapped, last = _solve_by_fraction_back_substitution(rows, v)
        got = solve_bareiss(m, v)
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want], (rows, v)
        seen.add((rational, swapped, last < 0))
        solved += 1
    # int and Fraction systems, each with and without a swap and with either sign
    assert len(seen) == 8


def test_solve_bareiss_row_swap():
    # the leading entry is zero, so the first column pivots on row 2
    assert solve_bareiss(Matrix([[0, 1], [1, 0]]), (3, 4)) == (4, 3)
    assert solve_bareiss(Matrix([[0, 0, 2], [0, 3, 1], [5, 1, 4]]), (2, 4, 7)) == (
        Fraction(2, 5), 1, 1,
    )


def test_solve_bareiss_errors():
    with pytest.raises(SingularMatrixError, match="determinant is 0"):
        solve_bareiss(Matrix([[1, 2], [2, 4]]), (1, 1))
    # singular with a zero column beyond the first step
    with pytest.raises(SingularMatrixError, match="determinant is 0"):
        solve_bareiss(Matrix([[1, 2, 3], [2, 4, 5], [3, 6, 7]]), (1, 1, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_bareiss(Matrix.identity(2), (1, 2, 3))


# ---------------------------------------------------------------------------
# parameterized determinant product
# ---------------------------------------------------------------------------

def test_det_product_k0_closed_form():
    for x in range(-3, 5):
        for y in range(-1, 5):
            assert binomial_det_product(0, x, y) == binomial(x + y + 2, x + 1)


def test_det_product_golden_points():
    # generic entries at (k=1, x=3, y=2) are binomial(i+j+5, i+3)
    m = shifted_binomial_matrix(1, 3, 2)
    assert m == Matrix(
        [[binomial(7, 4), binomial(8, 4)], [binomial(8, 5), binomial(9, 5)]]
    )
    assert binomial_det_product(1, 3, 2) == det_bareiss(m) == 490
    # at (k=2, x=-4, y=-1) every numerator binomial has a negative lower
    # index, so both the product and the matrix collapse to zero
    assert binomial_det_product(2, -4, -1) == 0
    assert det_bareiss(shifted_binomial_matrix(2, -4, -1)) == 0


def test_det_product_matches_determinant_on_grid():
    for k in range(0, 4):
        for x in range(-6, 7):
            for y in range(-1, 7):
                closed = binomial_det_product(k, x, y)
                assert closed == det_bareiss(shifted_binomial_matrix(k, x, y)), (k, x, y)


def _det_product_term_by_term(k, x, y):
    total = Fraction(1)
    for i in range(1, k + 2):
        divisor = binomial(i + y, 1 + y)
        if divisor == 0:
            raise ValueError(
                f"vanishing divisor binomial({i + y}, {1 + y}) at i={i} (x={x}, y={y})"
            )
        total *= Fraction(binomial(i + 1 + x + y, i + x), divisor)
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_det_product_matches_term_by_term_product():
    for k in range(6):
        for x in range(-8, 13):
            for y in range(-3, 9):
                got = _outcome(binomial_det_product, k, x, y)
                want = _outcome(_det_product_term_by_term, k, x, y)
                assert (type(got), got) == (type(want), want), (k, x, y)


def test_det_product_vanishing_divisor():
    with pytest.raises(ValueError, match="at i=1"):
        binomial_det_product(2, 0, -2)
    with pytest.raises(ValueError, match="vanishing divisor"):
        binomial_det_product(1, 5, -4)


@pytest.mark.parametrize("build", [shifted_binomial_matrix, binomial_det_product])
def test_det_product_refuses_negative_k(build):
    with pytest.raises(ValueError, match="^k must be nonnegative, got k=-1$"):
        build(-1, 0, 0)


# ---------------------------------------------------------------------------
# suite-facing checks
# ---------------------------------------------------------------------------

def test_transfer_consistency_grid():
    for k in range(0, 6):
        for n in range(2 * k, 21):
            result = check_transfer_consistency(k, n)
            assert result.status == "pass", result.witness


def test_counting_row_normalization_grid():
    for k in range(0, 6):
        for n in range(max(2 * k, k + 2), 21):
            result = check_counting_row(k, n)
            assert result.status == "pass", result.witness
    assert row_times_matrix(counting_row(2, 5), component_matrix(2, 5)) == (1, 1, 1)
