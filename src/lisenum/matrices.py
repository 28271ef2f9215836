"""Exact dense linear algebra and the structured binomial matrices.

Three (k+1) x (k+1) matrices and two length-(k+1) vectors cover the
linear-algebra side of the counting problem:

* ``kernel_matrix(k)``      solves to the kernel column (the n = 2k case),
* ``component_matrix(k, n)`` solves to the component column at general n,
* ``transfer_matrix(n, k)`` advances the kernel column from n = 2k to n,
* ``initial_vector(k)``     is the shared right-hand side,
* ``counting_row(k, n)``    is the row functional with row . matrix = ones,
  so that row . initial_vector is the total count.

Each takes its size rule from ``exact.check_size``; the two that
describe the system at n = 2k, and the determinant product pair below,
check (2k, k).  The module builds no check records: the consistency
checks over these constructors live in ``pipeline``, next to the suites
that run them.

A ``Matrix`` is square by construction: every row has as many entries
as there are rows, so the engines and solvers need no shape check.
Entries are ``int`` or ``Fraction`` values kept as given (anything else
raises ``ValueError``); a ``Fraction`` appears only where a rational
enters, so the structured matrices and their products stay ``int``.

Determinants come from two independent engines, fraction-free Bareiss
elimination and Dodgson condensation, which share no code and are
cross-checked against each other throughout the test suite.  Both clear
denominators once (``exact.integer_rows``), run on integers with exact
divisions and return a ``Fraction``.  Condensation runs on the integer
rows themselves until a divisor is 0, which no kernel or component
matrix tried has; a matrix with a zero interior entry, or one that
meets a zero divisor later, is condensed shifted by an integer multiple
of the Pascal matrix instead, where no divisor is 0.  Two solvers share
no code:
``solve_bareiss`` (one fraction-free elimination of the augmented
system, then integer back substitution with one ``Fraction`` per
unknown, exact by Cramer's rule; O(k^3)) is route 3's kernel solve, and
``solve_cramer`` (column-replacement determinants: one ``det_bareiss``
and one fraction-free Gauss-Jordan pass of the augmented system whose
last column ends, by Sylvester's identity, as +-det(A_i); about k^3/2
inner steps, O(k^3)) is route 4's method.  ``det_bareiss`` and the
Gauss-Jordan pass share one fraction-free step, which clears a pivot
column in the rows it is given; ``solve_bareiss`` keeps its own loop.
All three eliminations pivot on the first nonzero entry of column t at
or below row t.  Matrix indices are 1-based in documentation and error
messages; storage is 0-based.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .exact import binomial, check_size, exact_div, integer_rows

Exact = int | Fraction
Vector = tuple[Exact, ...]


class SingularMatrixError(ValueError):
    """Raised when a solve meets a vanishing determinant."""


def _exact(values: Sequence[Exact], size: int, what: str) -> Vector:
    """``values`` as a tuple, once its length is ``size`` and every entry
    is an ``int`` or a ``Fraction``; ``what`` names it in the error."""
    values = tuple(values)
    if len(values) != size:
        raise ValueError(f"dimension mismatch: {what} has {len(values)} entries, expected {size}")
    for x in values:
        # type() rather than isinstance(): a bool is not a matrix entry
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValueError(f"{what}: entry {x!r} is not an int or a Fraction")
    return values


class Matrix:
    """Immutable dense square matrix of ``int``/``Fraction`` entries, kept
    as given.

    The constructor takes a non-empty sequence of rows, each with as
    many entries as there are rows, stores them as tuples and refuses any
    other shape or entry with ``ValueError``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Exact]]) -> None:
        rows = tuple(entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        entries = tuple(_exact(row, len(rows), f"row {r}") for r, row in enumerate(rows, 1))
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self.entries == other.entries if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"Matrix(entries={self.entries!r})"

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)


def _dot(u: Vector, v: Vector) -> Exact:
    return sum(x * y for x, y in zip(u, v))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product."""
    if a.rows != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.rows} times {b.rows}x{b.rows}")
    columns = tuple(zip(*b.entries))
    return Matrix(tuple(tuple(_dot(row, col) for col in columns) for row in a.entries))


def row_times_matrix(u: Sequence[Exact], a: Matrix) -> Vector:
    u = _exact(u, a.rows, "row vector")
    return tuple(_dot(u, col) for col in zip(*a.entries))


def matrix_times_vector(a: Matrix, v: Sequence[Exact]) -> Vector:
    v = _exact(v, a.rows, "vector")
    return tuple(_dot(row, v) for row in a.entries)


def dot(u: Sequence[Exact], v: Sequence[Exact]) -> Exact:
    u = _exact(u, len(v), "first vector")
    return _dot(u, _exact(v, len(u), "second vector"))


# ---------------------------------------------------------------------------
# determinant engines
# ---------------------------------------------------------------------------

def _bareiss_step(m: list[list[int]], t: int, prev: int, rows: list[list[int]]) -> None:
    """Eliminate column ``t`` from each of ``rows``, rows of the integer
    matrix ``m`` other than the pivot row ``t``: every entry right of
    column t becomes (entry * pivot - left * top) / prev, a division that
    is exact (Bareiss 1968); a remainder raises.  Entries at and left of
    column t are left as they are: no later step reads them."""
    top = m[t]
    p = top[t]
    for row in rows:
        f = row[t]
        for j in range(t + 1, len(top)):
            num = row[j] * p - f * top[j]
            q, r = divmod(num, prev)
            if r:
                exact_div(num, prev)  # raises the inexact-division error
            row[j] = q


def det_bareiss(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Denominators are cleared row by row first, so the elimination core
    runs on integers where every interior division is exact.  Step t
    takes as pivot the first nonzero entry of column t at or below row
    t, as both solvers do, and swaps its row up.  If there is none, the
    determinant is 0: after step t-1 each trailing entry (i, j) is the
    (t+1) x (t+1) minor of the leading t x t block bordered by row i and
    column j, so by Sylvester's identity the trailing block has
    determinant det * prev^(n-t-1), with prev the last pivot (1 at
    t = 0), never 0.  A zero column makes that block singular, so
    det = 0.
    """
    m, scale = integer_rows(a.entries)
    n = len(m)
    prev = sign = 1
    for t in range(n - 1):
        pi = next((i for i in range(t, n) if m[i][t]), None)
        if pi is None:
            return Fraction(0)
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            sign = -sign
        _bareiss_step(m, t, prev, m[t + 1:])
        prev = m[t][t]
    return Fraction(sign * m[n - 1][n - 1], scale)


def _condense(curr: list[list[int]]) -> int | None:
    """The last stage of Dodgson condensation of the square integer rows
    ``curr``, or ``None`` at the first zero divisor.

    Stage s holds an (n-s+1) x (n-s+1) array; stage s+1 has entry
    (curr[i][j] * curr[i+1][j+1] - curr[i][j+1] * curr[i+1][j]) / d with d
    the interior entry (i+1, j+1) of stage s-1 (all 1 before stage 2).
    A division that leaves a remainder raises, through ``exact_div``.
    """
    n = len(curr)
    prev = [[1] * (n + 1) for _ in range(n + 1)]
    for width in range(n - 1, 0, -1):
        nxt: list[list[int]] = []
        for i in range(width):
            up, down, divisors = curr[i], curr[i + 1], prev[i + 1]
            out_row: list[int] = []
            for j in range(width):
                d = divisors[j + 1]
                if not d:
                    return None
                num = up[j] * down[j + 1] - up[j + 1] * down[j]
                q, r = divmod(num, d)
                if r:
                    exact_div(num, d)  # raises the inexact-division error
                out_row.append(q)
            nxt.append(out_row)
        prev, curr = curr, nxt
    return curr[0][0]


def det_dodgson(a: Matrix) -> Fraction:
    """Determinant by Dodgson condensation on the integer rows m.

    Stage s holds every contiguous s x s minor; the condensation step
    divides by the interior entries of the stage two sizes down.  Both
    paths below run the one loop ``_condense``.

    Unshifted: m itself is condensed first, unless an interior entry of
    m is 0; such an entry is a divisor of stage 3, so that matrix goes
    straight to the shifted path.  By the Desnanot-Jacobi identity each
    s x s contiguous minor M satisfies M * D = A * B - C * E, with A, B,
    C, E its four (s-1) x (s-1) corner minors and D its (s-2) x (s-2)
    interior minor.  So, by induction on s, while every divisor met is
    nonzero each entry of stage s is that minor, each division is exact
    (its quotient is an integer minor), and the one entry of stage n is
    det m.  At the first zero divisor the condensation stops and
    restarts on the shifted rows.

    Shifted: the condensation runs on m + cP rather than on m, where no
    divisor is 0: P is the Pascal matrix binomial(i+j, i) (0-based), h
    the product over rows of sum_j (|m_ij| + P_ij), and c = 2h + 1.
    Every contiguous minor of m + tP is a polynomial in t whose leading
    coefficient is a minor of P, at least 1 since P is totally positive
    (Karlin 1968), and whose every coefficient is at most h in size: it
    is bounded by the permanent of |m| + P, which is at most the product
    of the row sums.  So c lies above every root and no minor vanishes at
    t = c.  Finally det(m + cP) = det m (mod c) and |det m| <= h, so
    det m is the balanced residue (det(m + cP) + h) % c - h.
    """
    n = a.rows
    m, scale = integer_rows(a.entries)
    if all(all(row[1:n - 1]) for row in m[1:n - 1]):
        det = _condense(m)
        if det is not None:
            return Fraction(det, scale)
    # row i of P holds the running sums of row i-1:
    # C(i+j, i) = sum_{t<=j} C(i-1+t, i-1)
    pascal = [[1] * n]
    for _ in range(n - 1):
        pascal.append(list(accumulate(pascal[-1])))
    h = math.prod(sum(map(abs, row)) + sum(p_row) for row, p_row in zip(m, pascal))
    c = 2 * h + 1
    det = _condense([[x + c * p for x, p in zip(row, p_row)] for row, p_row in zip(m, pascal)])
    return Fraction((det + h) % c - h, scale)


def solve_bareiss(a: Matrix, v: Sequence[Exact]) -> Vector:
    """Solve a x = v by one fraction-free elimination (Bareiss 1968).

    Each row of the augmented matrix [a | v] is cleared of denominators,
    one forward elimination with row pivoting keeps every entry an
    integer by dividing exactly by the previous pivot, and integer back
    substitution finishes: O(k^3) for k+1 unknowns.  Neither reads an
    entry left of the pivot column, so none is cleared.  The last pivot,
    prev, is +-det of the integer system, so by Cramer's rule each
    X_i = prev * x_i is +-det of that system with column i replaced by
    the right-hand side, an integer; row i of the triangle gives it as
    (prev * c_i - sum_{j>i} U_ij X_j) / U_ii, a division that is exact
    (``exact_div`` raises otherwise).  Each unknown is then one
    ``Fraction(X_i, prev)``.  This is route 3's kernel solve.  It calls
    no determinant engine and shares no elimination code with
    :func:`det_bareiss`, so routes 3 and 4 stay independent.
    """
    v = _exact(v, a.rows, "right-hand side")
    n = a.rows
    m, _ = integer_rows(row + (rhs,) for row, rhs in zip(a.entries, v))
    prev = 1
    for t in range(n):
        pi = next((i for i in range(t, n) if m[i][t]), None)
        if pi is None:
            raise SingularMatrixError("cannot solve: determinant is 0")
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
        top = m[t]
        p = top[t]
        for row in m[t + 1:]:
            f = row[t]
            for j in range(t + 1, n + 1):
                num = row[j] * p - f * top[j]
                q, r = divmod(num, prev)
                if r:
                    exact_div(num, prev)  # raises the inexact-division error
                row[j] = q
        prev = p
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        rest = sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = exact_div(prev * row[n] - rest, row[i])
    return tuple(Fraction(x, prev) for x in scaled)


def solve_cramer(a: Matrix, v: Sequence[Exact]) -> Vector:
    """Solve a x = v by column-replacement determinants (Cramer's rule).

    This is route 4's method: against the unit-determinant component
    matrices every solution entry is itself an integer determinant,
    det(A_i) / det(a), with A_i the matrix ``a`` with column i replaced
    by v.  One fraction-free Gauss-Jordan pass over the augmented rows
    [a | v] with row pivoting eliminates each pivot column above the pivot
    as well as below it (Bareiss 1968, the Bareiss-Montante method),
    with the update of ``det_bareiss``: ``_bareiss_step`` given every
    row but the pivot's.  By Sylvester's identity the last pivot ends
    as +-det(a) and entry i of the v column as +-det(A_i), one sign for
    all, so every output is still a determinant.  The pass's last pivot
    is checked against a separate ``det_bareiss`` of ``a``.  About k^3/2
    inner steps, O(k^3); route 3 solves with :func:`solve_bareiss`
    instead.
    """
    v = _exact(v, a.rows, "right-hand side")
    d = det_bareiss(a)
    if d == 0:
        raise SingularMatrixError("cannot solve: determinant is 0")
    n = a.rows
    # one row multiplier per row of [a | v] scales every det(A_i) alike
    m, scale = integer_rows(row + (rhs,) for row, rhs in zip(a.entries, v))
    prev = sign = 1
    for t in range(n):
        # det(a) != 0, so column t has a pivot at or below row t
        pi = next(i for i in range(t, n) if m[i][t])
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            sign = -sign
        _bareiss_step(m, t, prev, m[:t] + m[t + 1:])
        prev = m[t][t]
    last = Fraction(sign * prev, scale)
    if last != d:
        raise ArithmeticError(f"Gauss-Jordan pass ends on det {last}, det_bareiss gives {d}")
    return tuple(Fraction(sign * row[n], scale) / d for row in m)


# ---------------------------------------------------------------------------
# structured constructors
# ---------------------------------------------------------------------------

def transfer_matrix(n: int, k: int) -> Matrix:
    """Advance matrix from the kernel column to size n.

    Entry (i, r), 1-based, is binomial(r + n - 2k - i - 1, r - i); the
    matrix is upper triangular with unit diagonal and reduces to the
    identity at n = 2k.
    """
    check_size(n, k)
    return Matrix(
        [
            [binomial(r + n - 2 * k - i - 1, r - i) for r in range(1, k + 2)]
            for i in range(1, k + 2)
        ]
    )


def kernel_matrix(k: int) -> Matrix:
    """Matrix whose solve against the initial vector yields the kernel.

    Entry (i, j), 1-based, is binomial(i + j - 2k - 1, j - 1), using the
    generalized binomial so negative upper arguments contribute their
    signed values.  Equals ``component_matrix(k, 2k)``.
    """
    check_size(2 * k, k)
    return Matrix(
        [
            [binomial(i + j - 2 * k - 1, j - 1) for j in range(1, k + 2)]
            for i in range(1, k + 2)
        ]
    )


def component_matrix(k: int, n: int) -> Matrix:
    """Matrix whose solve against the initial vector yields the components.

    Entry (i, j), 1-based, is (-1)^(j-1) binomial(n - i - 1, j - 1).
    """
    check_size(n, k)
    return Matrix(
        [
            [(-1) ** (j - 1) * binomial(n - i - 1, j - 1) for j in range(1, k + 2)]
            for i in range(1, k + 2)
        ]
    )


def initial_vector(k: int) -> tuple[int, ...]:
    """Alternating-binomial right-hand side, entry i = 1..k+1:

    sum_b (-1)^(k-b) binomial(k, b) binomial(i, b) b!
    """
    check_size(2 * k, k)
    return tuple(
        sum(
            (-1) ** (k - b) * binomial(k, b) * binomial(i, b) * math.factorial(b)
            for b in range(k + 1)
        )
        for i in range(1, k + 2)
    )


def counting_row(k: int, n: int) -> Vector:
    """Row u with u . component_matrix(k, n) = (1, ..., 1).

    Entry j is (-1)^(k+1-j) binomial(n-2, k) binomial(k, j-1) (n-1)/(n-j),
    so u . initial_vector(k) is the total count.  Requires n > k+1; at
    n <= k+1 the denominator n - j vanishes inside the range.
    """
    check_size(n, k)
    if n <= k + 1:
        raise ValueError(
            f"counting row undefined for n <= k+1: denominator n-j vanishes at j={n} "
            f"(n={n}, k={k})"
        )
    return tuple(
        (-1) ** (k + 1 - j)
        * binomial(n - 2, k)
        * binomial(k, j - 1)
        * Fraction(n - 1, n - j)
        for j in range(1, k + 2)
    )


# ---------------------------------------------------------------------------
# parameterized determinant product
# ---------------------------------------------------------------------------

def shifted_binomial_matrix(k: int, x: int, y: int) -> Matrix:
    """(k+1) x (k+1) matrix with entry (i, j) = binomial(i+j+x+y, i+x)."""
    check_size(2 * k, k)
    return Matrix(
        [
            [binomial(i + j + x + y, i + x) for j in range(1, k + 2)]
            for i in range(1, k + 2)
        ]
    )


def binomial_det_product(k: int, x: int, y: int) -> Fraction:
    """Closed product form for det(shifted_binomial_matrix(k, x, y)):

    prod_{i=1..k+1} binomial(i+1+x+y, i+x) / binomial(i+y, 1+y)

    Defined only where every divisor binomial is nonzero (y >= -1 on
    integer inputs); a vanishing divisor raises and names the index.
    """
    check_size(2 * k, k)
    num = den = 1
    for i in range(1, k + 2):
        divisor = binomial(i + y, 1 + y)
        if divisor == 0:
            raise ValueError(
                f"vanishing divisor binomial({i + y}, {1 + y}) at i={i} (x={x}, y={y})"
            )
        num *= binomial(i + 1 + x + y, i + x)
        den *= divisor
    return Fraction(num, den)
