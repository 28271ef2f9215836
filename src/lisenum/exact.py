"""Exact integer and rational scalar arithmetic.

The counts handled by this package overflow 64-bit integers quickly, so
every quantity is a Python ``int`` (unbounded precision) or a
``fractions.Fraction``, which is always stored in lowest terms with a
positive denominator.  No float appears anywhere.  Both print exactly
with ``str``: a decimal integer, or lowest-terms ``p/q`` (just ``n``
when the denominator is 1).

The module also owns the one size rule of the package, ``check_size``:
a problem size (n, k) needs k >= 0 and n >= 2k.  Every route, the
table, the CLI and the ``matrices`` constructors take it from here;
the determinant product pair (``shifted_binomial_matrix``,
``binomial_det_product``) takes its k rule from ``check_size(2k, k)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def check_size(n: int, k: int) -> None:
    """Validate a problem size.

    Requires n >= 2k and k >= 0.  n = 0 (forcing k = 0) is admitted as
    the degenerate seed of the k = 0 recursion: the class then holds
    exactly the empty permutation.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got k={k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    if n < 2 * k:
        raise ValueError(f"n >= 2k violated: n={n}, k={k}")


def exact_div(a: int, b: int) -> int:
    """Integer division that insists on a zero remainder."""
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"inexact division: {a} / {b} leaves remainder {r}")
    return q


def binomial(c: int, d: int) -> int:
    """Generalized binomial coefficient for arbitrary integer arguments.

    Returns 0 whenever ``d < 0``.  Otherwise equals the degree-d product
    c(c-1)...(c-d+1) / d!, which vanishes for 0 <= c < d and takes
    signed nonzero values for negative c, e.g. ``binomial(-2, 1) == -2``;
    for c < 0 it is read off by upper negation,
    binomial(c, d) = (-1)^d binomial(d - c - 1, d).
    """
    if d < 0:
        return 0
    if c >= 0:
        return math.comb(c, d)
    return (-1) ** d * math.comb(d - c - 1, d)


def falling_factorial(n: int, i: int) -> int:
    """n(n-1)...(n-i+1), the number of ordered i-selections from n items."""
    if n < 0 or i < 0:
        raise ValueError(f"falling_factorial needs nonnegative arguments, got ({n}, {i})")
    if i > n:
        raise ValueError(f"falling_factorial undefined for i > n: ({n}, {i})")
    return math.perm(n, i)


def integer_rows(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """Clear denominators row by row: ``(rows_of_ints, scale)``, each row
    times the lcm of its denominators and ``scale`` the product of those
    multipliers, so det(rows) = det(rows_of_ints) / scale.

    Every returned row is a fresh list, which callers eliminate in place;
    a row of plain ``int`` entries is copied as it is, multiplier 1."""
    scale = 1
    out = []
    for row in rows:
        if set(map(type, row)) == {int}:
            out.append(list(row))
            continue
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        out.append([x.numerator * (mult // x.denominator) for x in row])
    return out, scale
