"""Exact integer and rational scalar arithmetic.

The counts handled by this package overflow 64-bit integers quickly, so
every quantity is a Python ``int`` (unbounded precision) or a
``fractions.Fraction``, which is always stored in lowest terms with a
positive denominator.  No float appears anywhere.  Both print exactly
with ``str``: a decimal integer, or lowest-terms ``p/q`` (just ``n``
when the denominator is 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


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
    multipliers, so det(rows) = det(rows_of_ints) / scale."""
    scale = 1
    out = []
    for row in rows:
        mult = math.lcm(*(x.denominator for x in row))
        scale *= mult
        out.append([x.numerator * (mult // x.denominator) for x in row])
    return out, scale
