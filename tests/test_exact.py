"""Scalar arithmetic: generalized binomial, falling factorial, printed
form; and the size rule, which every public (n, k) entry point takes
from ``exact.check_size``."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lisenum import (
    binomial,
    component_counts,
    component_matrix,
    component_table,
    components,
    count,
    counting_row,
    exact_div,
    falling_factorial,
    iter_class,
    transfer_matrix,
)
from lisenum.exact import integer_rows
from lisenum.pipeline import COMPONENT_METHODS, COUNT_METHODS


@pytest.mark.parametrize(
    "c, d, expected",
    [
        (5, 2, 10),
        (3, 5, 0),       # 0 <= c < d
        (0, -1, 0),      # negative lower index
        (-1, 2, 1),      # (-1)(-2)/2!
        (-2, 1, -2),
        (0, 0, 1),
        (-5, 0, 1),
        (7, 7, 1),
        (-3, 3, -10),    # (-3)(-4)(-5)/3!
    ],
)
def test_binomial_values(c, d, expected):
    assert binomial(c, d) == expected


def test_binomial_against_product_oracle():
    # independent route: evaluate the defining product with Fraction division
    from math import factorial

    for c in range(-40, 41):
        for d in range(0, 26):
            product = Fraction(1)
            for t in range(d):
                product *= c - t
            expected = product / factorial(d)
            assert expected.denominator == 1
            assert binomial(c, d) == expected


@given(st.integers(-40, 40), st.integers(1, 25))
def test_binomial_pascal_rule(c, d):
    assert binomial(c, d) == binomial(c - 1, d - 1) + binomial(c - 1, d)


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_symmetry(c, d):
    if d <= c:
        assert binomial(c, d) == binomial(c, c - d)


@given(st.integers(-30, 30), st.integers(0, 15))
def test_binomial_upper_negation(c, d):
    assert binomial(c, d) * (-1) ** d == binomial(d - c - 1, d)


@pytest.mark.parametrize(
    "n, i, expected",
    [(4, 2, 12), (9, 0, 1), (6, 6, 720), (1, 1, 1), (0, 0, 1)],
)
def test_falling_factorial_values(n, i, expected):
    assert falling_factorial(n, i) == expected


def test_falling_factorial_domain_errors():
    with pytest.raises(ValueError, match=r"^falling_factorial undefined for i > n: \(3, 4\)$"):
        falling_factorial(3, 4)
    # refused before math.perm, which words its refusal differently
    for n, i in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError, match=(
            rf"^falling_factorial needs nonnegative arguments, got \({n}, {i}\)$"
        )):
            falling_factorial(n, i)


def test_exact_div():
    assert exact_div(84, 7) == 12
    assert exact_div(-84, 7) == -12
    with pytest.raises(ValueError):
        exact_div(85, 7)


def test_integer_rows_copies_int_rows():
    rows = [(1, -2, 3), [4, 0, -6]]
    out, scale = integer_rows(rows)
    assert (out, scale) == ([[1, -2, 3], [4, 0, -6]], 1)
    assert out[1] is not rows[1]
    out[0][0] = out[1][0] = 99
    assert rows == [(1, -2, 3), [4, 0, -6]]


def test_integer_rows_scales_only_fraction_rows(monkeypatch):
    lcms, real = [], math.lcm
    monkeypatch.setattr(math, "lcm", lambda *xs: lcms.append(xs) or real(*xs))
    rows = [
        (Fraction(1, 2), 3, Fraction(-1, 3)),
        (2, 5, 7),
        (Fraction(4), Fraction(3, 4), 1),
        (Fraction(2), 1),
    ]
    out, scale = integer_rows(rows)
    assert out == [[3, 18, -2], [2, 5, 7], [16, 3, 4], [2, 1]]
    assert scale == 6 * 4
    assert {type(x) for row in out for x in row} == {int}
    # one lcm per row holding a Fraction: the all-int row is copied as it is
    assert len(lcms) == 3


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6),
       st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_fraction_arithmetic_cross_multiplication(a, b, c, d):
    # the stdlib Fraction is the rational type used everywhere; pin down
    # that its field operations match cross-multiplication
    x, y = Fraction(a, b), Fraction(c, d)
    assert x + y == Fraction(a * d + c * b, b * d)
    assert x * y == Fraction(a * c, b * d)
    if c != 0:
        assert x / y == Fraction(a * d, b * c)


@pytest.mark.parametrize(
    "value, text",
    [
        (10**40, str(10**40)),
        (-7, "-7"),
        (0, "0"),
        (Fraction(3, 7), "3/7"),
        (Fraction(-3, 7), "-3/7"),
        (Fraction(6, 3), "2"),
    ],
)
def test_scalar_str(value, text):
    # witnesses print exact values with str: decimal ints, lowest-terms p/q
    assert str(value) == text


SIZE_ERRORS = {
    (3, 2): "n >= 2k violated: n=3, k=2",
    (-1, 0): "n must be nonnegative, got n=-1",
    (2, -1): "k must be nonnegative, got k=-1",
}

SIZED_ENTRY_POINTS = {
    **{f"count-{m}": lambda n, k, m=m: count(n, k, m) for m in COUNT_METHODS},
    **{f"components-{m}": lambda n, k, m=m: components(n, k, m) for m in COMPONENT_METHODS},
    "component_table": lambda n, k: component_table(k, n, n + 3),
    "iter_class": iter_class,
    "component_counts": component_counts,
    "transfer_matrix": transfer_matrix,
    "component_matrix": lambda n, k: component_matrix(k, n),
    "counting_row": lambda n, k: counting_row(k, n),
}


@pytest.mark.parametrize("size", SIZE_ERRORS)
@pytest.mark.parametrize("entry", SIZED_ENTRY_POINTS)
def test_every_entry_point_takes_the_one_size_rule(entry, size):
    with pytest.raises(ValueError, match=f"^{re.escape(SIZE_ERRORS[size])}$"):
        SIZED_ENTRY_POINTS[entry](*size)
