"""Scalar binomial identities behind the matrix pipeline, checked exactly
on integer parameter grids.

Two families of sums are evaluated:

* ``ones_product_entry(k, r, n)`` is entry r of counting_row times
  component_matrix written out as a single sum.  It equals 1 exactly for
  1 <= r <= k+1 and genuinely fails outside that window, so the grid
  runners assert inside it and only record values beyond it.
* ``binomial_moment_sum(k, b, n)`` is the normalized alternating moment
  sum that collapses the row-functional count into the closed formula.
  It equals 1 exactly for 0 <= b <= k.

Both satisfy exact difference recurrences (two for the first family,
one per parameter for the second); the residual helpers return those
combinations so the suites can assert they vanish.  Grid points where a
referenced value is undefined are skipped and logged, never silently
dropped or asserted.

A grid run evaluates each defined point once: when the run starts, the
runner wraps the sum, as the module binds it then, in a fresh
``functools.cache``, and its residuals read that cache.  A refused point
is not cached, so each reference to it raises its ``ValueError`` afresh;
a refusal is cheap.  The cache ends with the call, so nothing outlives a
run and a patched sum is seen by the next one.  The convolution runner
likewise builds each binomial column once per parameter value, and
compares each point's sum with its closed form without building a record
unless the point fails.

Every sum over j = 1..k+1 of weight(j)/(n-j) is built from integer
weights as one integer numerator over the denominator prod (n-j), with
each sign taken by parity, so a value is exact for any integer
arguments, negative exponents included; the sums reduce it to a
``Fraction`` once.  The residual checks reduce nothing: each residual is
one integer numerator over the product of its terms' denominators, and
the grid runners compare the numerators with 0.  A ``Fraction`` is built
only for a witness, a failure or a recorded probe.  The public
``*_recurrence_residuals`` functions return ``Fraction`` pairs, and
``moment_identity_check`` compares its two sides by cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul
from typing import Callable, NamedTuple

from .exact import binomial
from .report import CheckResult, expect, expect_within, failed, passed, skipped

Range = tuple[int, int]


def vandermonde_chu_check(a: int, b: int, x: int) -> CheckResult:
    """Vandermonde-Chu convolution with free integer parameters a, b:

    sum_{y=0..x} binomial(y+a, y) binomial(x-y+b, x-y)
        == binomial(a+b+x+1, x)

    Both sides are polynomials in a and b for fixed x >= 0, so the
    generalized binomial makes the identity hold for negative a, b too.
    """
    if x < 0:
        raise ValueError(f"upper summation index must be nonnegative, got x={x}")
    lhs, rhs = _convolution_sum(x, _column(a, x), _column(b, x)), binomial(a + b + x + 1, x)
    return expect(f"convolution A={a} B={b} x={x}", lhs, rhs, "lhs={got} rhs={want}")


def _column(a: int, x_hi: int) -> list[int]:
    """binomial(y+a, y) for y = 0..x_hi."""
    return [binomial(y + a, y) for y in range(x_hi + 1)]


def _convolution_sum(x: int, col_a: list[int], col_b: list[int]) -> int:
    """sum_{y=0..x} col_a[y] col_b[x-y], for columns reaching at least
    y = x."""
    return sum(map(mul, col_a[:x + 1], col_b[x::-1]))


def _sum_over_poles(k: int, n: int, weight: Callable[[int], int]) -> tuple[int, int]:
    """sum_{j=1..k+1} weight(j)/(n-j) for integer weights, as the
    unreduced pair (numerator, prod_{j=1..k+1} (n-j))."""
    if 1 <= n <= k + 1:
        raise ValueError(f"denominator n-j vanishes in 1..k+1: n={n}, k={k}")
    numerator, denominator = 0, 1
    for j in range(1, k + 2):
        numerator = numerator * (n - j) + weight(j) * denominator
        denominator *= n - j
    return numerator, denominator


def _combine(*terms: tuple[int, Fraction]) -> tuple[int, int]:
    """sum c * x over the ``(c, x)`` terms, for integer c and exact x, as
    the unreduced pair (numerator, product of the x denominators): integer
    work only, with no gcd."""
    numerator, denominator = 0, 1
    for c, x in terms:
        q = x.denominator
        numerator = numerator * q + c * x.numerator * denominator
        denominator *= q
    return numerator, denominator


def ones_product_entry(k: int, r: int, n: int) -> Fraction:
    """sum_{j=1..k+1} (-1)^(k+r+j) (n-1)/(n-j) binomial(n-2, k)
    binomial(k, j-1) binomial(n-j-1, r-1).

    Equals 1 exactly when 1 <= r <= k+1; defined for any n outside
    1..k+1.
    """
    scale = (n - 1) * binomial(n - 2, k)
    return Fraction(*_sum_over_poles(k, n, lambda j: (
        (-1) ** ((k + r + j) % 2) * scale * binomial(k, j - 1) * binomial(n - j - 1, r - 1)
    )))


def ones_entry_recurrence_residuals(k: int, r: int, n: int) -> tuple[Fraction, Fraction]:
    """The two exact difference recurrences for ones_product_entry.

    Returns

      (k-r+2)(n-k-2) [f(k+1,r) - f(k,r)] - (k+2)(n-k-3) [f(k+2,r) - f(k+1,r)]
      r(n-r-1) [f(k,r+1) - f(k,r)] - (k-r)(r+1) [f(k,r+2) - f(k,r+1)]

    with f = ones_product_entry at fixed n.  Raises when a referenced
    value is undefined (the first residual needs n outside 1..k+3).
    """
    first, second = _ones_residuals(ones_product_entry, k, r, n)
    return Fraction(*first), Fraction(*second)


def _ones_residuals(
    f: Callable[[int, int, int], Fraction], k: int, r: int, n: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The residuals of :func:`ones_entry_recurrence_residuals` through f,
    each as an unreduced (numerator, denominator) pair: a (x1 - x0) -
    b (x2 - x1) is (a + b) x1 - a x0 - b x2."""
    # each term once, in the order the two residuals first reference them
    k1, here, k2 = f(k + 1, r, n), f(k, r, n), f(k + 2, r, n)
    r1, r2 = f(k, r + 1, n), f(k, r + 2, n)
    a, b = (k - r + 2) * (n - k - 2), (k + 2) * (n - k - 3)
    c, d = r * (n - r - 1), (k - r) * (r + 1)
    return _combine((a + b, k1), (-a, here), (-b, k2)), _combine((c + d, r1), (-c, here), (-d, r2))


def binomial_moment_sum(k: int, b: int, n: int) -> Fraction:
    """sum_{j=1..k+1} (-1)^(k+j-1) (n-1) binomial(n-2, k)
    / ((n-j) binomial(n, b)) * binomial(k, j-1) binomial(j, b).

    Equals 1 exactly when 0 <= b <= k; requires binomial(n, b) != 0 and
    n outside 1..k+1.
    """
    scale = (n - 1) * binomial(n - 2, k)
    numerator, denominator = _sum_over_poles(k, n, lambda j: (
        (-1) ** ((k + j - 1) % 2) * scale * binomial(k, j - 1) * binomial(j, b)
    ))
    nb = binomial(n, b)
    if nb == 0:
        raise ValueError(f"binomial({n}, {b}) vanishes; the normalized sum is undefined")
    return Fraction(numerator, denominator * nb)


def moment_sum_recurrence_residuals(k: int, b: int, n: int) -> tuple[Fraction, Fraction]:
    """First-order differences of binomial_moment_sum in each parameter:

    (g(k+1, b) - g(k, b),  g(k, b+1) - g(k, b))

    Both vanish while the shifted point stays inside 0 <= b <= k; the
    second probes outside that window when b = k and is then recorded by
    the grid runner instead of asserted.
    """
    first, second = _moment_residuals(binomial_moment_sum, k, b, n)
    return Fraction(*first), Fraction(*second)


def _moment_residuals(
    g: Callable[[int, int, int], Fraction], k: int, b: int, n: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The residuals of :func:`moment_sum_recurrence_residuals` through g,
    each as an unreduced (numerator, denominator) pair."""
    up, here = g(k + 1, b, n), g(k, b, n)
    return _combine((1, up), (-1, here)), _combine((1, g(k, b + 1, n)), (-1, here))


def moment_identity_check(k: int, b: int, n: int) -> CheckResult:
    """Two-sided form of the moment identity, 0 <= b <= k:

    sum_{j=1..k+1} (-1)^(j-1)/(n-j) binomial(k, j-1) binomial(j, b)
        == (-1)^k/(n-1) * binomial(n, b) / binomial(n-2, k)

    The right side is defined wherever the left one is.  The left side
    refuses 1 <= n <= k+1, which covers n = 1 and every n >= 2 with
    n-2 < k; so n-1 != 0, and binomial(n-2, k) is positive for
    n >= k+2, while for n <= 0 it is (-1)^k binomial(k-n+1, k), never 0.
    """
    if not 0 <= b <= k:
        raise ValueError(f"identity stated only for 0 <= b <= k, got b={b}, k={k}")
    (p, q), (s, t) = _moment_sides(k, b, n)
    name = f"moment-identity k={k} b={b} n={n}"
    # q and t are nonzero, so p/q == s/t exactly when p t == s q
    if p * t == s * q:
        return passed(name)
    return failed(name, f"lhs={Fraction(p, q)} rhs={Fraction(s, t)}")


def _moment_sides(k: int, b: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both sides of :func:`moment_identity_check`, each as an unreduced
    (numerator, denominator) pair."""
    lhs = _sum_over_poles(k, n, lambda j: (
        (-1) ** ((j - 1) % 2) * binomial(k, j - 1) * binomial(j, b)
    ))
    return lhs, ((-1) ** k * binomial(n, b), (n - 1) * binomial(n - 2, k))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class GridSpec(NamedTuple):
    """Inclusive integer ranges for every free parameter of the suites.

    ``k`` and ``n`` bound every per-(k, n) check of ``verify``, the
    matrix and brute-force checks as well as the identity grids; the
    defaults are verify's default bounds.  ``run_suite`` refuses an
    upper ``k`` bound below 0 and drops negative lower ``k``; ``n``
    lower bounds are raised per k to the size rule n >= 2k (``sizes``),
    or to max(2k, k+2) where the identities have poles (``n_values``).
    ``r`` and ``b`` values beyond the identity windows are probed and
    recorded, not asserted.  ``A``/``B`` and ``x`` drive the convolution
    grid; ``x`` and ``y`` also drive the determinant product grid.
    """

    k: Range = (0, 5)
    n: Range = (0, 20)
    r: Range = (1, 7)
    b: Range = (0, 6)
    x: Range = (-6, 10)
    y: Range = (-1, 6)
    A: Range = (-10, 10)
    B: Range = (-10, 10)

    @staticmethod
    def from_dict(data: dict) -> "GridSpec":
        if not isinstance(data, dict):
            raise ValueError(f"grid must be an object of [lo, hi] ranges, got {data!r}")
        known = set(GridSpec._fields)
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown grid keys: {sorted(bad)}")
        kwargs = {}
        for key, value in data.items():
            # type() rather than isinstance(): a JSON true is not a bound
            if not isinstance(value, (list, tuple)) or [type(v) for v in value] != [int, int]:
                raise ValueError(f"range for {key} must be a [lo, hi] integer pair, got {value!r}")
            lo, hi = value
            if lo > hi:
                raise ValueError(f"empty range for {key}: [{lo}, {hi}]")
            kwargs[key] = (lo, hi)
        return GridSpec(**kwargs)

    def k_values(self) -> range:
        return range(max(self.k[0], 0), self.k[1] + 1)

    def sizes(self, k: int) -> range:
        return range(max(self.n[0], 2 * k), self.n[1] + 1)

    def n_values(self, k: int) -> range:
        return range(max(self.n[0], 2 * k, k + 2), self.n[1] + 1)


def run_convolution_grid(spec: GridSpec) -> list[CheckResult]:
    """Convolution identity over the (A, B, x) box, one result per (A, B).

    Each A and each B value gets its column binomial(y+a, y), y <= x_hi,
    once.  Each x compares the sum with binomial(a+b+x+1, x), and only
    the first failing x builds its ``vandermonde_chu_check``, for the
    witness.  A box with no x >= 0 evaluates nothing, so each (A, B)
    result is then skipped."""
    results = []
    x_lo, x_hi = max(spec.x[0], 0), spec.x[1]
    cols_b = {b: _column(b, x_hi) for b in range(spec.B[0], spec.B[1] + 1)}
    for a in range(spec.A[0], spec.A[1] + 1):
        col_a = _column(a, x_hi)
        for b, col_b in cols_b.items():
            name = f"convolution A={a} B={b} x={x_lo}..{x_hi}"
            if x_hi < x_lo:
                results.append(skipped(name, f"x range {spec.x[0]}..{spec.x[1]} holds no x >= 0"))
                continue
            bad = next((x for x in range(x_lo, x_hi + 1)
                        if _convolution_sum(x, col_a, col_b) != binomial(a + b + x + 1, x)), None)
            results.append(passed(name) if bad is None
                           else failed(name, vandermonde_chu_check(a, b, bad).witness))
    return results


def run_ones_identity_grid(spec: GridSpec) -> list[CheckResult]:
    """Unit values and recurrence residuals for ones_product_entry, each
    defined point evaluated once per call."""
    f = cache(ones_product_entry)
    results = []
    for k in spec.k_values():
        for n in spec.n_values(k):
            for r in range(spec.r[0], spec.r[1] + 1):
                inside = 1 <= r <= k + 1
                results.append(expect_within(
                    f"ones-entry k={k} r={r} n={n}", inside, f(k, r, n),
                    1, "value {got}", "outside 1 <= r <= k+1, recorded value {got}",
                ))
                rname = f"ones-recurrence k={k} r={r} n={n}"
                try:
                    first, second = _ones_residuals(f, k, r, n)
                except ValueError as exc:
                    results.append(skipped(rname, f"undefined reference: {exc}"))
                    continue
                if not inside:
                    check = skipped(rname, "outside 1 <= r <= k+1, recorded residuals "
                                    f"({Fraction(*first)}, {Fraction(*second)})")
                elif first[0] or second[0]:
                    check = failed(rname, f"residuals ({Fraction(*first)}, {Fraction(*second)})")
                else:
                    check = passed(rname)
                results.append(check)
    return results


def run_moment_identity_grid(spec: GridSpec) -> list[CheckResult]:
    """Unit values, two-sided form and residuals for binomial_moment_sum,
    each defined point evaluated once per call."""
    g = cache(binomial_moment_sum)
    results = []
    for k in spec.k_values():
        for n in spec.n_values(k):
            for b in range(spec.b[0], spec.b[1] + 1):
                name = f"moment-sum k={k} b={b} n={n}"
                try:
                    value = g(k, b, n)
                except ValueError as exc:
                    results.append(skipped(name, f"undefined: {exc}"))
                    continue
                results.append(expect_within(
                    name, b <= k, value, 1,
                    "value {got}", "outside 0 <= b <= k, recorded value {got}",
                ))
                if b <= k:
                    results.append(moment_identity_check(k, b, n))
                rname = f"moment-recurrence k={k} b={b} n={n}"
                try:
                    first, second = _moment_residuals(g, k, b, n)
                except ValueError as exc:
                    results.append(skipped(rname, f"undefined reference: {exc}"))
                    continue
                if b > k:
                    check = skipped(rname, "outside 0 <= b <= k, recorded residuals "
                                    f"({Fraction(*first)}, {Fraction(*second)})")
                elif first[0]:
                    check = failed(rname, f"k-direction residual {Fraction(*first)}")
                elif b == k:  # the b-direction difference reaches b+1 > k
                    check = skipped(rname, "b-direction probes b+1 > k, recorded residual "
                                    f"{Fraction(*second)}; k-direction residual 0")
                elif second[0]:
                    check = failed(rname, f"b-direction residual {Fraction(*second)}")
                else:
                    check = passed(rname)
                results.append(check)
    return results
