"""Scalar identity suite: unit values, recurrences, convolution."""

from collections import Counter
from fractions import Fraction

import pytest

from lisenum import (
    GridSpec,
    binomial,
    binomial_moment_sum,
    identities,
    moment_identity_check,
    moment_sum_recurrence_residuals,
    ones_entry_recurrence_residuals,
    ones_product_entry,
    vandermonde_chu_check,
)
from lisenum.identities import run_convolution_grid, run_moment_identity_grid, run_ones_identity_grid


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolution_trivial_point():
    result = vandermonde_chu_check(0, 0, 4)
    assert result.status == "pass"
    # both sides were 5: re-derive by hand
    assert binomial(0 + 0 + 4 + 1, 4) == 5


def test_convolution_negative_parameters():
    assert vandermonde_chu_check(-3, 2, 2).status == "pass"
    for a in range(-10, 11):
        for b in range(-10, 11):
            for x in range(0, 11):
                assert vandermonde_chu_check(a, b, x).status == "pass", (a, b, x)


def test_convolution_matrix_product_instances():
    # the parameter slice that turns the convolution into the entrywise
    # matrix-product reduction: A = i-n, B = n-2k-1, x = j-1
    for k in range(0, 5):
        for n in range(2 * k, 16):
            for i in range(1, k + 2):
                for j in range(1, k + 2):
                    assert vandermonde_chu_check(i - n, n - 2 * k - 1, j - 1).status == "pass"


def test_convolution_rejects_negative_x():
    with pytest.raises(ValueError):
        vandermonde_chu_check(0, 0, -1)


# ---------------------------------------------------------------------------
# unit row-product entries
# ---------------------------------------------------------------------------

def test_ones_entry_values():
    assert ones_product_entry(2, 1, 6) == 1
    assert ones_product_entry(3, 4, 8) == 1
    # outside the window the sum genuinely is not 1
    assert ones_product_entry(1, 3, 4) == -2


def test_ones_entry_grid():
    for k in range(0, 6):
        for n in range(max(2 * k, k + 2), 21):
            for r in range(1, k + 2):
                assert ones_product_entry(k, r, n) == 1, (k, r, n)


def test_ones_entry_pole():
    with pytest.raises(ValueError):
        ones_product_entry(3, 1, 2)  # n inside 1..k+1


def test_ones_recurrence_residuals():
    assert ones_entry_recurrence_residuals(2, 2, 8) == (0, 0)
    assert ones_entry_recurrence_residuals(1, 3, 6) == (0, 0)
    assert ones_entry_recurrence_residuals(2, 5, 9) == (0, 0)


def test_ones_recurrence_residuals_zero_on_grid():
    for k in range(0, 5):
        for n in range(max(2 * k, k + 4), 19):
            for r in range(1, k + 2):
                assert ones_entry_recurrence_residuals(k, r, n) == (0, 0), (k, r, n)


def test_ones_recurrence_undefined_reference():
    # the k-direction residual references the sum at k+2, undefined at n = k+3
    with pytest.raises(ValueError):
        ones_entry_recurrence_residuals(2, 1, 5)


# ---------------------------------------------------------------------------
# moment sums
# ---------------------------------------------------------------------------

def test_moment_sum_values():
    assert binomial_moment_sum(2, 0, 7) == 1
    assert binomial_moment_sum(3, 3, 9) == 1
    # frozen out-of-window probe, derived by direct summation
    assert binomial_moment_sum(1, 2, 5) == Fraction(2, 5)


def test_moment_sum_grid():
    for k in range(0, 6):
        for n in range(max(2 * k, k + 2), 21):
            for b in range(0, k + 1):
                assert binomial_moment_sum(k, b, n) == 1, (k, b, n)


def test_moment_sum_undefined():
    with pytest.raises(ValueError):
        binomial_moment_sum(2, 1, 3)  # pole n in 1..k+1
    with pytest.raises(ValueError):
        binomial_moment_sum(0, 3, 2)  # binomial(n, b) = 0


def test_moment_recurrence_residuals():
    assert moment_sum_recurrence_residuals(2, 1, 8) == (0, 0)
    assert moment_sum_recurrence_residuals(3, 0, 10) == (0, 0)
    first, second = moment_sum_recurrence_residuals(1, 1, 6)
    assert first == 0
    # b+1 probes outside 0 <= b <= k; recorded value, not asserted zero
    assert second == Fraction(-2, 3)


def test_moment_identity_check_values():
    assert moment_identity_check(2, 2, 6).status == "pass"
    # the single-term k=0, b=0 case: both sides equal 1/(n-1)
    assert moment_identity_check(0, 0, 4).status == "pass"
    assert binomial_moment_sum(0, 0, 4) == 1


def test_moment_identity_grid():
    for k in range(0, 6):
        for n in range(max(2 * k, k + 2), 16):
            for b in range(0, k + 1):
                assert moment_identity_check(k, b, n).status == "pass", (k, b, n)


def test_moment_identity_domain():
    with pytest.raises(ValueError):
        moment_identity_check(2, 3, 8)  # b > k
    with pytest.raises(ValueError):
        moment_identity_check(2, 1, 2)  # pole


# ---------------------------------------------------------------------------
# one-denominator sums against term-by-term references
# ---------------------------------------------------------------------------

def _reference_pole(k, n):
    if 1 <= n <= k + 1:
        raise ValueError(f"denominator n-j vanishes in 1..k+1: n={n}, k={k}")


def _reference_ones(k, r, n):
    _reference_pole(k, n)
    return sum((
        (-1) ** ((k + r + j) % 2) * Fraction(n - 1, n - j) * binomial(n - 2, k)
        * binomial(k, j - 1) * binomial(n - j - 1, r - 1)
        for j in range(1, k + 2)
    ), Fraction(0))


def _reference_moment(k, b, n):
    _reference_pole(k, n)
    nb = binomial(n, b)
    if nb == 0:
        raise ValueError(f"binomial({n}, {b}) vanishes; the normalized sum is undefined")
    return sum((
        (-1) ** ((k + j - 1) % 2) * Fraction((n - 1) * binomial(n - 2, k), (n - j) * nb)
        * binomial(k, j - 1) * binomial(j, b)
        for j in range(1, k + 2)
    ), Fraction(0))


def _reference_moment_sides(k, b, n):
    _reference_pole(k, n)
    if n == 1 or binomial(n - 2, k) == 0:
        raise ValueError(f"right side undefined at n={n}, k={k}")
    lhs = sum(
        Fraction((-1) ** ((j - 1) % 2), n - j) * binomial(k, j - 1) * binomial(j, b)
        for j in range(1, k + 2)
    )
    return lhs, Fraction((-1) ** k, n - 1) * Fraction(binomial(n, b), binomial(n - 2, k))


def _outcome(fn, *args):
    """What a call gives, as comparable data: each value with its type and
    str, or the ValueError text."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return [(type(v), v, str(v)) for v in (got if isinstance(got, tuple) else (got,))]


def test_sums_match_term_by_term_references(monkeypatch):
    # the left side of moment_identity_check is read off the expect call
    monkeypatch.setattr(identities, "expect", lambda name, got, want, *rest: (got, want))
    for k in range(-1, 9):
        for n in range(-15, 41):
            for r_or_b in range(-4, 12):
                where = (k, r_or_b, n)
                assert _outcome(ones_product_entry, *where) == _outcome(_reference_ones, *where), where
                assert _outcome(binomial_moment_sum, *where) == _outcome(_reference_moment, *where), where
                if 0 <= r_or_b <= k:
                    assert _outcome(moment_identity_check, *where) == _outcome(
                        _reference_moment_sides, *where
                    ), where


# ---------------------------------------------------------------------------
# grid runners
# ---------------------------------------------------------------------------

SMALL = GridSpec(k=(0, 2), n=(0, 8), r=(1, 4), b=(0, 3), A=(-3, 3), B=(-3, 3), x=(0, 4))


def test_ones_grid_runner_statuses():
    results = run_ones_identity_grid(SMALL)
    assert results, "grid must not be empty"
    assert all(r.status != "fail" for r in results)
    # out-of-window probes are recorded, not asserted
    probes = [r for r in results if r.status == "skipped" and "outside" in (r.witness or "")]
    assert probes
    # undefined references at small n are skipped and logged
    undefined = [r for r in results if "undefined reference" in (r.witness or "")]
    assert undefined


def test_ones_grid_window_has_a_lower_bound():
    # r <= 0 lies below 1 <= r <= k+1: its values are recorded, never
    # asserted.  From r = -k-2 down the sign exponent k+r+j goes negative,
    # and the recorded values must stay exact.
    spec = GridSpec(k=(0, 2), n=(0, 8), r=(-4, 3))
    results = run_ones_identity_grid(spec)
    assert [r for r in results if r.status == "fail"] == []
    assert (sum(r.status == "pass" for r in results), len(results)) == (56, 288)
    below = [r for r in results if " r=0 " in r.name or " r=-" in r.name]
    assert below and all(r.status == "skipped" for r in below)
    assert [r.witness for r in below if r.name.startswith("ones-entry")][:2] == [
        "outside 1 <= r <= k+1, recorded value 0"
    ] * 2
    deep = set()
    for k in spec.k_values():
        for n in spec.n_values(k):
            for r in range(spec.r[0], -k - 1):
                value = ones_product_entry(k, r, n)
                assert type(value) is Fraction and value == 0, (k, r, n)
                deep.add(f"k={k} r={r} n={n}")
    assert {
        r.witness for r in results
        if r.name.split(" ", 1)[1] in deep and "recorded" in r.witness
    } == {
        "outside 1 <= r <= k+1, recorded value 0",
        "outside 1 <= r <= k+1, recorded residuals (0, 0)",
    }


def test_moment_grid_runner_statuses():
    results = run_moment_identity_grid(SMALL)
    assert results
    assert all(r.status != "fail" for r in results)
    recorded = [r for r in results if r.status == "skipped" and "recorded" in (r.witness or "")]
    assert recorded


def test_convolution_grid_runner():
    results = run_convolution_grid(SMALL)
    assert len(results) == 7 * 7  # one aggregated entry per (A, B)
    assert all(r.status == "pass" for r in results)


GRID_SUMS = (
    ("ones_product_entry", run_ones_identity_grid, "ones-entry"),
    ("binomial_moment_sum", run_moment_identity_grid, "moment-sum"),
)


@pytest.mark.parametrize("name, run", [sums[:2] for sums in GRID_SUMS])
def test_grid_run_evaluates_each_defined_value_once(monkeypatch, name, run):
    real = getattr(identities, name)
    calls = Counter()

    def counted(*point):
        calls[point] += 1
        return real(*point)

    monkeypatch.setattr(identities, name, counted)
    run(GridSpec())
    defined = [point for point in calls if _outcome(real, *point)[0] != "error"]
    assert len(defined) > 800
    assert [point for point in defined if calls[point] > 1] == []


@pytest.mark.parametrize("name, run", [sums[:2] for sums in GRID_SUMS])
def test_grid_run_evaluates_each_refused_point_once(monkeypatch, name, run):
    # the memo keeps a refusal as it keeps a value: a point whose sum
    # raises is evaluated once, however often the residuals reference it
    real = getattr(identities, name)
    calls = Counter()

    def counted(*point):
        calls[point] += 1
        return real(*point)

    monkeypatch.setattr(identities, name, counted)
    run(GridSpec())
    refused = [point for point in calls if _outcome(real, *point)[0] == "error"]
    assert len(refused) == 35
    assert [point for point in refused if calls[point] > 1] == []


@pytest.mark.parametrize("name, run, prefix", GRID_SUMS)
def test_grid_memo_ends_with_its_run(monkeypatch, name, run, prefix):
    # every point of this box lies inside the identity's window
    spec = GridSpec(k=(1, 1), n=(4, 5), r=(1, 2), b=(0, 1))
    values = [c for c in run(spec) if c.name.startswith(prefix)]
    assert len(values) == 4 and {c.status for c in values} == {"pass"}
    monkeypatch.setattr(identities, name, lambda k, r_or_b, n: Fraction(7))
    values = [c for c in run(spec) if c.name.startswith(prefix)]
    assert len(values) == 4 and {(c.status, c.witness) for c in values} == {("fail", "value 7")}


def test_grid_runner_determinism():
    a = [(r.name, r.status, r.witness) for r in run_ones_identity_grid(SMALL)]
    b = [(r.name, r.status, r.witness) for r in run_ones_identity_grid(SMALL)]
    assert a == b


def test_gridspec_roundtrip():
    assert GridSpec.from_dict({"k": [0, 3], "n": [0, 12]}) == GridSpec(k=(0, 3), n=(0, 12))
    assert GridSpec((0, 3), (0, 12)) == GridSpec(k=(0, 3), n=(0, 12))
    assert GridSpec.from_dict({}) == GridSpec() == GridSpec(
        (0, 5), (0, 20), (1, 7), (0, 6), (-6, 10), (-1, 6), (-10, 10), (-10, 10)
    )
    with pytest.raises(ValueError, match=r"^unknown grid keys: \['q', 'z'\]$"):
        GridSpec.from_dict({"z": [0, 1], "k": [0, 1], "q": [0, 1]})
    with pytest.raises(ValueError):
        GridSpec.from_dict({"k": [3, 0]})
    with pytest.raises(ValueError):
        GridSpec.from_dict({"k": 3})


@pytest.mark.parametrize(
    "data",
    [5, [["k", [0, 1]]], {"k": [None, 3]}, {"k": [0, 3.7]}, {"k": [True, 3]}, {"k": ["0", 3]}],
)
def test_gridspec_rejects_malformed(data):
    with pytest.raises(ValueError):
        GridSpec.from_dict(data)
