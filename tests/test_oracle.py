"""Brute-force enumeration: checked against definition-level re-derivations."""

import os
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisenum import (
    check_insertion_bijection,
    component_counts,
    count_formula,
    format_perm,
    insert_prefix,
    is_member,
    iter_class,
    lis_length,
)
from lisenum import oracle
from lisenum.oracle import candidate_count


def lis_exhaustive(mu):
    """Independent oracle: try every subsequence extension."""
    best = 0

    def extend(start, last, length):
        nonlocal best
        if length > best:
            best = length
        for j in range(start, len(mu)):
            if mu[j] > last:
                extend(j + 1, mu[j], length + 1)

    extend(0, 0, 0)
    return best


def members_by_full_scan(n, k):
    """Independent oracle: filter all n! permutations by the definition."""
    target = n - k
    out = []
    for mu in permutations(range(1, n + 1)):
        if all(mu[i] < mu[i + 1] for i in range(target - 1)) and lis_exhaustive(mu) <= target:
            out.append(mu)
    return out


@pytest.mark.parametrize(
    "mu, expected",
    [
        ((1, 2, 3, 4), 4),
        ((1, 4, 3, 2), 2),
        ((3, 4, 2, 1), 2),
        ((2, 4, 1, 3), 2),
        ((), 0),
        ((1,), 1),
        ((5, 4, 3, 2, 1), 1),
    ],
)
def test_lis_values(mu, expected):
    assert lis_length(mu) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_lis_matches_exhaustive_scan(mu):
    assert lis_length(mu) == lis_exhaustive(mu)


@pytest.mark.parametrize(
    "mu, n, k, expected",
    [
        ((1, 4, 3, 2), 4, 2, True),
        ((1, 2, 3, 4), 4, 2, False),   # subsequence too long
        ((2, 1, 3, 4), 4, 2, False),   # prefix not increasing
        ((2, 4, 1, 3), 4, 2, True),
        ((2, 1), 2, 1, True),
        ((1, 2), 2, 1, False),
    ],
)
def test_is_member(mu, n, k, expected):
    assert is_member(mu, n, k) is expected


def test_is_member_validates():
    with pytest.raises(ValueError):
        is_member((1, 1, 2), 3, 1)
    with pytest.raises(ValueError):
        is_member((1, 2), 3, 1)
    with pytest.raises(ValueError):
        is_member((1, 2, 3), 3, 2)  # n < 2k


def test_enumerate_small_goldens():
    assert list(iter_class(4, 2)) == [
        (1, 4, 3, 2),
        (2, 4, 1, 3),
        (2, 4, 3, 1),
        (3, 4, 1, 2),
        (3, 4, 2, 1),
    ]
    assert list(iter_class(2, 1)) == [(2, 1)]
    assert list(iter_class(5, 0)) == [(1, 2, 3, 4, 5)]
    assert list(iter_class(0, 0)) == [()]


def test_enumeration_matches_full_scan():
    for n in range(1, 8):
        for k in range(0, n // 2 + 1):
            members = list(iter_class(n, k))
            assert members == members_by_full_scan(n, k)
            assert all(is_member(mu, n, k) for mu in members)
            assert members == sorted(members)


def members_by_candidate_scan(n, k):
    """The candidate scan the walk replaced: every permutation with an
    increasing prefix, kept when lis_length allows it."""
    values = range(1, n + 1)
    out = []
    for suffix in combinations(values, k):
        prefix = tuple(v for v in values if v not in suffix)
        for tail in permutations(suffix):
            if lis_length(prefix + tail) <= n - k:
                out.append(prefix + tail)
    return sorted(out)


def test_enumeration_matches_definition_filter():
    for n in range(9):
        every = list(permutations(range(1, n + 1)))
        for k in range(n // 2 + 1):
            assert list(iter_class(n, k)) == sorted(p for p in every if is_member(p, n, k))


@pytest.mark.parametrize("n", range(11))
def test_blocks_are_free_tails(n):
    # One pass over all n! permutations, in lexicographic order.  The
    # first n-k entries increase iff the leading increasing run r is at
    # least n-k, and r <= lis_length(p), so p is a member at (n, k) iff
    # r == lis_length(p) == n-k; k <= n/2 needs r >= n/2.
    members = {k: [] for k in range(n // 2 + 1)}
    for p in permutations(range(1, n + 1)):
        r = min(n, 1)
        while r < n and p[r - 1] < p[r]:
            r += 1
        if 2 * r >= n and lis_length(p) == r:
            members[n - r].append(p)
    for k, expected in members.items():
        blocks = list(oracle._blocks(n, k))
        # the last order of each block comes before the first of the next
        for (head, free), (next_head, next_free) in zip(blocks, blocks[1:]):
            assert head + free[::-1] < next_head + next_free
        expanded = []
        for head, free in blocks:
            assert list(free) == sorted(free)
            orders = [head + tail for tail in permutations(free)]
            assert all(is_member(mu, n, k) for mu in orders), (head, free)
            expanded += orders
        assert expanded == expected, (n, k)


# every cell up to the oracle's n cap with at most 10^5 candidates
SCAN_CELLS = [
    pytest.param(n, k, id=f"n{n}-k{k}")
    for n in range(15)
    for k in range(n // 2 + 1)
    if candidate_count(n, k) <= 10**5
]


@pytest.mark.parametrize("n, k", SCAN_CELLS)
def test_walks_match_candidate_scan(n, k):
    members = members_by_candidate_scan(n, k)
    assert list(iter_class(n, k)) == members
    for i in range(1, n + 1):
        assert list(iter_class(n, k, i)) == [mu for mu in members if mu[0] == i]
    if n > 0:
        firsts = Counter(mu[0] for mu in members)
        assert component_counts(n, k) == [firsts[i] for i in range(1, k + 2)]


@pytest.mark.parametrize("n, k", [(12, 6), (14, 5)])
def test_counting_matches_listing_beyond_the_scan(n, k):
    firsts = Counter(mu[0] for mu in iter_class(n, k))
    assert component_counts(n, k) == [firsts[i] for i in range(1, k + 2)]


def test_walk_skips_the_children_the_pruning_lemma_cuts(monkeypatch):
    # cost: the walk enters live nodes only, one call each, and stops at
    # a block; 2,210 of the 4,065 nodes at (11, 5) are blocks
    calls, real = [], oracle._place

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_place", counted)
    assert len(list(oracle._blocks(11, 5))) == 2210
    assert len(calls) == 4065


def test_walk_carries_the_tail_positions(monkeypatch):
    # at every node, the entry of each value left is how far below the
    # last patience tail of the values placed a fresh bisect_left puts it
    nodes, real = [], oracle._place

    def checked(state, rest, placed):
        tails = []
        for v in placed:
            pos = bisect_left(tails, v)
            tails[pos:pos + 1] = [v]
        assert len(tails) == n - k, placed
        last = len(tails) - 1
        assert state == tuple(last - bisect_left(tails, v) for v in rest), (placed, rest)
        nodes.append(len(rest))
        return real(state, rest, placed)

    monkeypatch.setattr(oracle, "_place", checked)
    for n in range(10):
        for k in range(n // 2 + 1):
            for prefix in (None, *range(1, n + 1)):
                list(oracle._blocks(n, k, prefix))
    assert len(nodes) == 1811 and max(nodes) == 4


@pytest.mark.parametrize("n, k", SCAN_CELLS)
def test_count_sums_the_blocks_below_each_root(n, k):
    # the count and the walk run on the same states; the heads of the
    # blocks do not matter for their sizes
    for first in range(1, k + 2):
        for _, rest, state in oracle._roots(n, k, first):
            blocks = oracle._place(state, rest, [])
            assert oracle._count(state) == sum(factorial(len(free)) for _, free in blocks)


def test_count_of_a_free_node_calls_no_child(monkeypatch):
    def children(state):
        raise AssertionError(f"counting {state} visited its children")

    # the one root of prefix 13 at (24, 12) is free: all 12! orders of 1..12
    [(prefix, rest, state)] = oracle._roots(24, 12, 13)
    assert (prefix, rest, state) == (list(range(13, 25)), tuple(range(1, 13)), (11,) * 12)
    monkeypatch.setattr(oracle, "_children", children)
    oracle._count.cache_clear()
    assert oracle._count(state) == factorial(12)
    assert oracle._count((3, 2, 1, 0)) == 24
    with pytest.raises(AssertionError, match="visited its children"):
        oracle._count((3, 2, 0, 0))


def test_counting_never_walks(monkeypatch):
    def walk(*args):
        raise AssertionError("counting entered the walk")

    monkeypatch.setattr(oracle, "_place", walk)
    oracle._count.cache_clear()
    assert component_counts(12, 6) == [100585, 68334, 42150, 22920, 10440, 3600, 720]


def test_counting_memoizes_live_roots_only():
    # dead roots and the children the pruning lemma cuts never reach the
    # memo, and a free node is counted without its children
    oracle._count.cache_clear()
    component_counts(14, 5)
    assert oracle._count.cache_info().misses == 1573


def test_counting_reaches_large_n_at_k1():
    assert sum(component_counts(2000, 1)) == count_formula(2000, 1)


def test_enumerate_with_prefix():
    assert list(iter_class(4, 2, 2)) == [(2, 4, 1, 3), (2, 4, 3, 1)]
    assert list(iter_class(4, 2, 3)) == [(3, 4, 1, 2), (3, 4, 2, 1)]
    assert list(iter_class(4, 2, 4)) == []
    with pytest.raises(ValueError):
        iter_class(4, 2, 0)
    with pytest.raises(ValueError):
        iter_class(4, 2, 5)


def test_lines_check_the_prefix_when_called():
    # before any line is asked for, as iter_class does
    with pytest.raises(ValueError, match="^prefix must lie in 1..4, got 5$"):
        oracle.lines(4, 2, 5)


def test_emptiness_beyond_prefix_bound():
    for n, k in ((4, 2), (5, 2), (6, 3), (7, 2)):
        for i in range(k + 2, n + 1):
            assert list(iter_class(n, k, i)) == []


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (4, 2, [1, 2, 2]),
        (6, 3, [14, 15, 12, 6]),
        (2, 1, [0, 1]),
        (0, 0, [1]),
        (3, 0, [1]),
    ],
)
def test_component_counts(n, k, expected):
    assert component_counts(n, k) == expected


def test_components_sum_to_class_size():
    for n in range(1, 9):
        for k in range(0, n // 2 + 1):
            assert sum(component_counts(n, k)) == len(list(iter_class(n, k)))


def test_column_recursion_oracle_vs_oracle():
    # entry i at size n+1 equals the tail sum from r=i of the entries at n
    for k in range(0, 3):
        for n in range(2 * k, 8):
            if n == 0:
                continue
            now = component_counts(n, k)
            nxt = component_counts(n + 1, k)
            for i in range(1, k + 2):
                assert nxt[i - 1] == sum(now[r - 1] for r in range(i, k + 2))


def test_last_component_is_k_factorial():
    for k in range(0, 4):
        for n in range(max(2 * k, 1), 10):
            assert component_counts(n, k)[-1] == factorial(k)


@pytest.mark.parametrize(
    "mu, i, expected",
    [
        ((2, 4, 1, 3), 1, (1, 3, 5, 2, 4)),
        ((3, 4, 2, 1), 3, (3, 4, 5, 2, 1)),
        ((1, 4, 3, 2), 1, (1, 2, 5, 4, 3)),
        ((2, 1), 2, (2, 3, 1)),
    ],
)
def test_insert_prefix(mu, i, expected):
    assert insert_prefix(mu, i) == expected


def test_insert_prefix_errors():
    with pytest.raises(ValueError):
        insert_prefix((2, 4, 1, 3), 3)  # i > first entry
    with pytest.raises(ValueError):
        insert_prefix((2, 4, 1, 3), 0)
    with pytest.raises(ValueError):
        insert_prefix((), 1)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(2, 2\)$"):
        insert_prefix((2, 2), 1)


def test_insertion_images_land_in_next_class():
    for n, k in ((4, 2), (5, 2), (6, 3)):
        for mu in iter_class(n, k):
            for i in range(1, mu[0] + 1):
                img = insert_prefix(mu, i)
                assert is_member(img, n + 1, k)
                assert img[0] == i and img[1] == mu[0] + 1


def test_insertion_bijection_passes():
    for n, k in ((2, 1), (4, 2), (6, 3)):
        result = check_insertion_bijection(n, k)
        assert result.status == "pass", result.witness
    with pytest.raises(ValueError):
        check_insertion_bijection(0, 0)


def test_insertion_bijection_reconstructs_next_column():
    # the (4, 2) -> (5, 2) reconstruction, frozen from direct enumeration
    golden = {
        1: ["12543", "13524", "13542", "14523", "14532"],
        2: ["23514", "23541", "24513", "24531"],
        3: ["34512", "34521"],
    }
    for i, expected in golden.items():
        got = [format_perm(mu) for mu in iter_class(5, 2, i)]
        assert got == expected
    assert check_insertion_bijection(4, 2).status == "pass"
    # the n=6, k=3 step lands on a first component of size 47
    assert len(list(iter_class(7, 3, 1))) == 47


def test_format_perm():
    assert format_perm((1, 4, 3, 2)) == "1432"
    assert format_perm(tuple(range(1, 10))) == "123456789"
    assert format_perm(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    assert format_perm(()) == ""
    assert format_perm([2, 1]) == "21"
    assert format_perm(tuple(range(10, 0, -1))) == "10,9,8,7,6,5,4,3,2,1"
    # the str of each entry, whatever its type; %d would print 1 and 1
    assert format_perm((True, 1.5)) == "True1.5"
    assert format_perm((True,) * 5 + (1.5,) * 5) == "True,True,True,True,True,1.5,1.5,1.5,1.5,1.5"


def test_iter_class_is_lazy_within_a_root():
    # At (24, 12) the one root of prefix 13, 13..24, has 12! members, all
    # orders of 1..12; its first member must come at once, as must the
    # class's.  Run in a child capped at 1 GB, so that a walk that buffers
    # fails instead of filling the host's memory.
    code = (
        "import resource, time; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from lisenum import iter_class; "
        "start = time.perf_counter(); "
        "first = next(iter_class(24, 12)), next(iter_class(24, 12, 13)); "
        "print(time.perf_counter() - start, *first)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, first = proc.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert first == "%s %s\n" % (
        (*range(1, 12), *range(24, 11, -1)),
        (*range(13, 25), *range(1, 13)),
    )
