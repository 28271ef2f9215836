"""Brute-force ground truth for the permutation class.

The class at size (n, k) consists of the permutations a_1 ... a_n of
{1..n} whose first n-k entries increase and whose longest increasing
subsequence has length at most n-k.  Splitting by the first entry a_1
gives the components B(1), ..., B(k+1); the class is empty beyond
prefix k+1 because the values below a_1 all have to fit into the k
trailing positions.

Everything else in the package (closed formula, recursion, matrix
solves) is validated against the enumeration implemented here.  It is
a depth-first walk in lexicographic order: take each increasing
prefix that has members, then place the k trailing values one at a
time.
The full n! search space is never touched, and neither are most of the
binom(n, k) * k! permutations with an increasing prefix.

The walk follows the patience-sorting tails of what it has placed
(Schensted): ``tails[t]`` is the smallest value ending an increasing
subsequence of length t+1, and the subsequence bound n-k is
``len(tails) <= n-k``.  After the prefix the tails are the prefix
itself, already n-k long, so a trailing value v keeps the permutation
in the class exactly when v < tails[-1]; it then replaces
``tails[bisect_left(tails, v)]``, which never raises tails[-1].

The walk and the count hold one node state instead of the tails: for
each value v still to place, by increasing value, its distance
``last - bisect_left(tails, v)`` below the last tail, last = n-k-1.
The entries never rise.  Placing the j-th value makes it the tail at
its position, so its entry goes and each later entry equal to it falls
by one; the others stay (``_children``).  The walk's choices depend on
comparisons alone, so what lies below a node depends on its state
only.

Pruning lemma: a partial permutation whose prefix is complete and
whose tails are still n-k long extends to a member if and only if
every value still to place lies below tails[-1], that is, when the
last entry is not below 0.  If one value lies above, tails[-1] only
falls until it is placed, and placing it appends.  If none does,
placing the largest value left keeps the condition.  In particular a
live prefix ends in n, and those are the only roots (``_roots``).
A child whose last entry is below 0 is never visited (``_children``),
so each node the walk enters has a member below it.

Free-tail lemma: a node with m values left, sorted as free[0..m-1], has
every order of them as a member exactly when placing them in increasing
order appends no tail, that is, when entry i is at least m-1-i for
every i (``_free``).  An increasing subsequence of any order of the
free values is one of the sorted order too, so if the sorted order
stays within n-k, all m! orders do.  Such a node is a block
``(head, free)``: the values placed, followed by each order of
``free``.  The walk (``_blocks``) yields blocks, not members, and never
descends below one; a leaf is a block with nothing free.
``permutations(free)`` lists a block lazily and in lexicographic order.
``iter_class`` expands the blocks into members, one at a time;
``lines`` turns each block into its text, one string of up to k! lines
(720 at k = 6), with the head formatted once.  A state recurs at many
nodes of a listing (792 states for 42,744 nodes at (12, 6)), so the
walk memoizes what it needs of a node (``_node``).  Counting (``_count``)
visits the same children from the same roots and stops at the same
blocks, each worth m!, memoized on the state as in West's generating
trees (1996); it builds no permutation.  ``is_member`` rests on
``lis_length``, and the tests compare the walk with a filter of all n!
permutations.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain, permutations, starmap
from math import comb, factorial
from operator import ge
from typing import Iterator, Sequence

from .exact import check_size

Perm = tuple[int, ...]
# (head, free): head followed by each order of the sorted values free
_Block = tuple[Perm, Perm]
# last - bisect_left(tails, v) for each value v left, by increasing v
_State = tuple[int, ...]


def check_permutation(mu: Sequence[int]) -> None:
    n = len(mu)
    if sorted(mu) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {tuple(mu)}")


def lis_length(mu: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence.

    Patience sorting: ``tails[t]`` is the smallest value that can end an
    increasing subsequence of length t+1 seen so far.  O(n log n).
    """
    tails: list[int] = []
    for a in mu:
        pos = bisect_left(tails, a)
        if pos == len(tails):
            tails.append(a)
        else:
            tails[pos] = a
    return len(tails)


def is_member(mu: Sequence[int], n: int, k: int) -> bool:
    """Membership test straight from the definition."""
    check_size(n, k)
    check_permutation(mu)
    if len(mu) != n:
        raise ValueError(f"permutation has length {len(mu)}, expected n={n}")
    target = n - k
    if any(mu[i] >= mu[i + 1] for i in range(target - 1)):
        return False
    return lis_length(mu) <= target


def candidate_count(n: int, k: int) -> int:
    """binom(n, k) * k!, the permutations with an increasing prefix.

    It bounds the members and the leaves of the walk, and it is the
    measure that brute-force budgets are stated in.
    """
    return comb(n, k) * factorial(k)


def _roots(n: int, k: int, first: int) -> Iterator[tuple[list[int], Perm, _State]]:
    """``(prefix, rest, state)`` of each live root whose prefix starts
    with ``first``, in lexicographic order; ``rest`` holds the k values
    left to place, sorted.  1 <= first <= k+1.

    By the pruning lemma a live prefix ends in n.  Every value below
    ``first`` is left, at entry n-k-1 with all n-k tails above it, and so
    are k-first+1 values picked from first+1..n-1: a pick q with c picks
    at or above it has n-q-c+1 tails above it, entry n-q-c.  The picks
    are chosen smallest first, each from the largest it can be down, so
    the prefixes come out in lexicographic order.  At (0, 0), (1, 0) and
    (2, 1) nothing is picked, and the one prefix is n alone or empty.
    """
    values = list(range(n + 1))

    def pick(lo: int, c: int, prefix: list[int], rest: Perm, state: _State) -> Iterator:
        # prefix holds the tails below lo; c picks are left, from lo up
        if not c:
            yield prefix + values[lo:], rest, state
            return
        for q in range(n - c, lo - 1, -1):
            yield from pick(q + 1, c - 1, prefix + values[lo:q], rest + (q,), state + (n - q - c,))

    # values[first:first + 1] is [first], or [] at n = 0
    return pick(first + 1, k - first + 1, values[first:first + 1], tuple(range(1, first)),
                (n - k - 1,) * (first - 1))


def _children(state: _State) -> Iterator[tuple[int, _State]]:
    """``(j, child)`` for each value left, the j-th, whose child state
    the pruning lemma keeps: one whose last entry is not below 0.
    Placing the value drops its entry d, and each later entry equal to
    d, a value that shared its tail, falls by one, since the value
    placed becomes that tail.  Entries never rise, so the later equal
    ones come first."""
    for j, d in enumerate(state):
        later = state[j + 1:]
        c = later.count(d)
        child = state[:j] + (d - 1,) * c + later[c:]
        if child[-1] >= 0:
            yield j, child


def _free(state: _State) -> bool:
    """The free-tail lemma: entry i is at least m-1-i for every i."""
    return all(map(ge, state, range(len(state) - 1, -1, -1)))


@cache
def _node(state: _State) -> tuple[tuple[int, _State], ...] | None:
    """None at a block, else the children: what the walk needs of a
    node, memoized, since a state recurs at many nodes of a listing."""
    return None if _free(state) else tuple(_children(state))


def _place(state: _State, rest: Perm, placed: list[int]) -> Iterator[_Block]:
    """Blocks of the members that continue ``placed``, in lexicographic
    order, from the live node ``state`` with the sorted values ``rest``
    still to place; ``placed`` is restored before returning."""
    children = _node(state)
    if children is None:
        yield tuple(placed), rest
        return
    for j, child in children:
        placed.append(rest[j])
        yield from _place(child, rest[:j] + rest[j + 1:], placed)
        placed.pop()


@cache
def _count(state: _State) -> int:
    """How many members ``_place`` yields from the live node ``state``:
    m! at a block, else the sum over the children it visits."""
    if _free(state):
        return factorial(len(state))
    return sum(_count(child) for _, child in _children(state))


def _blocks(n: int, k: int, prefix: int | None = None) -> Iterator[_Block]:
    """Blocks of the class at size (n, k), lazily and in lexicographic
    order; with ``prefix`` only those of the members whose first entry
    is ``prefix``.  The arguments are checked here, before the first
    block is asked for: a prefix outside 1..n is a domain error.
    """
    check_size(n, k)
    if prefix is not None and not 1 <= prefix <= n:
        raise ValueError(f"prefix must lie in 1..{n}, got {prefix}")
    # the class is empty beyond first entry k+1
    firsts = [first for first in range(1, k + 2) if prefix in (None, first)]
    return (
        block
        for first in firsts
        for root, rest, state in _roots(n, k, first)
        for block in _place(state, rest, root)
    )


def iter_class(n: int, k: int, prefix: int | None = None) -> Iterator[Perm]:
    """Members at size (n, k), lazily and in lexicographic order: head +
    tail for each block of ``_blocks(n, k, prefix)`` and each tail in
    ``permutations(free)``.

    With ``prefix`` only those whose first entry is ``prefix``: none for
    prefix > k+1, and a prefix outside 1..n is a domain error.  The
    arguments are checked here, before the first member is asked for.
    """
    return chain.from_iterable(
        map(head.__add__, permutations(free)) for head, free in _blocks(n, k, prefix)
    )


def lines(n: int, k: int, prefix: int | None = None) -> Iterator[str]:
    """The listing text of ``iter_class(n, k, prefix)``, one item per
    block of ``_blocks(n, k, prefix)``: the ``format_perm`` line of each
    of its members, each ending in a newline, in the same order, as
    lazily and with the same argument check.  Each block's head is
    formatted once, and its lines are one join over the orders of its
    free values.
    """
    blocks, sep = _blocks(n, k, prefix), _separator(n)
    # each value's text, looked up instead of converted at every use
    name = list(map(str, range(n + 1))).__getitem__

    def block_text(head: Perm, free: Perm) -> str:
        text = sep.join(map(name, head)) + (sep if free else "")
        body = ("\n" + text).join(map(sep.join, permutations(map(name, free))))
        return f"{text}{body}\n"

    return starmap(block_text, blocks)


def component_counts(n: int, k: int) -> list[int]:
    """The vector [#B(1), ..., #B(k+1)] by direct counting: ``_count``
    summed over the live roots of each first entry."""
    check_size(n, k)
    return [sum(_count(state) for _, _, state in _roots(n, k, first)) for first in range(1, k + 2)]


def insert_prefix(mu: Sequence[int], i: int) -> Perm:
    """Prepend i after shifting every entry >= i up by one.

    Maps a member with first entry r >= i at size (n, k) to a member
    with first entry i and second entry r+1 at size (n+1, k); this is
    the step behind the column recursion.  Defined only for i <= r.
    """
    check_permutation(mu)
    if not mu:
        raise ValueError("cannot insert into the empty permutation")
    r = mu[0]
    if not 1 <= i <= r:
        raise ValueError(f"prefix insertion needs 1 <= i <= first entry {r}, got i={i}")
    return (i,) + tuple(a + 1 if a >= i else a for a in mu)


def _separator(n: int) -> str:
    """What stands between the entries of a line of length n: nothing
    for n <= 9, where every entry is one digit, a comma otherwise."""
    return "" if n <= 9 else ","


def format_perm(mu: Sequence[int]) -> str:
    """Digit string for n <= 9, comma-separated values otherwise: the
    ``str`` join of the entries, whatever their type."""
    return _separator(len(mu)).join(map(str, mu))
