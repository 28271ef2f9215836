"""Brute-force ground truth for the permutation class.

The class at size (n, k) consists of the permutations a_1 ... a_n of
{1..n} whose first n-k entries increase and whose longest increasing
subsequence has length at most n-k.  Splitting by the first entry a_1
gives the components B(1), ..., B(k+1); the class is empty beyond
prefix k+1 because the values below a_1 all have to fit into the k
trailing positions.

Everything else in the package (closed formula, recursion, matrix
solves) is validated against the enumeration implemented here.  It is
a depth-first walk in lexicographic order: choose the increasing
prefix entry by entry, then place the k trailing values one at a time.
The full n! search space is never touched, and neither are most of the
binom(n, k) * k! permutations with an increasing prefix.

The walk follows the patience-sorting tails of what it has placed
(Schensted): ``tails[t]`` is the smallest value ending an increasing
subsequence of length t+1, and the subsequence bound n-k is
``len(tails) <= n-k``.  After the prefix the tails are the prefix
itself, already n-k long, so a trailing value v keeps the permutation
in the class exactly when v < tails[-1]; it then replaces
``tails[bisect_left(tails, v)]``, which never raises tails[-1].  The
walk does not hold the tails themselves, only the position
``bisect_left(tails, v)`` of each value v still to place, the state
that ``_count_word`` spells as a word: placing v at position p makes v
that tail, which moves each larger value at p to p+1 and leaves every
other position as it was.

Pruning lemma: a partial permutation whose prefix is complete and
whose tails are still n-k long extends to a member if and only if
every value still to place lies below tails[-1].  If one value lies
above, tails[-1] only falls until it is placed, and placing it
appends.  If none does, placing the largest value left keeps the
condition.  In particular the prefix ends in n.

The walk cuts every node that breaks the condition, so each node it
keeps has a member below it.  Before it recurses it also skips a value
v whose ``bisect_left`` position is the last tail, unless v is the
largest value left: v would become tails[-1] below a value still to
place, a child the pruning lemma cuts at once.

Free-tail lemma: a node with m values left, sorted as free[0..m-1], has
every order of them as a member exactly when placing them in increasing
order appends no tail, that is, when
``bisect_left(tails, free[i]) <= len(tails) - m + i`` for every i.  An
increasing subsequence of any order of the free values is one of the
sorted order too, so if the sorted order stays within n-k, all m!
orders do.  Such a node is a block ``(head, free)``: the values placed,
followed by each order of ``free``.  The walk (``_blocks``) yields
blocks, not members, and never descends below one; a leaf is a block
with nothing free.  ``permutations(free)`` lists a block lazily and in
lexicographic order.  ``iter_class`` expands the blocks into members,
one at a time; ``lines`` turns each block into its text, one string of
up to k! lines (720 at k = 6), with the head formatted once.  Only
listing walks; counting memoizes the count below a node on its state
word (``_count_word``), as in West's generating trees (1996).  Counting
spells the root words itself (``component_counts``): by the pruning
lemma a live prefix ends in n, so the first entry and the values
left to place between them fix it, and dead roots are never formed.
``is_member`` rests on ``lis_length``, and the tests compare the walk
with a filter of all n! permutations.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain, combinations, permutations, starmap
from math import comb, factorial
from operator import le
from typing import Iterator, Sequence

from .exact import check_size

Perm = tuple[int, ...]
# (head, free): head followed by each order of the sorted values free
_Block = tuple[Perm, Perm]


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


def _roots(n: int, k: int, first: int) -> Iterator[tuple[list[int], list[int]]]:
    """``(prefix, rest)`` for each increasing prefix of length n-k that
    starts with ``first``, in lexicographic order; ``rest`` holds the
    other values, sorted.  n >= 1.

    ``combinations`` picks the prefix entry by entry, entry p (0-based)
    at most k+p+1, so nothing comes out for first > k+1.  Prefixes that
    do not end in n come out too; ``_place`` cuts them at once.  Only
    the walk uses this; counting spells its live roots itself.
    """
    for mid in combinations(range(first + 1, n + 1), n - k - 1):
        prefix = [first, *mid]
        taken = set(prefix)
        yield prefix, [v for v in range(1, n + 1) if v not in taken]


def _place(last: int, positions: list[int], rest: list[int], placed: list[int]) -> Iterator[_Block]:
    """Blocks of the members that continue ``placed``, in lexicographic
    order.

    ``rest`` holds the sorted values still to place and ``positions``
    their ``bisect_left`` positions in the patience tails of ``placed``,
    whose last tail is at ``last``; ``placed`` is restored before
    returning.  By the pruning lemma there are none when a value lies
    above the last tail; by the free-tail lemma the node is one block
    when each ``rest[i]`` lands on tail last + 1 - m + i or before it,
    m = len(rest).  Placing ``rest[j]`` at ``pos`` makes it that tail,
    so each later value at ``pos`` moves to pos + 1 and every other
    value keeps its position.
    """
    if positions and positions[-1] > last:
        return
    m = len(rest)
    if all(map(le, positions, range(last + 1 - m, last + 1))):
        yield tuple(placed), tuple(rest)
        return
    for j in range(m):
        pos = positions[j]
        if pos == last and j != m - 1:
            # rest[j] would become the last tail below the largest value left
            continue
        child, left = positions.copy(), rest.copy()
        del child[j]
        i = j
        while i < m - 1 and child[i] == pos:
            child[i] = pos + 1
            i += 1
        placed.append(left.pop(j))
        yield from _place(last, child, left, placed)
        placed.pop()


@cache
def _count_word(word: str) -> int:
    """How many members ``_place`` would yield from the node spelt by
    ``word``: ``"0"`` for a tail and ``"1"`` for a value still to place,
    by increasing value, leading ``"0"``s dropped (no value left can
    replace them).  Placing the value at p drops the first ``"0"`` after
    p, the tail that ``bisect_left`` replaces, and turns p into a tail.
    """
    if not word:
        return 1
    if word[-1] == "1":
        # the pruning lemma: a value left lies above tails[-1]
        return 0
    total = 0
    p = word.find("1")
    while p >= 0:
        total += _count_word((word[:p] + "0" + word[p + 1:].replace("0", "", 1)).lstrip("0"))
        p = word.find("1", p + 1)
    return total


def _blocks(n: int, k: int, prefix: int | None = None) -> Iterator[_Block]:
    """Blocks of the class at size (n, k), lazily and in lexicographic
    order; with ``prefix`` only those of the members whose first entry
    is ``prefix``.  The arguments are checked here, before the first
    block is asked for: a prefix outside 1..n is a domain error.
    """
    check_size(n, k)
    if prefix is not None and not 1 <= prefix <= n:
        raise ValueError(f"prefix must lie in 1..{n}, got {prefix}")
    if n == 0:
        return iter([((), ())])
    firsts = range(1, k + 2) if prefix is None else (prefix,)
    return (
        block
        for first in firsts
        for root, rest in _roots(n, k, first)
        for block in _place(n - k - 1, [bisect_left(root, v) for v in rest], rest, root)
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
    """The vector [#B(1), ..., #B(k+1)] by direct counting.

    Sums ``_count_word`` over the live roots only, each spelt straight
    from a combination in O(n) C-level work.  A live prefix starts with
    ``first`` and, by the pruning lemma, ends with n; every value below
    ``first`` is left to place, and so are k-first+1 values picked from
    first+1..n-1.  The rest are tails.
    """
    check_size(n, k)
    counts = []
    for first in range(1, k + 2):
        # cells[v - 1] spells value v: "1" below first, then "0" up to n
        # but for the values picked; first == n, at (1, 0) and (2, 1),
        # leaves none to pick and spells the prefix n alone; at (0, 0)
        # the empty word counts the empty permutation
        cells = bytearray(("1" * (first - 1) + "0" * (n - first + 1)).encode())
        total = 0
        for picked in combinations(range(first, n - 1), k - first + 1):
            for i in picked:
                cells[i] = 49  # "1"
            total += _count_word(cells.decode().lstrip("0"))
            for i in picked:
                cells[i] = 48  # "0"
        counts.append(total)
    return counts


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
