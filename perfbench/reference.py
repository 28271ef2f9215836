"""Fixed reference work that measures how fast the machine runs right now.

Usage::

    python3 perfbench/reference.py

The benchmark spawns this between its ops, in a fresh interpreter like
each op, and scales every op time by how long the reference took beside
it (see ``run.py``).  On a shared host, the speed one process gets drifts
by a fifth or more over minutes, and that drift would otherwise swamp
the program's own changes.  The work imports nothing from lisenum, so
no change to the program can move it, and it mixes the kinds of work
lisenum does: big-integer elimination, bisection over permutations, and
formatting lines of text.  It prints one checksum, ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import permutations
from math import comb

EXPECTED = "71f9e1b27720b854"


def lis_lengths(n: int) -> list[int]:
    """Longest increasing subsequence of every permutation of range(n)."""
    out = []
    for perm in permutations(range(n)):
        tails: list[int] = []
        for x in perm:
            i = bisect_left(tails, x)
            if i == len(tails):
                tails.append(x)
            else:
                tails[i] = x
        out.append(len(tails))
    return out


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free elimination; the matrix must need no pivoting."""
    a = [row[:] for row in rows]
    size = len(a)
    prev = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def work() -> str:
    digest = hashlib.sha256()
    lengths = lis_lengths(8)
    digest.update(bytes(lengths))
    for size in range(16, 34):
        matrix = [[comb(i + j + size, i) + (i == j) for j in range(size)] for i in range(size)]
        digest.update(str(bareiss_det(matrix)).encode())
    lines = "\n".join(" ".join(map(str, p)) for p in permutations(range(1, 8)))
    digest.update(lines.encode())
    return digest.hexdigest()[:16]


if __name__ == "__main__":
    print(work())
