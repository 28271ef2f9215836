"""Seeded op lists for the four benchmark workloads.

An op is the argv of one ``lisenum`` call.  The benchmark never imports
lisenum itself: it hands each argv to a fresh interpreter, and it checks
``count`` outputs against the closed form computed here with
``math.comb`` and ``math.perm``.

Every workload keeps the cost of one pass nearly the same for every
seed (fixed strata, with the seed choosing inside a stratum), so that
run-to-run spread measures the program and not the draw.  The ops a
seed can produce form a small finite set wherever stdout cannot be
derived independently (``verify``, ``table``, ``enumerate``), so a
golden digest exists for each of them.
"""

from __future__ import annotations

import random
from math import comb, factorial, perm

# Placeholder in the verify argv; the runner substitutes a fresh report path.
OUT = "{out}"

# Brute force beyond this many candidates is never issued (see oracle.candidate_count).
CANDIDATE_LIMIT = 10**6

WHY = {
    "verify": "verify --suite all at default bounds: the CI gate, dominated by the brute-force oracle, plus the report write",
    "table": "table --format csv for k=1..8 over ~1k columns: pipeline.components restarts the recursion per column; no oracle work",
    "solve": "count by formula, kernel and cramer on a k=10..40 ladder: determinant solves dominate; beyond verify's k<=5",
    "brute": "enumerate (prefix; whole class at (11,5), (12,6)) and count --method oracle at (11,5), (12,6), (14,5): oracle scan and listing",
}
WORKLOADS = tuple(WHY)

# table: every k in 1..8 each pass; the seed picks where each table starts
# and ends.  The recursion always runs from n = 2k, so where a table starts
# barely moves its cost, but the cost grows about as the cube of where it
# ends, so the seed moves the end by a few columns only.  About a thousand
# columns keeps a pass near 3 s, so a run holds several.
TABLE_KS = tuple(range(1, 9))
TABLE_N_FROM_FACTORS = (2, 4, 8)
TABLE_N_TO = (1000, 1002, 1004)

# solve: fixed (k, n) rungs, the seed adding 0..SOLVE_N_JITTER to n.  The
# cost grows steeply with k; n climbs from 2k to 200 along the ladder, so
# the workload covers that range while each op costs about the same for
# every seed.  Every formula op, and the k=10 solves, cost about one
# interpreter start-up.  With no rung between 10 and 25 the median op is
# a k=25 solve, well clear of that cluster and mostly computing, rather
# than an op on the cluster's edge, which noise would swap with its
# neighbours from run to run.
SOLVE_RUNGS = ((10, 20), (25, 110), (30, 140), (35, 170), (40, 196))
SOLVE_N_JITTER = 4
SOLVE_METHODS = ("formula", "kernel", "cramer")

# brute: the sizes stay fixed; the seed picks each prefix among k-1..k+1.
# Those are the three smallest components, so listing one costs about the
# same as the counting scan beside it; the large low prefixes would let
# the draw move the pass time and the per-op quantiles more than the
# program does.  The whole-class enumerate carries the listing load; it
# is left out at (14, 5), where its 2 s would leave room for only one pass
# in a run.  That also makes eight ops, so the median op time is the mean
# of the two (14, 5) ops, which cost about the same, rather than whichever
# of them is slower.
BRUTE_SIZES = ((11, 5, True), (12, 6, True), (14, 5, False))  # (n, k, list the whole class)


def closed_form(n: int, k: int) -> int:
    """Class size: sum_{i=0..k} (-1)^(k-i) C(k, i) n!/(n-i)!."""
    return sum((-1) ** (k - i) * comb(k, i) * perm(n, i) for i in range(k + 1))


def candidate_count(n: int, k: int) -> int:
    """Candidates the oracle scans at (n, k): C(n, k) suffix choices times k!."""
    return comb(n, k) * factorial(k)


def flag(argv: list[str], name: str) -> str | None:
    """Value following ``name`` in argv, or None."""
    return argv[argv.index(name) + 1] if name in argv else None


def uses_oracle(argv: list[str]) -> bool:
    return argv[0] == "enumerate" or (argv[0] == "count" and flag(argv, "--method") == "oracle")


def check_bounded(argv: list[str]) -> None:
    """Refuse any brute-force op above the candidate limit."""
    if uses_oracle(argv):
        n, k = int(flag(argv, "--n")), int(flag(argv, "--k"))
        if candidate_count(n, k) > CANDIDATE_LIMIT:
            raise ValueError(
                f"{' '.join(argv)}: {candidate_count(n, k)} candidates exceeds {CANDIDATE_LIMIT}"
            )


def _table_op(k: int, n_from: int, n_to: int) -> list[str]:
    return ["table", "--k", str(k), "--n-from", str(n_from), "--n-to", str(n_to), "--format", "csv"]


def _enumerate_op(n: int, k: int, prefix: int | None = None) -> list[str]:
    argv = ["enumerate", "--n", str(n), "--k", str(k)]
    return argv if prefix is None else argv + ["--prefix", str(prefix)]


def _count_op(n: int, k: int, method: str) -> list[str]:
    return ["count", "--n", str(n), "--k", str(k), "--method", method]


def _verify_ops(rng: random.Random) -> list[list[str]]:
    return [["verify", "--suite", "all", "--out", OUT]]


def _table_ops(rng: random.Random) -> list[list[str]]:
    return [
        _table_op(k, k * rng.choice(TABLE_N_FROM_FACTORS), rng.choice(TABLE_N_TO))
        for k in TABLE_KS
    ]


def _solve_ops(rng: random.Random) -> list[list[str]]:
    ops = []
    for k, n_from in SOLVE_RUNGS:
        n = n_from + rng.randint(0, SOLVE_N_JITTER)
        ops.extend(_count_op(n, k, method) for method in SOLVE_METHODS)
    return ops


def _brute_ops(rng: random.Random) -> list[list[str]]:
    ops = []
    for n, k, whole in BRUTE_SIZES:
        if whole:
            ops.append(_enumerate_op(n, k))
        ops.append(_enumerate_op(n, k, rng.randint(k - 1, k + 1)))
        ops.append(_count_op(n, k, "oracle"))
    return ops


_GENERATORS = {
    "verify": _verify_ops,
    "table": _table_ops,
    "solve": _solve_ops,
    "brute": _brute_ops,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The op list of one pass of ``workload`` for ``seed``."""
    ops = _GENERATORS[workload](random.Random(seed))
    for argv in ops:
        check_bounded(argv)
    return ops


def golden_space() -> list[list[str]]:
    """Every op any seed can generate whose stdout is not fixed by the closed form."""
    ops = _verify_ops(random.Random(0))
    ops += [
        _table_op(k, k * factor, n_to)
        for k in TABLE_KS
        for factor in TABLE_N_FROM_FACTORS
        for n_to in TABLE_N_TO
    ]
    for n, k, whole in BRUTE_SIZES:
        if whole:
            ops.append(_enumerate_op(n, k))
        ops += [_enumerate_op(n, k, p) for p in range(k - 1, k + 2)]
    for argv in ops:
        check_bounded(argv)
    return ops


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)
