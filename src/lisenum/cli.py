"""Command line interface.

Subcommands: count, table, enumerate, verify.  Exit codes are stable
for CI use: 0 success, 1 verification failure, 2 usage or domain error,
or running out of memory.
``enumerate`` takes the text of each block of the lazy walk from
``oracle.lines`` and writes it in chunks of exactly ``ENUMERATE_CHUNK``
lines, one string each; only the last chunk may be shorter.  Every line
at size n has the same length, so a chunk is a fixed number of
characters, and the text is cut there, not line by line.
Brute force is refused with ``pipeline.over_budget``'s reason.
"""

from __future__ import annotations

import argparse
import sys

from . import exact, oracle, pipeline
from .identities import GridSpec

# lines per write of enumerate.  About 10-15 kB at n = 11..12, so the
# first line leaves about as early as it did through print's 8 kB buffer;
# larger chunks delay it without making the listing faster.  Blocks are
# packed into chunks, not written one by one: at (12, 6) they average 11
# lines, and each write is one system call when stdout is unbuffered.
# enumerate holds at most one chunk and one block (k! lines) at once.
ENUMERATE_CHUNK = 512


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisenum",
        description=(
            "Exact counting and verification for permutations of 1..n whose "
            "first n-k entries increase and whose longest increasing "
            "subsequence has length at most n-k."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print the exact class size")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument(
        "--method", choices=pipeline.COUNT_METHODS, default="formula",
        help="counting route (default: formula)",
    )

    p_table = sub.add_parser("table", help="component table over a range of n")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--n-from", type=int, required=True)
    p_table.add_argument("--n-to", type=int, required=True)
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")

    p_enum = sub.add_parser("enumerate", help="list class members one per line")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument("--prefix", type=int, default=None, help="restrict to first entry")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=pipeline.SUITES, default="all")
    p_verify.add_argument("--k-max", type=int, default=None,
                          help=f"default {GridSpec().k[1]}")
    p_verify.add_argument("--n-max", type=int, default=None,
                          help=f"default {GridSpec().n[1]}")
    p_verify.add_argument("--budget", type=int, default=pipeline.DEFAULT_BUDGET,
                          help="cap on brute-force candidates per cell")
    p_verify.add_argument("--out", type=str, default=None,
                          help="write the JSON report here")
    p_verify.add_argument("--grid", type=str, default=None,
                          help="JSON file with explicit parameter ranges")
    return parser


def _check_oracle_budget(n: int, k: int) -> None:
    """Refuse brute force beyond the default candidate budget, before any output."""
    exact.check_size(n, k)
    if why := pipeline.over_budget(n, k, pipeline.DEFAULT_BUDGET):
        raise ValueError(f"brute force at n={n}, k={k}: {why}")


def _cmd_count(args) -> int:
    if args.method == "oracle":
        _check_oracle_budget(args.n, args.k)
    print(pipeline.count(args.n, args.k, args.method))
    return 0


def _cmd_table(args) -> int:
    table = pipeline.component_table(args.k, args.n_from, args.n_to)
    print(table.render(args.format))
    return 0


def _cmd_enumerate(args) -> int:
    _check_oracle_budget(args.n, args.k)
    blocks, write = oracle.lines(args.n, args.k, args.prefix), sys.stdout.write
    # a chunk's length in characters: every line at size n spells 1..n
    size = ENUMERATE_CHUNK * (len(oracle.format_perm(range(1, args.n + 1))) + 1)
    held, length = [], 0
    for text in blocks:
        held.append(text)
        length += len(text)
        while length >= size:
            # the last block's first characters complete the chunk
            cut = len(text) - (length - size)
            held[-1] = text[:cut]
            write("".join(held))
            text = text[cut:]
            held, length = [text], len(text)
    if length:
        write("".join(held))
    return 0


def _cmd_verify(args) -> int:
    import json
    grid = None
    if args.grid is not None:
        with open(args.grid, "r", encoding="utf-8") as handle:
            grid = GridSpec.from_dict(json.load(handle))
    report = pipeline.run_suite(
        args.suite, k_max=args.k_max, n_max=args.n_max, budget=args.budget, grid=grid
    )
    # written after the summary, which then leaves first, and also when
    # printing it fails on a closed pipe
    try:
        print(report.summary())
    finally:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                report.write_json(handle)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "table": _cmd_table,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ArithmeticError, OSError, pipeline.ConjectureViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
