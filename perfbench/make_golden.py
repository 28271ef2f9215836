"""Record the golden output of every op whose stdout the closed form cannot fix.

Usage, from the root of a checkout whose ``src/`` is the reference::

    python3 perfbench/make_golden.py

Writes ``perfbench/golden.json``: for each op in
``workloads.golden_space()``, its exit code, the sha256 of its stdout
and, for ``verify``, the sha256 of the report's ``checks`` array.
"""

from __future__ import annotations

import json
import sys

import runner
import workloads


def main() -> int:
    env = runner.child_env()
    goldens = {}
    for argv in workloads.golden_space():
        result = runner.run_op(argv, env)
        if result.exit_code != 0:
            print(f"error: {' '.join(argv)} exited with {result.exit_code}", file=sys.stderr)
            return 1
        goldens[workloads.golden_key(argv)] = runner.golden_record(result)
        print(f"{result.wall_s:7.3f} s  {' '.join(argv)}", flush=True)
    runner.GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
