"""Code line count of the package, run by hand: ``python tests/code_lines.py``.

Prints the code lines of each module of ``src/lisenum`` and their total.
A code line is a line that is not blank, not only a comment and not part
of a docstring (the string that opens a module, class or function body).
Pytest collects only ``test_*.py``, so tier-1 does not run this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lisenum"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main() -> int:
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for module, count in counts.items():
        print(f"{module:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
