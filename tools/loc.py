"""Line counts of the stjac modules by kind: code, docstring, comment, blank.

    python tools/loc.py              # every module of src/stjac, then the total
    python tools/loc.py path/to/pkg  # the .py files of another directory

Each line is counted once, in this order: a blank line (only whitespace)
is blank; a line inside the docstring of a module, class or function, as
``ast`` finds them, is docstring; a line whose first non-blank character
is ``#`` is comment, also inside a string; every other line is code.
These are the counts that ROADMAP.md and the BENCH files report for
``src/stjac``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src" / "stjac"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (1-based) that a docstring spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of source by kind (see the module docstring)."""
    docstrings = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if not text:
            counts["blank"] += 1
        elif number in docstrings:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def table(directory: Path) -> list[tuple[str, dict[str, int]]]:
    """(name, counts) for each .py file of directory, by name, then ("total", sums)."""
    rows = [(path.name, count(path.read_text())) for path in sorted(directory.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    return rows + [("total", total)]


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else SRC
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for name, counts in table(directory):
        values = [counts[kind] for kind in KINDS]
        print(f"{name:<16}" + "".join(f"{v:>10}" for v in (*values, sum(values))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
