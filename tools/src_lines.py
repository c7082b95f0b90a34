"""Count the lines of the package source: in all, and code only.

    python3 tools/src_lines.py

Prints ``total <n>`` and ``code_only <n>`` for the ``*.py`` files of
``src/genfilter``, then one ``<file> <code_only>`` line per file.  A
code-only line is a physical line that is not blank, not a comment line and
not inside a docstring (the first string statement of a module, class or
function), found with the `ast` module: the rule the
``src_genfilter_lines`` entries of the ``BENCH_<n>.json`` files state.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by each docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code_only)`` lines of one source file."""
    text = path.read_text()
    docs = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = [line for n, line in enumerate(lines, start=1)
            if line.strip() and not line.lstrip().startswith("#") and n not in docs]
    return len(lines), len(code)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "src" / "genfilter"
    paths = sorted(root.glob("*.py"))
    counts = [count(p) for p in paths]
    print(f"total {sum(t for t, _ in counts)}")
    print(f"code_only {sum(c for _, c in counts)}")
    for path, (_, code) in zip(paths, counts):
        print(f"{path.name} {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
