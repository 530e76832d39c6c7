#!/usr/bin/env python3
"""Count the code lines of the anderloc package.

A code line is a physical line that holds part of a token other than a
comment, a line break or indentation, once docstrings are set aside: a
blank line, a comment line and every line of a docstring (the string
statement that opens a module, class or function body) do not count.  A
line of a multi-line string that is not a docstring counts, and so does
each line of a statement split over several lines.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/anderloc)

Prints one line per module, ``<lines>  <file>``, sorted by file name,
then ``<total>  total``.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by every docstring in the module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "anderloc")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
