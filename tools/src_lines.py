#!/usr/bin/env python3
"""Count the lines of each module under src/rdbridge.

Prints, per module and in total, all lines and code lines.  Code lines
leave out blank lines, lines holding only a comment, and the lines of
docstrings (the string that opens a module, class or function body).

    python3 tools/src_lines.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rdbridge"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    total = len(source.splitlines())
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return total, len(code - docstring_lines(ast.parse(source)))


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
