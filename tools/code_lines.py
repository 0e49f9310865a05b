"""Code lines per module of a Python package, and their total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER (a token spanning several lines covers each
of them), and lies outside the docstrings of the module, its classes and
its functions.  Blank lines, comment-only lines and docstrings do not
count.

    python tools/code_lines.py [package directory, default src/bjjsim]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the docstrings of the module and of every class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/bjjsim")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24s} {count:6d}")
    print(f"{'total':24s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
