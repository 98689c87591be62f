"""Print the lines and the code lines of each module under ``src/provpurpose``.

A code line is a line that holds a token other than a comment and that lies
outside every docstring: blank lines, comment lines and the lines of module,
class and function docstrings are not code. Run from anywhere::

    python tools/loc.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "provpurpose"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """The source's lines and code lines."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main() -> int:
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
