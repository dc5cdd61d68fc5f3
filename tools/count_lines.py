"""Count the lines of each simplexgeo module: all of them, and the code lines.

Usage, from the root of a source checkout:

    python3 tools/count_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/simplexgeo`` next to this script's parent.  A code
line holds at least one token that is not a comment, and is not part of a
docstring (the string that opens a module, class or function body, found
by ``ast``).  Blank lines hold no such token, so they do not count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code of their own.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "simplexgeo"
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
