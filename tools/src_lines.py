"""Count the lines of each module of a Python package: all of them, and the code alone.

Run from the root of a checkout::

    python3 tools/src_lines.py [DIR]

``DIR`` defaults to ``src/tkmeans``.  For each ``*.py`` file of ``DIR``
(not recursive) it prints the total number of lines and the code-only
lines, which leave out blank lines, comment lines and the lines of
docstrings (the string that opens a module, class or function body), then
the sums over all files.  A line that holds code and a trailing comment
counts as code, and so does a string that is not a docstring.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring of a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "tkmeans")
    args = parser.parse_args(argv)
    files = sorted(args.dir.glob("*.py"))
    if not files:
        parser.error(f"no *.py files in {args.dir}")
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    sums = [0, 0]
    for path in files:
        total, code = count(path.read_text(encoding="utf-8"))
        sums = [sums[0] + total, sums[1] + code]
        print(f"{path.name:<16}{total:>7}{code:>7}")
    print(f"{'all':<16}{sums[0]:>7}{sums[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
