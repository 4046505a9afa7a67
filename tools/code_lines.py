"""Count the code lines of the gedkit package, one count per module and a total.

A code line is a line of source that is not blank, not a comment-only line
and not part of a module, class or function docstring. Run from the
repository root:

    python3 tools/code_lines.py [package directory]

The directory defaults to src/gedkit.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skipped)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/gedkit")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
