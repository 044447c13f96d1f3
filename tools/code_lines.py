"""Count the code-only lines of Python modules.

A line counts when a token other than a comment starts on it or spans
it, and it is not part of a docstring (the first statement of a module,
class or function when that statement is a string).  Blank lines,
comment lines and docstrings are left out.  Standard library only.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory whose *.py files are counted
(not recursively); the default is src/signsum.  Prints one
"<count> <file>" line per module and then "<total> total".  A PATH that
does not exist (an option such as --help is read as one) gets a one-line
usage message on stderr and exit code 2.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of code-only lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path("src/signsum")]
    files = []
    for path in paths:
        if not path.exists():
            print(f"usage: code_lines.py [PATH ...] (no such path: {path})", file=sys.stderr)
            return 2
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
