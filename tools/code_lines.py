"""Count the code lines of Python sources.

A code line is a line that is not blank, not only a comment and not part of
a docstring (the string that opens a module, class or function body). A
directory counts every ``.py`` file under it.

Usage: python tools/code_lines.py PATH [PATH ...]

Prints one ``count path`` line per path, then the total when given more than one.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def path_lines(path: Path) -> int:
    """The code lines of a file, or of every .py file under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    counts = [(path_lines(Path(p)), p) for p in argv]
    for count, p in counts:
        print(count, p)
    if len(counts) > 1:
        print(sum(c for c, _ in counts), "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
