"""Count the code lines of Python sources: the size that ROADMAP aim 2 tracks.

A code line is a line that holds a token other than a comment, a blank
or a line break (``NL``, ``NEWLINE``) or an indentation change
(``INDENT``, ``DEDENT``), outside the docstring of the module, a class or
a function.  A token that spans lines, such as a multi-line string, holds
each of them.  Reformatting moves this count; comments and docstrings do
not.

Run ``python tests/code_lines.py [PATH ...]`` from the repository root
(default: ``src/qrepnet``).  A directory counts every ``.py`` file under
it.  The script prints each file's count and the total.  It is a report,
not a gate: it fails only on a file it cannot read or parse.  pytest does
not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT, tokenize.NL,
    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as source:
        text = source.read()
    docstrings = docstring_lines(ast.parse(text, filename=str(path)))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    files = []
    for name in argv or ["src/qrepnet"]:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:7,}  {path}")
    print(f"{total:7,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
