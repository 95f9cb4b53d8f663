#!/usr/bin/env python3
"""Count code lines of Python sources: no blank lines, no comment-only lines, no docstrings.

Run from the repository root:

    python3 bench/loc.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for them
(default: ``src/ncmink``).  The script prints one ``count  path`` line per
hand-written file, sorted by path, and a ``count  total`` line.  A
script-generated module, whose first line is a comment that starts with
``# Code generated`` and ends with ``DO NOT EDIT.``, is listed apart, after
that total, as ``count  path  (generated)`` lines and a last
``count  generated total`` line, so the growth of generated code does not
hide in the hand-written total.

A line counts when a token other than a comment, an indent or a line end
starts or continues on it, unless it belongs to a docstring: the string
that is the first statement of a module, class or function.  A multi-line
statement counts every line it spans, and a line with code and a trailing
comment counts once.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

# the first-line marker of a script-generated source
_GENERATED = re.compile(r"# Code generated .* DO NOT EDIT\.")


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in one Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/ncmink"])
    args = parser.parse_args(argv)
    written, generated = [], []
    for path in _sources(args.paths):
        source = path.read_text(encoding="utf-8")
        marked = _GENERATED.fullmatch(source.partition("\n")[0])
        (generated if marked else written).append((code_lines(source), path))
    for count, path in written:
        print(f"{count:6d}  {path}")
    print(f"{sum(count for count, _ in written):6d}  total")
    for count, path in generated:
        print(f"{count:6d}  {path}  (generated)")
    if generated:
        print(f"{sum(count for count, _ in generated):6d}  generated total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
