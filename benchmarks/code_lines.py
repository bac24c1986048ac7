#!/usr/bin/env python3
"""Count the code lines of Python modules.

    python benchmarks/code_lines.py [PATH ...]

A code line is a line that holds a token other than a comment and lies
outside every docstring (the string that opens a module, class or function
body).  Blank lines, comment lines and docstrings do not count; a statement
spread over several lines counts each of them.  Each PATH is a module or a
directory, whose `*.py` files are counted recursively; the default is
`src/isolab`, resolved from the repository root.  Prints the code lines
of each module, one row per module, then their total.
"""

import argparse
import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(text):
    """The line numbers of the code lines of the module source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(ast.parse(text))


def code_lines(text):
    """The number of code lines of the module source `text`."""
    return len(code_line_numbers(text))


def modules(paths):
    """The `*.py` files under each path, in sorted order per path."""
    for path in paths:
        path = pathlib.Path(path)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=[str(ROOT / "src" / "isolab")])
    args = parser.parse_args(argv)
    rows = [(str(path), code_lines(path.read_text()))
            for path in modules(args.paths)]
    width = max([len(name) for name, _ in rows] + [len("total")])
    for name, code in rows:
        print(f"{name:<{width}}  {code:>6}")
    print(f"{'total':<{width}}  {sum(code for _, code in rows):>6}")


if __name__ == "__main__":
    main()
