#!/usr/bin/env python3
"""List the code lines of `src/isolab` that a pytest run never executes.

    python benchmarks/line_hits.py [PYTEST ARGS ...]

Runs pytest in this process (`pytest.main`, with the given arguments) under
a `sys.settrace` recorder that follows only frames whose code lies in
`src/isolab`, then prints, module by module, the code lines that never ran
and their number, and the total.  A code line is what `code_lines.py`
counts: a line that is not blank, a comment or a docstring.  A line counts
as run when any line of its statement ran: the line events of a statement
spread over several lines, of a compound statement's header and of a clause
keyword (`else:`, `finally:`, whose clause runs when its first statement
does) fall on some of its lines only.

Tests that run a child process (the CLI subprocess tests and
`compare_reports.py`) are not seen: the recorder traces this process only.
isolab must not be imported before the recorder starts, or its module-level
lines read as never run.  On a 2-core host the tier-1 suite takes about
32 s under the recorder, against 20 s without it.
"""

import ast
import pathlib
import sys
import threading

from code_lines import ROOT, code_line_numbers

SRC = ROOT / "src" / "isolab"


def record(root, run):
    """Call `run()` with line events recorded in the frames whose file lies
    under `root`.  Returns {file name: set of line numbers that ran}."""
    prefix = str(pathlib.Path(root).resolve()) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def _start(node):
    """The first line of a statement, its decorators included."""
    return min([node.lineno]
               + [d.lineno for d in getattr(node, "decorator_list", ())])


def statement_owners(tree):
    """{line: first line of the statement unit that runs it}.  A simple
    statement is one unit over all its lines; a compound statement's header
    runs up to its first inner statement; a clause keyword line between two
    inner statements belongs to the statement after it."""
    owner = {}
    for node in ast.walk(tree):  # outer statements first
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        inner = sorted((child for field in ("body", "handlers", "orelse",
                                            "finalbody")
                        for child in getattr(node, field, ())), key=_start)
        last = _start(inner[0]) - 1 if inner else node.end_lineno
        for line in range(_start(node), max(last, node.lineno) + 1):
            owner[line] = _start(node)
        for before, after in zip(inner, inner[1:]):
            for line in range(before.end_lineno + 1, _start(after)):
                owner[line] = _start(after)
    return owner


def missed_lines(path, ran):
    """The code lines of the module at `path` whose statement never ran,
    given the set `ran` of lines with a line event, in order."""
    text = pathlib.Path(path).read_text()
    owner = statement_owners(ast.parse(text))
    units = {owner.get(line, line) for line in ran}
    return sorted(line for line in code_line_numbers(text)
                  if owner.get(line, line) not in units)


def _ranges(lines):
    """"3, 7-9" for the sorted lines [3, 7, 8, 9]."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None):
    import pytest

    args = sys.argv[1:] if argv is None else argv
    status = []
    hits = record(SRC, lambda: status.append(pytest.main(args)))
    total = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        missed = missed_lines(path, hits.get(str(path.resolve()), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}  {len(missed)}  {_ranges(missed)}")
    print(f"total  {total}")
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main())
