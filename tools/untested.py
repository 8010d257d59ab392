#!/usr/bin/env python3
"""Untested statements: which statements of the package does the tier-1 suite never run?

The tier-1 suite runs in this process under ``sys.settrace`` and
``threading.settrace``, and the trace records the lines executed in frames
whose code comes from ``src/spinclone/*.py``.  Every statement of those
modules that ran on none of its own lines is listed as ``path:line: text``.
A simple statement's own lines are all its lines; a compound statement's
(``if``, ``for``, ``while``, ``with``, ``try``) are its header, up to the
line before its body.  Definitions, classes, imports and docstrings are not
listed: they run when the module is imported, or run no code.

Tests that run the package in a child process (``python -m spinclone``, the
demos) are not traced; the process entry points ``cli.entry`` and
``__main__`` count as run because one test also runs them in process.

    python tools/untested.py

Exit status: 0 if every statement ran, 1 if any is listed, 2 if the suite
itself fails.  Under the trace the suite takes about 1.6 times as long
(30 s against 18 s on two CPUs), so the tool is not part of the tier-1 suite; ``tests/test_untested.py`` tests
the listing on an in-memory module.  Standard library only, besides the
pytest that runs the suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "spinclone"

#: Statements that are not listed: their bodies are, statement by statement
_UNLISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose execution counts as running ``stmt``."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def unexecuted(source: str, executed: set[int]) -> list[tuple[int, str]]:
    """(line, first line of text) of each listed statement of ``source`` that did not run.

    ``executed`` holds the line numbers that ran; the result is in line order.
    """
    lines = source.splitlines()
    missed = {
        (node.lineno, lines[node.lineno - 1].strip())
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and not isinstance(node, _UNLISTED)
        # a constant expression statement, such as a docstring, compiles to nothing
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        and executed.isdisjoint(_own_lines(node))
    }
    return sorted(missed)


def line_tracer(prefix: str):
    """A trace function that records executed lines of files under ``prefix``, and its record.

    The record maps each file name to the set of its executed line numbers.
    """
    executed = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return trace, executed


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # The suite's child processes import the package from this tree, as in tier-1
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    trace, executed = line_tracer(str(PACKAGE) + os.sep)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"the tier-1 suite failed (pytest exit {int(status)})", file=sys.stderr)
        return 2
    listed = [f"{path.relative_to(ROOT)}:{number}: {text}"
              for path in sorted(PACKAGE.glob("*.py"))
              for number, text in unexecuted(path.read_text(), executed[str(path)])]
    print("\n".join(listed))
    print(f"{len(listed)} statements of src/spinclone never ran under the tier-1 suite")
    return 1 if listed else 0


if __name__ == "__main__":
    raise SystemExit(main())
