"""The listing function of tools/untested.py, on an in-memory module (no pytest run, no trace)."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "untested.py"
_spec = importlib.util.spec_from_file_location("untested", PATH)
untested = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(untested)

SOURCE = '''"""A module docstring."""
import math
from os import path


class Box:
    """A class docstring."""

    def size(self, x):
        """A method docstring."""
        if x < 0:
            raise ValueError(
                f"negative: {x}")
        for item in range(x):
            total = math.fsum([item,
                               x])
        try:
            return total
        except NameError:
            return 0


def entry():
    raise SystemExit(Box().size(1))
'''


def test_every_statement_is_listed_when_nothing_ran():
    listed = untested.unexecuted(SOURCE, set())
    assert [number for number, _ in listed] == [11, 12, 14, 15, 17, 18, 20, 24]
    assert listed[1] == (12, "raise ValueError(")


def test_definitions_imports_and_docstrings_are_never_listed():
    texts = [text for _, text in untested.unexecuted(SOURCE, set())]
    assert not any(text.startswith(("import", "from", "class", "def", '"""')) for text in texts)


def test_a_compound_statement_runs_on_its_header_and_a_simple_one_on_any_line():
    # size(1): the guard is false, the loop runs once, the try returns
    ran = {11, 14, 16, 17, 18}
    assert untested.unexecuted(SOURCE, ran) == [
        (12, "raise ValueError("),
        (20, "return 0"),
        (24, "raise SystemExit(Box().size(1))"),
    ]
    # a header line alone does not count for the body, nor the body's for its header
    assert [n for n, _ in untested.unexecuted(SOURCE, {12, 13})] == [11, 14, 15, 17, 18, 20, 24]


def test_line_tracer_keeps_only_frames_under_its_prefix():
    trace, executed = untested.line_tracer("/pkg/")

    class Code:
        co_filename = "/pkg/mod.py"

    class Frame:
        f_code, f_lineno = Code, 7

    local = trace(Frame, "call", None)
    assert local(Frame, "line", None) is local
    assert executed == {"/pkg/mod.py": {7}}
    Code.co_filename = "/elsewhere/mod.py"
    assert trace(Frame, "call", None) is None
