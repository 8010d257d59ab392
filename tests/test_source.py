"""Source hygiene of the package: no unused imports, no over-long lines, one cache."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "spinclone"
MAX_COLUMNS = 100
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Names bound by the module's imports, other than __future__ features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_no_source_line_exceeds_the_column_limit():
    long_lines = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def enclosing_functions(tree):
    """Map each node to the name of the innermost function around it (None at module level)."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if is_function else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_frozen_geometry_is_written_only_by_kept():
    # Every map kept on a frozen geometry goes through cloner._kept, the one
    # place that writes past the dataclass with object.__setattr__.
    writers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = enclosing_functions(tree)
        writers += [
            f"{path.relative_to(SRC)}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        ]
    assert writers == ["spinclone/cloner.py:_kept"]
