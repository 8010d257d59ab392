"""Source hygiene of the package: no unused imports, no over-long lines, one cache,
no POVM structure in the fidelity module, no array reductions on the clone stream,
and the spin conventions (n.sigma, the eigenstate half angles) written once."""

import ast
import importlib.util
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


def test_kept_machine_has_one_reader_and_one_writer():
    # The machine kept on a geometry is named only inside cloner._kept, and the
    # fidelity stacks build their own machines rather than go through it.
    named = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno, node.name)
                 for node in ast.walk(ast.parse(text, filename=str(path)))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for number, line in enumerate(text.splitlines(), 1):
            if "_clone_machine" in line:
                around = [(last - first, name) for first, last, name in spans
                          if first <= number <= last]
                named.append(f"{path.relative_to(SRC)}:{min(around)[1] if around else None}")
    assert sorted(set(named)) == ["spinclone/cloner.py:_kept"]
    assert "_kept" not in (PACKAGE / "fidelity.py").read_text()


def test_fidelity_reads_no_measurement_axes():
    # The quadrature takes the four outcome branches from the cloner's K and
    # P^dag, so the POVM's axes and outcome order stay in measurement and cloner;
    # the closed forms read only alpha, beta, eta and p.
    path = PACKAGE / "fidelity.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(
        f"{node.lineno}:.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"m", "l", "a", "b"}
    )
    assert reads == []


SCALAR_PATH = {
    "cloner.py": ("clone_pure", "clone_mixed", "_kept", "_machine_table", "_machine",
                  "_dilations", "_build_machines"),
    "measurement.py": ("build_geometry", "sample_outcomes"),
}


@pytest.mark.parametrize("module", sorted(SCALAR_PATH))
def test_clone_stream_calls_no_array_reductions(module):
    # The clone stream runs on scalar closed forms: its functions reach for no
    # LAPACK routine, einsum or clip on arrays of two to sixteen entries.
    path = PACKAGE / module
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = enclosing_functions(tree)
    calls = sorted(
        f"{owner[node]}:{ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and owner[node] in SCALAR_PATH[module]
        and ast.unparse(node.func).startswith(("np.linalg.", "np.einsum", "np.clip"))
    )
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert set(SCALAR_PATH[module]) <= functions
    assert calls == []


def test_only_linalg_names_the_pauli_matrices():
    # n.sigma is formed by linalg._pauli alone; other modules call it rather
    # than combine the matrices themselves.
    pauli = {"SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULI"}
    named = []
    for path in MODULES:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        names = set(imported_names(tree))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named += [f"{path.name}:{name}" for name in sorted(names & pauli)]
    assert named == []


def is_halved(node):
    """Whether an expression reads x / 2, x * 0.5 or 0.5 * x."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Div):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    return isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.Constant) and side.value == 0.5 for side in (node.left, node.right))


def test_cloner_takes_half_angles_only_in_its_inplane_pair():
    # Every cos/sin of a half angle in the package, scalar or numpy, the cloner's
    # real x-z plane pairs, the eigenstates of any axis and the quadrature nodes
    # alike, is linalg._inplane_pair's.
    owners = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = enclosing_functions(tree)
        owners |= {
            f"{path.name}:{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("math.cos", "math.sin", "np.cos", "np.sin")
            and any(is_halved(arg) for arg in node.args)
        }
    assert sorted(owners) == ["linalg.py:_inplane_pair"]


def test_mutation_catalogue_applies_to_the_source():
    # tools/mutate.py applies each mutant by text; an entry whose old text no
    # longer occurs exactly once in src/ would go stale without notice.
    path = SRC.parent / "tools" / "mutate.py"
    spec = importlib.util.spec_from_file_location("mutate", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    names = [name for name, *_ in probe.CATALOGUE]
    assert len(names) == len(set(names))
    for name, module, old, new in probe.CATALOGUE:
        assert old != new, name
        assert sources[module].count(old) == 1, name
        assert sum(text.count(old) for text in sources.values()) == 1, name
