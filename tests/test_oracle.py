"""The cloner against tests/oracle.py, whose references come from the measurement alone."""

import ast
from pathlib import Path

import numpy as np
import pytest

from spinclone import (
    beta_max,
    build_geometry,
    clone_pure,
    clone_unitary,
    geometry_from_angles,
    naimark_basis,
    spin_eigenstates,
)

import oracle
from conftest import random_geometry, random_unit_vector

RANK_ONE_TOL = 1e-13
F_A_TOL = 1e-12


def oracle_geometries(rng):
    """Random frames, then p = 0 and p = 1 and the (anti)parallel corners, canonical and not."""
    yield from (random_geometry(rng) for _ in range(30))
    for alpha in (0.0, 0.4, 1.0):
        for eta in (0.0, np.pi):
            yield geometry_from_angles(alpha, beta_max(alpha, eta), eta)
        a = random_unit_vector(rng)
        yield from (build_geometry(a, a, alpha, 1.0), build_geometry(a, -a, alpha, 1.0))


@pytest.fixture
def geometries(rng):
    found = list(oracle_geometries(rng))
    assert {0.0, 1.0} <= {g.p for g in found}
    return found


def clone_isometry(g):
    """K read off the clone path: its columns are the clones of |0> and |1>."""
    return np.column_stack([clone_pure(g, e).joint for e in np.eye(2)])


def test_oracle_shares_no_code_with_the_cloner():
    path = Path(oracle.__file__)
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not {m for m in modules if m.startswith(("spinclone.cloner", "spinclone.fidelity"))}
    assert "spinclone" not in modules


def test_octahedron_average_is_exact():
    # A 2-design's average does not change under a rotation of its states:
    # F_a of (R^dag (x) 1) K R is F_a of K at the rotated states
    rng = np.random.default_rng(3)
    for _ in range(20):
        raw = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        k = np.linalg.qr(raw)[0]
        r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        rotated = np.kron(r.conj().T, np.eye(2)) @ k @ r
        assert oracle.f_a(rotated) == pytest.approx(oracle.f_a(k), abs=1e-14)
    # Output 1 a copy of the input, and output 1 a fixed state
    copy = np.kron(np.eye(2), [[1.0], [0.0]])
    fixed = np.kron([[1.0], [0.0]], np.eye(2))
    assert oracle.f_a(copy) == pytest.approx(1.0, abs=1e-15)
    assert oracle.f_a(fixed) == pytest.approx(0.5, abs=1e-15)


def test_clone_isometry_realises_the_povm(geometries):
    residuals = [oracle.rank_one_residual(g, oracle.clone_rows(g, clone_isometry(g)))
                 for g in geometries]
    assert max(residuals) <= RANK_ONE_TOL


def test_unitary_and_dilation_realise_the_povm(geometries):
    for g in geometries:
        b_plus = spin_eigenstates(g.b)[0]
        k = clone_unitary(g).reshape(4, 2, 2) @ b_plus
        assert oracle.rank_one_residual(g, oracle.clone_rows(g, k)) <= RANK_ONE_TOL
        rows = oracle.dilation_rows(g, naimark_basis(g).vectors)
        assert oracle.rank_one_residual(g, rows) <= RANK_ONE_TOL


def test_package_phases_maximise_f_a(geometries):
    gains = [oracle.f_a_gain(g, clone_isometry(g)) for g in geometries]
    assert max(gains) <= F_A_TOL


@pytest.mark.parametrize("theta", [[np.pi, 0.0, 0.0], [0.0, np.pi, 0.0], [0.0, 0.0, np.pi]])
def test_torus_search_finds_a_flipped_outcome_sign(rng, theta):
    # The oracle has teeth: flipping one outcome's sign keeps the statistics
    # and loses F_a, which the search recovers
    g = random_geometry(rng)
    k = clone_isometry(g)
    flipped = oracle.torus_point(g, k, theta)
    assert oracle.rank_one_residual(g, oracle.clone_rows(g, flipped)) <= RANK_ONE_TOL
    assert oracle.f_a_gain(g, flipped) == pytest.approx(oracle.f_a(k) - oracle.f_a(flipped),
                                                        abs=1e-12)
    assert oracle.f_a(k) - oracle.f_a(flipped) > 1e-3
