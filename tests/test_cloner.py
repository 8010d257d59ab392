import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinclone.cloner as cloner_module
from spinclone import (
    CloneOutput,
    OrthonormalityFailure,
    beta_max,
    bloch_from_density,
    build_geometry,
    build_povm,
    clone_mixed,
    clone_pure,
    clone_unitary,
    geometry_from_angles,
    joint_distribution,
    measure_and_prepare,
    naimark_basis,
    partial_trace,
    spin_eigenstates,
    tensor,
)
from spinclone.cloner import product_basis
from spinclone.fidelity import fidelity_reports
from spinclone.linalg import as_density

from conftest import random_density, random_geometry, random_pure_state, random_unit_vector

A_HAT = np.array([0.0, 0.0, 1.0])
B_HAT = np.array([1.0, 0.0, 0.0])


def sharp_geometry():
    return build_geometry(A_HAT, A_HAT, 1.0, 1.0)


def derived_geometry():
    return build_geometry(A_HAT, B_HAT, 0.6, 0.8)


def gram_residual(vectors):
    gram = np.array([[np.vdot(v, w) for w in vectors] for v in vectors])
    return np.max(np.abs(gram - np.eye(len(vectors))))


def rodrigues(axis, angle):
    """Rotation by angle about the unit axis, and its SU(2) lift exp(-i angle axis.sigma/2)."""
    kx, ky, kz = axis
    cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    rot = np.eye(3) + np.sin(angle) * cross + (1 - np.cos(angle)) * cross @ cross
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    lift = np.array([[c - 1j * s * kz, -1j * s * (kx - 1j * ky)],
                     [-1j * s * (kx + 1j * ky), c + 1j * s * kz]])
    return rot, lift


def random_rotation(rng):
    axis = rng.normal(size=3)
    return rodrigues(axis / np.linalg.norm(axis), rng.uniform(0.0, 2 * np.pi))


def test_naimark_basis_projective_limit():
    g = sharp_geometry()
    basis = naimark_basis(g)
    a_plus, a_minus = spin_eigenstates(g.a)
    b_plus, b_minus = spin_eigenstates(g.b)
    assert np.allclose(basis.pp, np.kron(a_plus, b_plus), atol=1e-12)
    assert np.allclose(basis.mm, np.kron(a_minus, b_plus), atol=1e-12)
    # the mixed-outcome vectors live entirely in the ancilla-down sector
    for vec in (basis.pm, basis.mp):
        for a_state in (a_plus, a_minus):
            assert abs(np.vdot(np.kron(a_state, b_plus), vec)) < 1e-12


def test_naimark_basis_orthonormal_derived():
    assert gram_residual(naimark_basis(derived_geometry()).vectors) < 1e-12


def test_naimark_basis_born_consistency(rng):
    g = derived_geometry()
    basis = naimark_basis(g)
    povm = build_povm(g)
    blank = spin_eigenstates(g.b)[0]
    for _ in range(100):
        psi = random_pure_state(rng)
        full = tensor(psi, blank)
        for vec, element in zip(basis.vectors, povm.elements):
            overlap = abs(np.vdot(vec, full)) ** 2
            born = np.vdot(psi, element @ psi).real
            assert abs(overlap - born) < 1e-10


def test_naimark_basis_orthonormal_random_frames(rng):
    for _ in range(300):
        assert gram_residual(naimark_basis(random_geometry(rng)).vectors) < 1e-12


def test_naimark_basis_detects_broken_convention(monkeypatch):
    # Corrupting the in-plane eigenstate convention must trip the loud
    # constructor failure rather than return a bad basis.
    original = cloner_module._inplane_pair

    def corrupted(t):
        plus, minus = original(t)
        return plus, tuple(-x for x in minus)

    monkeypatch.setattr(cloner_module, "_inplane_pair", corrupted)
    with pytest.raises(OrthonormalityFailure):
        naimark_basis(derived_geometry())


def test_clone_unitary_detects_broken_convention(monkeypatch):
    # clone_unitary runs its own Gram check; it does not build the
    # rephased basis of naimark_basis.
    original = cloner_module._inplane_pair

    def corrupted(t):
        plus, minus = original(t)
        return plus, tuple(-x for x in minus)

    def unused(g):
        raise AssertionError("clone_unitary must not call naimark_basis")

    monkeypatch.setattr(cloner_module, "_inplane_pair", corrupted)
    monkeypatch.setattr(cloner_module, "naimark_basis", unused)
    with pytest.raises(OrthonormalityFailure):
        clone_unitary(derived_geometry())


def test_clone_unitary_matches_signed_product_reference():
    # U = sum_i s_i |prod_i><vec_i| from the rephased basis, over the
    # default sweep grid including alpha in {0, 1} and eta in {0, pi}.
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 41):
        for eta in np.linspace(0.0, np.pi, 41):
            g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
            reference = sum(
                sign * np.outer(prod, vec.conj())
                for sign, prod, vec in zip((1, 1, -1, -1), product_basis(g),
                                           naimark_basis(g).vectors)
            )
            worst = max(worst, np.max(np.abs(clone_unitary(g) - reference)))
    assert worst <= 1e-14


def test_clone_unitary_is_unitary(rng):
    for _ in range(300):
        u = clone_unitary(random_geometry(rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_clone_unitary_projective_action(rng):
    g = sharp_geometry()
    u = clone_unitary(g)
    a_plus, a_minus = spin_eigenstates(g.a)
    b_plus, b_minus = spin_eigenstates(g.b)
    for _ in range(20):
        psi = random_pure_state(rng)
        c_plus, c_minus = np.vdot(a_plus, psi), np.vdot(a_minus, psi)
        out = u @ tensor(psi, b_plus)
        expected = c_plus * np.kron(a_plus, b_plus) - c_minus * np.kron(a_minus, b_minus)
        assert np.linalg.norm(out - expected) < 1e-12


def test_clone_unitary_maps_basis_to_signed_products(rng):
    for _ in range(50):
        g = random_geometry(rng)
        u = clone_unitary(g)
        basis = naimark_basis(g)
        products = product_basis(g)
        for sign, vec, prod in zip((1, 1, -1, -1), basis.vectors, products):
            assert np.linalg.norm(u @ vec - sign * prod) < 1e-12


def test_clone_pure_projective_limit():
    g = sharp_geometry()
    out = clone_pure(g, spin_eigenstates(g.m)[0])
    assert out.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_clone_pure_derived_distribution():
    g = derived_geometry()
    out = clone_pure(g, spin_eigenstates(g.a)[0])
    assert np.allclose(out.probabilities, [0.4, 0.4, 0.1, 0.1], atol=1e-12)
    assert np.allclose(np.abs(out.lambdas) ** 2, out.probabilities, atol=1e-15)


def test_clone_pure_axis_transfer(rng):
    from spinclone import bloch_from_density

    for _ in range(300):
        g = random_geometry(rng)
        psi = random_pure_state(rng)
        out = clone_pure(g, psi)
        c_in = bloch_from_density(np.outer(psi, psi.conj()))
        assert abs(g.a @ out.bloch_a - g.alpha * (g.a @ c_in)) < 1e-10
        assert abs(g.b @ out.bloch_b - g.beta * (g.b @ c_in)) < 1e-10


def test_bloch_transfer_orthogonal_components(rng):
    from spinclone import bloch_from_density

    checked = 0
    while checked < 300:
        g = random_geometry(rng)
        if abs(np.sin(g.eta)) < 1e-3:
            continue
        normal = np.cross(g.a, g.b)
        normal /= np.linalg.norm(normal)
        psi = random_pure_state(rng)
        out = clone_pure(g, psi)
        c_in = bloch_from_density(np.outer(psi, psi.conj()))
        assert abs(normal @ out.bloch_a - np.sqrt(1 - g.beta**2) * (normal @ c_in)) < 1e-10
        # the ancilla clone's Bloch vector stays in the plane of the axes
        assert abs(normal @ out.bloch_b) < 1e-10
        checked += 1


def test_clone_mixed_matches_pure(rng):
    g = derived_geometry()
    psi = random_pure_state(rng)
    pure = clone_pure(g, psi)
    mixed = clone_mixed(g, np.outer(psi, psi.conj()))
    assert np.max(np.abs(mixed.joint - np.outer(pure.joint, pure.joint.conj()))) < 1e-12
    assert np.allclose(mixed.probabilities, pure.probabilities, atol=1e-12)


def test_clone_mixed_maximally_mixed_distribution():
    g = derived_geometry()
    out = clone_mixed(g, np.eye(2) / 2)
    expected = [g.p / 2, (1 - g.p) / 2, (1 - g.p) / 2, g.p / 2]
    assert np.allclose(out.probabilities, expected, atol=1e-12)


def test_clone_mixed_preserves_trace(rng):
    for _ in range(100):
        g = random_geometry(rng)
        out = clone_mixed(g, random_density(rng))
        assert np.trace(out.joint).real == pytest.approx(1.0, abs=1e-12)


def test_clone_mixed_is_linear(rng):
    g = derived_geometry()
    rho1, rho2 = random_density(rng), random_density(rng)
    weight = 0.3
    blend = clone_mixed(g, weight * rho1 + (1 - weight) * rho2).joint
    parts = weight * clone_mixed(g, rho1).joint + (1 - weight) * clone_mixed(g, rho2).joint
    assert np.max(np.abs(blend - parts)) < 1e-12


def test_measure_and_prepare_diagonal(rng):
    g = derived_geometry()
    rho12 = measure_and_prepare(g, random_pure_state(rng))
    products = product_basis(g)
    for i, row in enumerate(products):
        for j, col in enumerate(products):
            if i != j:
                assert abs(np.vdot(row, rho12 @ col)) < 1e-14


def test_measure_and_prepare_derived_distribution():
    g = derived_geometry()
    rho12 = measure_and_prepare(g, spin_eigenstates(g.a)[0])
    diag = [np.vdot(prod, rho12 @ prod).real for prod in product_basis(g)]
    assert np.allclose(diag, [0.4, 0.4, 0.1, 0.1], atol=1e-12)


def test_measure_and_prepare_b_transfer(rng):
    from spinclone import bloch_from_density, partial_trace

    for _ in range(100):
        g = random_geometry(rng)
        psi = random_pure_state(rng)
        rho12 = measure_and_prepare(g, psi)
        c_b = bloch_from_density(partial_trace(rho12, keep=2))
        c_in = bloch_from_density(np.outer(psi, psi.conj()))
        assert abs(g.b @ c_b - g.beta * (g.b @ c_in)) < 1e-10


def test_statistics_equivalence(rng):
    # The coherent clone, the measure-and-prepare state and the Born rule
    # must produce the same four-outcome distribution.
    for _ in range(1000):
        g = random_geometry(rng)
        psi = random_pure_state(rng)
        born = joint_distribution(np.outer(psi, psi.conj()), build_povm(g)).as_array()
        coherent = clone_pure(g, psi).probabilities
        prepared = measure_and_prepare(g, psi)
        diag = np.array([np.vdot(p, prepared @ p).real for p in product_basis(g)])
        assert np.max(np.abs(coherent - born)) < 1e-10
        assert np.max(np.abs(diag - born)) < 1e-10


def near_pole_frame(rng, tilt, flip):
    """Frame whose third axis lies tilt rad off +z, or off -z when flip is set."""
    axis = rng.normal(size=3)
    rot = rodrigues(axis / np.linalg.norm(axis), tilt)[0]
    return rot @ np.diag([1.0, -1.0, -1.0]) if flip else rot


# Axes parallel or antiparallel to within 0 or 1e-15..1e-6 rad, in random
# frames and in frames that put a next to a pole, with alpha at the edges
# of [0, 1] as well as inside.
_rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def _powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


_frames = st.one_of(
    _rngs.map(lambda rng: random_rotation(rng)[0]),
    st.builds(near_pole_frame, _rngs, _powers_of_ten(-12.0, -3.0), st.booleans()),
)
_alphas = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k),
    st.floats(0.0, 1.0),
)
_offsets = st.one_of(st.just(0.0), _powers_of_ten(-15.0, -6.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(frame=_frames, alpha=_alphas, offset=_offsets, antiparallel=st.booleans(),
       psi=_rngs.map(random_pure_state))
def test_near_parallel_axes_give_valid_dilation(frame, alpha, offset, antiparallel, psi):
    eta = np.pi - offset if antiparallel else offset
    a = frame[:, 2]
    b = np.sin(eta) * frame[:, 0] + np.cos(eta) * frame[:, 2]
    # The chord formula keeps the angle between near-(anti)parallel axes, which
    # arccos(a . b) rounds to 0 or pi; a NonSaturating here fails the test.
    eta_ab = 2.0 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b))
    g = build_geometry(a, b, alpha, beta_max(alpha, eta_ab))
    assert gram_residual(naimark_basis(g).vectors) <= 1e-12
    u = clone_unitary(g)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    born = joint_distribution(np.outer(psi, psi.conj()), build_povm(g)).as_array()
    assert np.max(np.abs(clone_pure(g, psi).probabilities - born)) <= 1e-10


def test_clone_unitary_rotation_covariance(rng):
    # clone_unitary(R g) = (u x u) clone_unitary(g) (u x u)^dag, with R and
    # its lift u built here, independently of the cloner's frame code.
    checked = 0
    while checked < 200:
        g0 = random_geometry(rng)
        if abs(np.cos(g0.eta)) > 0.999:
            continue
        rot, lift = random_rotation(rng)
        g = build_geometry(rot @ g0.a, rot @ g0.b, g0.alpha, g0.beta)
        w = np.kron(lift, lift)
        expected = w @ clone_unitary(g0) @ w.conj().T
        assert np.max(np.abs(clone_unitary(g) - expected)) <= 1e-13
        checked += 1


_etas = st.one_of(
    st.sampled_from([0.0, np.pi]),
    st.integers(1, 15).map(lambda k: 10.0**-k),
    st.integers(1, 15).map(lambda k: np.pi - 10.0**-k),
    st.floats(0.0, np.pi),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(alpha=_alphas, eta=_etas)
def test_frontier_gives_valid_dilation(alpha, eta):
    g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    assert gram_residual(naimark_basis(g).vectors) <= 1e-12
    u = clone_unitary(g)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def reference_clone(g, psi=None, rho=None):
    """Clone through the 4x4 unitary, kron products and checked partial traces."""
    a_states, b_states = spin_eigenstates(g.a), spin_eigenstates(g.b)
    prods = product_basis(g)
    for (i, j), prod in zip([(0, 0), (0, 1), (1, 0), (1, 1)], prods):
        assert np.array_equal(prod, np.kron(a_states[i], b_states[j]))
    unitary = clone_unitary(g)
    blank = b_states[0]
    if rho is None:
        joint = unitary @ np.kron(psi, blank)
        lambdas = np.array([np.vdot(prod, joint) for prod in prods])
        full, probs = np.outer(joint, joint.conj()), np.abs(lambdas) ** 2
    else:
        joint = unitary @ np.kron(rho, np.outer(blank, blank.conj())) @ unitary.conj().T
        lambdas, full = None, joint
        probs = np.array([np.vdot(prod, joint @ prod).real for prod in prods])
    rho_a, rho_b = partial_trace(full, keep=1), partial_trace(full, keep=2)
    return CloneOutput(joint, rho_a, rho_b, bloch_from_density(rho_a),
                       bloch_from_density(rho_b), probs, lambdas)


def edge_geometries(rng):
    """(Anti)parallel axes to within 0..1e-6 rad, in random and near-pole frames."""
    for alpha in (0.0, 0.5, 1.0 - 1e-8, 1.0):
        for offset in (0.0, 1e-15, 1e-9, 1e-6):
            for antiparallel in (False, True):
                for frame in (random_rotation(rng)[0], near_pole_frame(rng, 1e-9, antiparallel)):
                    eta = np.pi - offset if antiparallel else offset
                    b = np.sin(eta) * frame[:, 0] + np.cos(eta) * frame[:, 2]
                    yield build_geometry(frame[:, 2], b, alpha, beta_max(alpha, eta))


def test_clone_matches_unitary_reference(rng):
    geometries = [random_geometry(rng) for _ in range(250)] + list(edge_geometries(rng))
    for g in geometries:
        psi, rho = random_pure_state(rng), random_density(rng)
        pure, mixed = clone_pure(g, psi), clone_mixed(g, rho)
        for out, ref in ((pure, reference_clone(g, psi=psi)), (mixed, reference_clone(g, rho=rho))):
            for field in dataclasses.fields(CloneOutput):
                got, want = getattr(out, field.name), getattr(ref, field.name)
                if want is None:
                    assert got is None
                else:
                    assert np.max(np.abs(got - want)) <= 1e-13, field.name
            as_density(out.rho_a)
            as_density(out.rho_b)
        as_density(mixed.joint, dim=4)


def _clone_fields_equal(out, ref):
    return all(
        (got is None and want is None) or np.array_equal(got, want)
        for got, want in ((getattr(out, f.name), getattr(ref, f.name))
                          for f in dataclasses.fields(CloneOutput))
    )


def test_clone_builds_the_machine_once_per_geometry(monkeypatch, rng):
    # One machine build per geometry, a stack of that geometry alone; the
    # clone path forms neither the 4x4 unitary nor the list of product states.
    calls = {"clone_unitary": 0, "product_basis": 0}
    builds = []
    build = cloner_module._build_machines

    def counting(name):
        original = getattr(cloner_module, name)

        def counted(g):
            calls[name] += 1
            return original(g)
        return counted

    def counted_build(geometries):
        builds.append(list(geometries))
        return build(geometries)

    for name in calls:
        monkeypatch.setattr(cloner_module, name, counting(name))
    monkeypatch.setattr(cloner_module, "_build_machines", counted_build)
    geometries = [random_geometry(rng), random_geometry(rng)]
    for g in geometries:
        for _ in range(4):
            clone_pure(g, random_pure_state(rng))
        clone_mixed(g, random_density(rng))
        measure_and_prepare(g, random_pure_state(rng))
    assert len(builds) == len(geometries)
    assert all(len(built) == 1 and built[0] is g for built, g in zip(builds, geometries))
    assert calls == {"clone_unitary": 0, "product_basis": 0}


def machine_geometries(rng):
    """Random frames, canonical frames at eta 0, pi and -1e-10 (there chi = pi),
    p = 0 and p = 1, the alpha = 1, eta = pi corner, and axes 1e-12..1e-6 rad
    off (anti)parallel in random frames."""
    yield from (random_geometry(rng) for _ in range(300))
    for alpha in (0.0, 0.3, 1.0 - 1e-9, 1.0):
        for eta in (0.0, np.pi, -1e-10):
            yield geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    for alpha in (0.0, 0.4, 1.0):
        for a in (A_HAT, random_unit_vector(rng)):
            yield from (build_geometry(a, a, alpha, 1.0), build_geometry(a, -a, alpha, 1.0))
    for offset in (1e-12, 1e-9, 1e-6):
        for antiparallel in (False, True):
            for alpha in (0.0, 0.5, 1.0):
                frame = random_rotation(rng)[0]
                eta = np.pi - offset if antiparallel else offset
                b = np.sin(eta) * frame[:, 0] + np.cos(eta) * frame[:, 2]
                yield build_geometry(frame[:, 2], b, alpha, beta_max(alpha, eta))


def test_machine_matches_unitary_and_product_basis(rng):
    # K is read off the factor table with no unitary, so the first reference,
    # U's contraction with |b+>, is a second formula for it; the acceptance
    # tests check K on its own.  The second reference is the product states.
    geometries = list(machine_geometries(rng))
    assert {0.0, 1.0} <= {g.p for g in geometries}
    assert any(g.alpha == 1.0 and g.eta == np.pi for g in geometries)
    for g in geometries:
        k, p_dag = cloner_module._kept(g)
        b_plus = spin_eigenstates(g.b)[0]
        assert k.shape == (4, 2) and p_dag.shape == (4, 4)
        assert np.max(np.abs(k - clone_unitary(g).reshape(4, 2, 2) @ b_plus)) <= 1e-15
        assert np.max(np.abs(p_dag - np.conj(product_basis(g)))) <= 1e-15


def test_stacked_build_equals_single_build(rng):
    # The stack builder gives the K and P^dag a clone keeps, built as a stack
    # of one, bit for bit, whatever the stack.
    geometries = list(machine_geometries(rng))
    singles = [cloner_module._kept(dataclasses.replace(g)) for g in geometries]
    k, p_dag = cloner_module._build_machines(geometries)
    assert k.shape == (len(geometries), 4, 2) and p_dag.shape == (len(geometries), 4, 4)
    for i, (k1, p1) in enumerate(singles):
        np.testing.assert_array_equal(k[i], k1)
        np.testing.assert_array_equal(p_dag[i], p1)
        assert k[i].tobytes() == k1.tobytes() and p_dag[i].tobytes() == p1.tobytes()


def test_fidelity_stack_neither_reads_nor_writes_kept_machines(rng):
    # A stack builds its own machines: the reports equal those of fresh
    # geometries, machines kept by clones stay as they were, and the stack
    # keeps none on the geometries that had none.
    geometries = [random_geometry(rng) for _ in range(30)]
    kept = {}
    for g in geometries[::3]:
        clone_pure(g, random_pure_state(rng))
        kept[id(g)] = cloner_module._kept(g)
    reports = fidelity_reports(geometries)
    fresh = fidelity_reports([dataclasses.replace(g) for g in geometries])
    assert reports == fresh
    for g in geometries:
        if id(g) in kept:
            k, p_dag = kept[id(g)]
            assert cloner_module._kept(g)[0] is k and cloner_module._kept(g)[1] is p_dag
            assert not k.flags.writeable and not p_dag.flags.writeable
        else:
            assert "_clone_machine" not in g.__dict__


def test_failed_stack_build_keeps_nothing(monkeypatch):
    original = cloner_module._inplane_pair

    def corrupted(t):
        plus, minus = original(t)
        return plus, tuple(-x for x in minus)

    geometries = [geometry_from_angles(alpha, beta_max(alpha, 1.0), 1.0)
                  for alpha in np.linspace(0.1, 0.9, 5)]
    monkeypatch.setattr(cloner_module, "_inplane_pair", corrupted)
    with pytest.raises(OrthonormalityFailure):
        fidelity_reports(geometries)
    assert not any("_clone_machine" in g.__dict__ for g in geometries)


def test_warm_clone_equals_cold(rng):
    for _ in range(20):
        g = random_geometry(rng)
        states = [random_pure_state(rng) for _ in range(5)]
        rho = random_density(rng)
        for psi in states[:4]:
            clone_pure(g, psi)
        # dataclasses.replace gives an equal geometry that has built nothing yet
        assert _clone_fields_equal(clone_pure(g, states[4]),
                                   clone_pure(dataclasses.replace(g), states[4]))
        assert _clone_fields_equal(clone_mixed(g, rho), clone_mixed(dataclasses.replace(g), rho))


def test_kept_isometry_and_product_basis_are_read_only(rng):
    g = random_geometry(rng)
    clone_pure(g, random_pure_state(rng))
    k, p_dag = cloner_module._kept(g)
    assert not k.flags.writeable and not p_dag.flags.writeable
    assert cloner_module._kept(g)[0] is k and cloner_module._kept(g)[1] is p_dag
    copy = dataclasses.replace(g)
    assert cloner_module._kept(copy)[0] is not k
    assert cloner_module._kept(copy)[1] is not p_dag
    assert np.array_equal(cloner_module._kept(copy)[0], k)
    assert np.array_equal(cloner_module._kept(copy)[1], p_dag)


def test_failed_build_keeps_nothing(monkeypatch):
    original = cloner_module._inplane_pair

    def corrupted(t):
        plus, minus = original(t)
        return plus, tuple(-x for x in minus)

    g, psi = derived_geometry(), np.array([0.6, 0.8j])
    monkeypatch.setattr(cloner_module, "_inplane_pair", corrupted)
    with pytest.raises(OrthonormalityFailure):
        clone_pure(g, psi)
    monkeypatch.undo()
    assert _clone_fields_equal(clone_pure(g, psi), clone_pure(derived_geometry(), psi))


def test_clone_reductions_match_partial_trace(rng):
    # The reduced states and Bloch vectors are closed forms on the joint's
    # entries; the oracle is the checked 4x4 partial trace of the same joint.
    geometries = [random_geometry(rng) for _ in range(300)]
    for alpha in (0.0, 0.3, 1.0):
        for a in (A_HAT, random_unit_vector(rng)):
            geometries += [build_geometry(a, a, alpha, 1.0), build_geometry(a, -a, alpha, 1.0)]
    assert {0.0, 1.0} <= {g.p for g in geometries}
    for g in geometries:
        pure, mixed = clone_pure(g, random_pure_state(rng)), clone_mixed(g, random_density(rng))
        for out, full in ((pure, np.outer(pure.joint, pure.joint.conj())), (mixed, mixed.joint)):
            for keep, rho, bloch in ((1, out.rho_a, out.bloch_a), (2, out.rho_b, out.bloch_b)):
                want = partial_trace(full, keep=keep)
                assert np.max(np.abs(rho - want)) <= 1e-15
                assert np.max(np.abs(bloch - bloch_from_density(want))) <= 1e-15


@pytest.mark.parametrize("gram,accepted", [(1e-11, True), (1e-9, False)])
def test_orthonormality_guard_threshold(monkeypatch, gram, accepted):
    # ORTHONORMALITY_TOL = 1e-10.  At alpha = beta = 1/sqrt(2), eta = pi/2
    # (p = 1/2), adding eps to the sqrt(1 - p) factor of the first dilation
    # vector grows its squared norm by 2 sqrt(1 - p) eps + eps^2 and moves its
    # overlaps by at most sqrt(p) eps: a Gram residual of sqrt(2) eps + eps^2.
    original = cloner_module._machine_table
    eps = gram / np.sqrt(2.0)

    def perturbed(g):
        reals, complexes = original(g)
        reals[1] += eps
        return reals, complexes

    alpha = np.sqrt(0.5)
    g = geometry_from_angles(alpha, beta_max(alpha, np.pi / 2), np.pi / 2)
    assert g.p == pytest.approx(0.5, abs=1e-15)
    monkeypatch.setattr(cloner_module, "_machine_table", perturbed)
    psi = np.array([0.6, 0.8j])
    if accepted:
        clone_pure(g, psi)
        assert "_clone_machine" in g.__dict__
    else:
        with pytest.raises(OrthonormalityFailure) as excinfo:
            clone_pure(g, psi)
        residual = float(re.search(r"Gram residual (\S+) exceeds", str(excinfo.value)).group(1))
        assert residual == pytest.approx(np.sqrt(2.0) * eps + eps * eps, rel=1e-3)
        assert "_clone_machine" not in g.__dict__


@pytest.mark.parametrize("gram,accepted", [(1e-11, True), (1e-9, False)])
def test_frame_map_unitarity_guard_threshold(monkeypatch, rng, gram, accepted):
    # The build's Gram check also reads V^dag V - 1, at ORTHONORMALITY_TOL = 1e-10.
    # Scaling V's first column by 1 + eps grows its squared norm by 2 eps + eps^2
    # and leaves the factor table, so F F^T, as it was: a residual of 2 eps + eps^2.
    original = cloner_module._machine_table
    eps = gram / 2.0

    def perturbed(g):
        reals, complexes = original(g)
        complexes[0] *= 1.0 + eps
        complexes[2] *= 1.0 + eps
        return reals, complexes

    g = random_geometry(rng)
    monkeypatch.setattr(cloner_module, "_machine_table", perturbed)
    psi = np.array([0.6, 0.8j])
    if accepted:
        clone_pure(g, psi)
        assert "_clone_machine" in g.__dict__
    else:
        with pytest.raises(OrthonormalityFailure) as excinfo:
            clone_pure(g, psi)
        assert excinfo.value.residual == pytest.approx(2.0 * eps + eps * eps, rel=1e-3)
        residual = float(re.search(r"Gram residual (\S+) exceeds", str(excinfo.value)).group(1))
        assert residual == pytest.approx(excinfo.value.residual, rel=1e-3)
        assert "_clone_machine" not in g.__dict__


# ----------------------------------------------------------------------
# the real evaluator of canonical stacks


def canonical_geometries():
    """The default sweep grid, and canonical corners: eta = 0 and pi, p = 0 and p = 1
    (alpha = 1 at eta = 0 and at eta = pi), and parallel and antiparallel axes given
    as vectors, with every zero of b unsigned."""
    for alpha in np.linspace(0.0, 1.0, 41):
        for eta in np.linspace(0.0, np.pi, 41):
            yield geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    for alpha in (0.0, 0.3, 1.0 - 1e-9, 1.0):
        for eta in (0.0, np.pi):
            yield geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    for alpha in (0.0, 0.4, 1.0):
        for b in (A_HAT, np.array([0.0, 0.0, -1.0])):
            yield build_geometry(A_HAT, b, alpha, 1.0)


def test_canonical_stack_matches_build_and_unitary():
    # The real evaluator writes no unitary: its K is checked against the complex
    # build of the same stack and against U of clone_unitary on |psi>|b+>.
    geometries = list(canonical_geometries())
    assert {0.0, 1.0} <= {g.p for g in geometries}
    assert any(g.alpha == 1.0 and g.eta == np.pi for g in geometries)
    k, p_dag = cloner_module._stack_machines(geometries)
    assert k.dtype == p_dag.dtype == np.float64
    k_built, p_built = cloner_module._build_machines(geometries)
    assert np.max(np.abs(k - k_built)) <= 1e-15
    assert np.max(np.abs(p_dag - p_built)) <= 1e-15
    for g, k1 in zip(geometries, k):
        b_plus = spin_eigenstates(g.b)[0]
        assert np.max(np.abs(k1 - clone_unitary(g).reshape(4, 2, 2) @ b_plus)) <= 1e-15


def off_canonical_stacks(rng):
    """Stacks the real evaluator must not take: random frames, b_x < 0 (eta = -1e-10,
    where chi = pi), b_x = -0.0 (b = -a negated whole), and a canonical row plus one
    random frame."""
    row = [geometry_from_angles(alpha, beta_max(alpha, 1.0), 1.0)
           for alpha in np.linspace(0.0, 1.0, 9)]
    yield "random", [random_geometry(rng) for _ in range(20)]
    yield "eta -1e-10", [geometry_from_angles(alpha, beta_max(alpha, -1e-10), -1e-10)
                         for alpha in (0.0, 0.3, 1.0)]
    yield "b_x -0.0", [build_geometry(A_HAT, -A_HAT, alpha, 1.0) for alpha in (0.0, 1.0)]
    yield "mixed", [*row, random_geometry(rng)]


def test_off_canonical_stacks_are_built_bit_for_bit(rng):
    for name, stack in off_canonical_stacks(rng):
        k, p_dag = cloner_module._stack_machines(stack)
        k_built, p_built = cloner_module._build_machines(stack)
        assert k.dtype == k_built.dtype and p_dag.dtype == p_built.dtype, name
        assert k.tobytes() == k_built.tobytes() and p_dag.tobytes() == p_built.tobytes(), name


@pytest.mark.parametrize("gram,accepted", [(1e-11, True), (1e-9, False)])
def test_canonical_orthonormality_guard_threshold(monkeypatch, gram, accepted):
    # The real evaluator's Gram check, at ORTHONORMALITY_TOL = 1e-10: as in the
    # complex build, eps on the sqrt(1 - p) factor of the first dilation vector at
    # p = 1/2 gives a Gram residual of sqrt(2) eps + eps^2.
    original = cloner_module._real_row
    eps = gram / np.sqrt(2.0)

    def perturbed(*args):
        reals = original(*args)
        reals[1] = reals[1] + eps
        return reals

    alpha = np.sqrt(0.5)
    g = geometry_from_angles(alpha, beta_max(alpha, np.pi / 2), np.pi / 2)
    assert g.p == pytest.approx(0.5, abs=1e-15)
    monkeypatch.setattr(cloner_module, "_real_row", perturbed)
    if accepted:
        k, _ = cloner_module._stack_machines([g])
        assert k.dtype == np.float64
    else:
        with pytest.raises(OrthonormalityFailure) as excinfo:
            cloner_module._stack_machines([g])
        assert excinfo.value.residual == pytest.approx(np.sqrt(2.0) * eps + eps * eps, rel=1e-3)
        residual = float(re.search(r"Gram residual (\S+) exceeds", str(excinfo.value)).group(1))
        assert residual == pytest.approx(excinfo.value.residual, rel=1e-3)


def test_failed_canonical_stack_keeps_nothing(monkeypatch):
    # A sign broken in the real evaluator's factor table trips its own Gram
    # check: the canonical stack never reaches the complex build, and nothing is kept.
    original = cloner_module._real_row

    def corrupted(*args):
        reals = original(*args)
        reals[4] = -reals[4]
        return reals

    def unused(geometries):
        raise AssertionError("a canonical stack must not take the complex build")

    geometries = [geometry_from_angles(alpha, beta_max(alpha, 1.0), 1.0)
                  for alpha in np.linspace(0.1, 0.9, 5)]
    monkeypatch.setattr(cloner_module, "_real_row", corrupted)
    monkeypatch.setattr(cloner_module, "_build_machines", unused)
    with pytest.raises(OrthonormalityFailure):
        fidelity_reports(geometries)
    assert not any("_clone_machine" in g.__dict__ for g in geometries)
