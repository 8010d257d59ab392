import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclone import (
    bloch_from_density,
    density_from_bloch,
    partial_trace,
    pauli_dot,
    spin_eigenstates,
    tensor,
)
from spinclone import build_geometry, clone_pure
from spinclone.cloner import _inplane_pair
from spinclone.linalg import ATOL, _bloch, _reduced, as_density, as_state, as_unit_vector

from conftest import random_density, random_pure_state, random_unit_vector


def test_pauli_dot_z_axis():
    assert np.allclose(pauli_dot([0, 0, 1]), np.diag([1.0, -1.0]))


def test_pauli_dot_x_axis():
    assert np.allclose(pauli_dot([1, 0, 0]), np.array([[0, 1], [1, 0]]))


def test_pauli_dot_tilted_axis():
    eta = np.pi / 3
    op = pauli_dot([np.sin(eta), 0.0, np.cos(eta)])
    expected = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(op, expected, atol=1e-15)
    assert abs(np.trace(op)) < 1e-15
    assert abs(np.linalg.det(op) + 1.0) < 1e-15


def test_pauli_dot_rejects_non_unit():
    with pytest.raises(ValueError):
        pauli_dot([0.0, 0.0, 0.5])


def test_pauli_square_is_identity(rng):
    for _ in range(1000):
        op = pauli_dot(random_unit_vector(rng))
        assert np.max(np.abs(op @ op - np.eye(2))) < 1e-12


def test_spin_eigenstates_z_axis():
    plus, minus = spin_eigenstates([0, 0, 1])
    assert np.allclose(plus, [1, 0])
    assert np.allclose(minus, [0, 1])


def test_spin_eigenstates_minus_z_swaps_up_to_phase():
    plus, minus = spin_eigenstates([0, 0, -1])
    assert abs(abs(plus[1]) - 1) < 1e-15 and abs(plus[0]) < 1e-15
    assert abs(abs(minus[0]) - 1) < 1e-15 and abs(minus[1]) < 1e-15


def test_spin_eigenstates_x_axis():
    plus, minus = spin_eigenstates([1, 0, 0])
    r = 1 / np.sqrt(2)
    assert np.allclose(plus, [r, r])
    assert np.allclose(minus, [-r, r])


def test_spin_eigenstates_eigenpairs(rng):
    for _ in range(1000):
        n = random_unit_vector(rng)
        op = pauli_dot(n)
        plus, minus = spin_eigenstates(n)
        assert np.linalg.norm(op @ plus - plus) < 1e-12
        assert np.linalg.norm(op @ minus + minus) < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-12
        assert abs(np.vdot(plus, plus) - 1) < 1e-12
        assert abs(np.vdot(minus, minus) - 1) < 1e-12


@pytest.mark.parametrize("tilt", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_spin_eigenstates_near_poles(tilt, pole):
    # an axis a tiny angle off +-z keeps its eigenstates: the polar angle
    # must not come from arccos(n_z), which loses digits there
    n = np.array([np.sin(tilt) * 0.6, np.sin(tilt) * 0.8, pole * np.cos(tilt)])
    plus, minus = spin_eigenstates(n)
    assert np.max(np.abs(bloch_from_density(np.outer(plus, plus.conj())) - n)) < 1e-15
    assert np.max(np.abs(bloch_from_density(np.outer(minus, minus.conj())) + n)) < 1e-15


def test_tensor_ordering():
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    assert np.allclose(tensor(zero, zero), [1, 0, 0, 0])
    assert np.allclose(tensor(zero, one), [0, 1, 0, 0])
    x_plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(tensor(x_plus, x_plus), [0.5, 0.5, 0.5, 0.5])


def test_partial_trace_product_state():
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    rho = np.kron(np.outer(zero, zero), np.outer(one, one))
    assert np.allclose(partial_trace(rho, keep=1), np.outer(zero, zero))
    assert np.allclose(partial_trace(rho, keep=2), np.outer(one, one))


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, keep=1), np.eye(2) / 2)


def test_partial_trace_preserves_trace(rng):
    for _ in range(200):
        rho = random_density(rng, dim=4)
        for keep in (1, 2):
            assert abs(np.trace(partial_trace(rho, keep)).real - 1) < 1e-12


def test_partial_trace_rejects_non_density():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4, dtype=complex), keep=1)  # trace 4, not 1


def test_partial_trace_of_cloned_state_transfers_axis_component():
    # Clone the +1 eigenstate of a with equal sharpness 1/sqrt(2) on
    # orthogonal axes; the reduced state's a-component must shrink by alpha.
    alpha = 1 / np.sqrt(2)
    a, b = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    g = build_geometry(a, b, alpha, alpha)
    psi = spin_eigenstates(a)[0]
    joint = clone_pure(g, psi).joint
    reduced = partial_trace(np.outer(joint, joint.conj()), keep=1)
    c_in = bloch_from_density(np.outer(psi, psi.conj()))
    assert abs(a @ bloch_from_density(reduced) - alpha * (a @ c_in)) < 1e-12


def test_bloch_from_density_examples():
    assert np.allclose(bloch_from_density(np.eye(2) / 2), [0, 0, 0])
    assert np.allclose(bloch_from_density(np.diag([1.0, 0.0])), [0, 0, 1])
    shrunk = density_from_bloch([0, 0, 2 / 3])
    assert np.allclose(bloch_from_density(shrunk), [0, 0, 2 / 3])


def test_bloch_round_trip(rng):
    for _ in range(200):
        c = random_unit_vector(rng) * rng.uniform(0, 1)
        assert np.max(np.abs(bloch_from_density(density_from_bloch(c)) - c)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validators_reject_non_finite(bad):
    with pytest.raises(ValueError, match="unit length"):
        as_unit_vector([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        as_state([bad, 0.0])
    with pytest.raises(ValueError, match="hermitian"), np.errstate(invalid="ignore"):
        as_density(np.array([[bad, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="unit ball"):
        density_from_bloch([bad, 0.0, 0.0])


@pytest.mark.parametrize("bad", [
    [0.0, 0.0, 1.0 + 1e-3j],
    [0.1 + 5j, 0.0, 0.0],
    ["0", "0", "1"],
    np.array([False, False, True]),
    [None, 0.0, 1.0],
], ids=["complex_axis", "complex_bloch", "strings", "bool", "object"])
def test_validators_reject_non_real_dtypes(bad):
    # Casting to float would drop the imaginary part or parse the text
    dtype = re.escape(str(np.asarray(bad).dtype))
    for validate in (as_unit_vector, density_from_bloch,
                     lambda n: build_geometry(n, [0.0, 0.0, 1.0], 1.0, 0.0),
                     lambda n: build_geometry([0.0, 0.0, 1.0], n, 1.0, 0.0)):
        with pytest.raises(ValueError, match=f"got dtype {dtype}$"):
            validate(bad)


# ----------------------------------------------------------------------
# closed forms against the general numpy formulas they replace

PAULI_MATRICES = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def random_operator(rng, dim):
    """A complex dim x dim operator, in general neither hermitian nor positive."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def numpy_eigenstates(n):
    """The eigenstate formula on numpy scalars: arctan2, hypot, exp."""
    n = np.asarray(n, dtype=float)
    theta = np.arctan2(np.hypot(n[0], n[1]), n[2])
    phi = np.arctan2(n[1], n[0])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([c, np.exp(1j * phi) * s]), np.array([-np.exp(-1j * phi) * s, c])


def same_signs(x, y):
    return (np.array_equal(np.signbit(x.real), np.signbit(y.real))
            and np.array_equal(np.signbit(x.imag), np.signbit(y.imag)))


def test_reduced_matches_trace_formula(rng):
    for rho in [random_operator(rng, 4) for _ in range(200)] + [
            random_density(rng, dim=4) for _ in range(200)]:
        r = rho.reshape(2, 2, 2, 2)
        want = np.trace(r, axis1=1, axis2=3), np.trace(r, axis1=0, axis2=2)
        for got, ref in zip(_reduced(rho), want):
            assert np.max(np.abs(got - ref)) <= 1e-15


def test_bloch_matches_trace_formula(rng):
    for rho in [random_operator(rng, 2) for _ in range(200)] + [
            random_density(rng) for _ in range(200)]:
        want = np.real(np.einsum("kij,ji->k", PAULI_MATRICES, rho))
        assert np.max(np.abs(_bloch(rho) - want)) <= 1e-15


# The angles come from math.atan2 and math.hypot, which on some builds differ
# from numpy's vectorized arctan2 and hypot by one or two ulps.
@pytest.mark.parametrize("n", [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-0.0, 0.0, 1.0), (-0.0, -0.0, 1.0), (0.0, -0.0, 1.0),
    (-0.0, 0.0, -1.0), (-0.0, -0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
    (-1.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (-0.0, -1.0, 0.0), (0.0, -1.0, -0.0),
])
def test_spin_eigenstates_keep_signed_zeros(n):
    for got, want in zip(spin_eigenstates(n), numpy_eigenstates(n)):
        assert np.max(np.abs(got - want)) <= 1e-15
        assert same_signs(got, want)


def test_spin_eigenstates_match_numpy_formula(rng):
    for _ in range(2000):
        n = random_unit_vector(rng)
        for got, want in zip(spin_eigenstates(n), numpy_eigenstates(n)):
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("t", [0.0, -0.0, 1e-300, 0.3, np.pi / 2, 2.5, np.pi])
def test_inplane_pair_matches_spin_eigenstates(t):
    # cloner._inplane_pair stands in for spin_eigenstates on x-z plane axes
    # (sin t, 0, cos t), t in [0, pi] or -0.0, down to the sign of a zero
    for got, want in zip(spin_eigenstates([np.sin(t), 0.0, np.cos(t)]), _inplane_pair(t)):
        assert np.max(np.abs(got.real - want)) <= 1e-15
        assert np.array_equal(np.signbit(got.real), np.signbit(want))
        assert not np.any(got.imag)


def test_as_density_messages_name_the_bad_value():
    with pytest.raises(ValueError, match=r"not hermitian: max \|rho - rho\^dag\| = 0\.25"):
        as_density(np.array([[0.5, 0.25], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="not positive semidefinite: smallest eigenvalue -0.5"):
        as_density(np.diag([1.5, -0.5]))


def test_partial_trace_checks_keep_first():
    # an all-zero operator would fail the density check; the bad keep is reported instead
    with pytest.raises(ValueError, match="keep must be 1 or 2, got 3"):
        partial_trace(np.zeros((4, 4)), keep=3)


# ----------------------------------------------------------------------
# the closed-form 2x2 density checks against numpy's general ones

def reference_density_check(rho):
    """(message prefix or None, margin) from numpy's general checks on rho.

    The margin is the smallest distance of a checked value from its bound,
    nan if a value is nan; np.linalg.eigvalsh reads the lower triangle.
    """
    with np.errstate(invalid="ignore"):
        skew = np.max(np.abs(rho - rho.conj().T))
    margin = abs(skew - ATOL)
    if not skew <= ATOL:
        return "operator is not hermitian", margin
    tr_error = abs(np.trace(rho).real - 1.0)
    margin = min(margin, abs(tr_error - ATOL))
    if not tr_error <= ATOL:
        return "operator does not have unit trace", margin
    lowest = np.linalg.eigvalsh(rho).min()
    margin = min(margin, abs(lowest + ATOL))
    if not lowest >= -ATOL:
        return "operator is not positive semidefinite", margin
    return None, margin


_units = st.floats(-4.0, 4.0)  # offsets from a bound, in units of ATOL
_angles = st.floats(-math.pi, math.pi)


@st.composite
def near_bound_densities(draw):
    """Unit-trace 2x2 operators with the smallest eigenvalue within 4 ATOL of -ATOL,
    then one entry perturbed: a skew or trace shift near ATOL, or a nan or inf."""
    lowest = -ATOL + draw(_units) * ATOL
    theta, phi = draw(st.floats(0.0, math.pi)), draw(_angles)
    top = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
    bottom = np.array([-top[1].conjugate(), top[0]])
    rho = (1.0 - lowest) * np.outer(top, top.conj()) + lowest * np.outer(bottom, bottom.conj())
    kind = draw(st.sampled_from(["none", "off_skew", "diag_skew", "trace", "non_finite"]))
    size = (1.0 + draw(_units) / 4) * ATOL
    if kind == "off_skew":
        rho[0, 1] += size * cmath.exp(1j * draw(_angles))
    elif kind == "diag_skew":
        i = draw(st.sampled_from([0, 1]))
        rho[i, i] += 0.5j * size
    elif kind == "trace":
        rho[1, 1] += math.copysign(size, draw(_units))
    elif kind == "non_finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                    complex(math.nan, 0.0), complex(0.0, math.nan)]))
        rho[draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))] = bad
    return rho


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(rho=near_bound_densities())
def test_as_density_2x2_matches_eigvalsh(rho):
    want, margin = reference_density_check(rho)
    try:
        as_density(rho)
        got = None
    except ValueError as err:
        got, message = str(err).split(":")[0], str(err)
    if not margin <= 1e-14:
        assert got == want
    if got == "operator is not positive semidefinite":
        lowest = float(re.search(r"smallest eigenvalue (\S+)$", message).group(1))
        assert abs(lowest - np.linalg.eigvalsh(rho).min()) <= 1e-15
