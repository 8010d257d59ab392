"""Cloning machine realizing the optimal joint measurement on two qubits.

The four-outcome measurement of :mod:`spinclone.measurement` is dilated to
a projective measurement on the input qubit plus one ancilla prepared in
the +1 eigenstate of the b component.  The dilation basis is

    |pp> = sqrt(p) |m+>|b+> + sqrt(1-p) |a+>|b->,
    |mm> = sqrt(p) |m->|b+> + sqrt(1-p) |a->|b->,
    |pm> = sqrt(1-p) |l+>|b+> - sqrt(p) (cos(e)|a+> + sin(e)|a->)|b->,
    |mp> = sqrt(1-p) |l->|b+> + sqrt(p) (sin(e)|a+> - cos(e)|a->)|b->,

and the cloning unitary maps these onto signed product states:

    U = |a+>|b+><pp| + |a+>|b-><pm| - |a->|b+><mp| - |a->|b-><mm|.

Applied to |psi>|b+>, U produces a two-qubit state whose product-basis
weights reproduce the joint outcome distribution exactly, so projective
measurements of the a component on the first output and the b component
on the second implement the optimal joint measurement.

Phase conventions.  The construction is carried out in a canonical frame
(a along z, b in the x-z plane with non-negative x) where every amplitude
is real.  In that frame the l eigenstates enter the basis on the
antipodal half-angle branch (both signs flipped relative to
:func:`spinclone.linalg.spin_eigenstates`), with cos(e), sin(e) taken at
e = pi - (angle from l to m)/2 accordingly.  This is the unique sign
assignment, given the package eigenstate convention for a and b, that
makes the basis orthonormal and maximizes the cloning fidelities; it is
validated wholesale by the orthonormality check in the constructor, which
fails loudly rather than produce silently wrong statistics.  Arbitrary
axes are handled by conjugating the real canonical-frame unitary with
V (x) V, V the SU(2) map back from the canonical frame.  Rotated canonical
eigenstates differ from the package convention by phases that cancel in
the unitary, so rephasing matters only for :func:`naimark_basis` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IDENTITY_2,
    as_density,
    as_state,
    bloch_from_density,
    partial_trace,
    spin_eigenstates,
    tensor,
)
from .measurement import MeasurementGeometry, build_povm, joint_distribution

#: Gram residual above which the basis constructor refuses to return.
ORTHONORMALITY_TOL = 1e-10

#: Signs of the product states in the cloning unitary, in outcome order.
_CLONE_SIGNS = (1.0, 1.0, -1.0, -1.0)


class OrthonormalityFailure(RuntimeError):
    """The constructed dilation basis is not orthonormal.

    This signals a broken phase or frame convention inside the package,
    not a user error.
    """


@dataclass(frozen=True)
class NaimarkBasis:
    """Orthonormal two-qubit basis dilating the four-outcome measurement.

    The squared overlap of each vector with |psi>|b+> equals the Born
    probability of the corresponding outcome, for every input state.
    """

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        return (self.pp, self.pm, self.mp, self.mm)


@dataclass(frozen=True)
class CloneOutput:
    """Result of cloning a state.

    ``joint`` is the two-qubit output in the computational basis: a state
    vector for pure input, a density operator for mixed input.
    ``lambdas`` holds the amplitudes of the pure output in the product
    basis |a+->|b+-> (None for mixed input); ``probabilities`` are the
    product-basis weights, equal to the joint outcome distribution.
    """

    joint: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    bloch_a: np.ndarray
    bloch_b: np.ndarray
    probabilities: np.ndarray
    lambdas: np.ndarray | None = None


def _inplane_pair(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Spin eigenstates of an x-z plane axis at signed polar angle t.

    Matches spin_eigenstates for such axes, including the sign of zero in
    the x component; the amplitudes are real.
    """
    c, s = np.cos(t / 2), np.sin(t / 2)
    return (np.array([c, s]), np.array([-s, c]))


def _frame_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Proper rotation taking a to +z and b into the x-z plane, x >= 0.

    Rows are the right-handed triad (in-plane unit vector orthogonal to a,
    plane normal, a).  When a and b are (anti)parallel the in-plane
    direction is arbitrary and a deterministic perpendicular is chosen.
    """
    e3 = a
    b_perp = b - (a @ b) * a
    norm = np.linalg.norm(b_perp)
    if norm > 1e-12:
        e1 = b_perp / norm
    else:
        probe = np.array([1.0, 0.0, 0.0]) if abs(a[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
        probe = probe - (probe @ a) * a
        e1 = probe / np.linalg.norm(probe)
    e2 = np.cross(e3, e1)
    return np.stack([e1, e2, e3])


def _su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """SU(2) element u with u (n.sigma) u^dag = (rot n).sigma.

    Quaternion extraction picks the numerically stable branch; the overall
    quaternion sign is irrelevant downstream.
    """
    t = rot[0, 0] + rot[1, 1] + rot[2, 2]
    if t > 0:
        s = 2.0 * np.sqrt(t + 1.0)
        w = 0.25 * s
        x = (rot[2, 1] - rot[1, 2]) / s
        y = (rot[0, 2] - rot[2, 0]) / s
        z = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] >= rot[1, 1] and rot[0, 0] >= rot[2, 2]:
        s = 2.0 * np.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2])
        w = (rot[2, 1] - rot[1, 2]) / s
        x = 0.25 * s
        y = (rot[0, 1] + rot[1, 0]) / s
        z = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] >= rot[2, 2]:
        s = 2.0 * np.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2])
        w = (rot[0, 2] - rot[2, 0]) / s
        x = (rot[0, 1] + rot[1, 0]) / s
        y = 0.25 * s
        z = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = 2.0 * np.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1])
        w = (rot[1, 0] - rot[0, 1]) / s
        x = (rot[0, 2] + rot[2, 0]) / s
        y = (rot[1, 2] + rot[2, 1]) / s
        z = 0.25 * s
    return w * IDENTITY_2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def product_basis(g: MeasurementGeometry) -> list[np.ndarray]:
    """Product states |a_i>|b_j> in outcome order, under package conventions.

    These are the states prepared by the measure-and-prepare scheme and the
    basis in which clone amplitudes are reported.
    """
    a_states = spin_eigenstates(g.a)
    b_states = spin_eigenstates(g.b)
    return [np.kron(a_states[i], b_states[j]) for i in (0, 1) for j in (0, 1)]


def _signed_angle(v: np.ndarray) -> float:
    # +0.0 keeps atan2 off the negative branch when x underflows to -0.0
    return float(np.arctan2(v[0] + 0.0, v[2]))


def _canonical_dilation(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame map W = V (x) V plus the canonical-frame dilation and product vectors.

    Rows of the real 4x4 ``vecs`` and ``prods`` are the dilation vectors and
    the products |a_i>|b_j> in outcome order.  Raises :class:`OrthonormalityFailure`
    if the Gram matrix of ``w @ vecs.T`` misses the identity by > ``ORTHONORMALITY_TOL``.
    """
    rot = _frame_rotation(g.a, g.b)
    v = _su2_from_rotation(rot).conj().T
    t_m, t_l, t_b = (_signed_angle(rot @ n) for n in (g.m, g.l, g.b))
    half = 0.5 * (t_m - t_l)
    cos_e, sin_e = -np.cos(half), np.sin(half)
    m_plus, m_minus = _inplane_pair(t_m)
    l_plus, l_minus = _inplane_pair(t_l)
    a_pair = np.array(_inplane_pair(0.0))
    b_pair = np.array(_inplane_pair(t_b))
    a_plus, a_minus = a_pair
    sp, sq = np.sqrt(g.p), np.sqrt(max(1.0 - g.p, 0.0))
    # Row i holds the first-qubit factors paired with (|b+>, |b->) in
    # vector i; the l eigenstates enter on the antipodal branch.
    factors = np.array([
        [sp * m_plus, sq * a_plus],
        [-sq * l_plus, -sp * (cos_e * a_plus + sin_e * a_minus)],
        [-sq * l_minus, sp * (sin_e * a_plus - cos_e * a_minus)],
        [sp * m_minus, sq * a_minus],
    ])
    vecs = (factors.transpose(0, 2, 1) @ b_pair).reshape(4, 4)
    prods = np.einsum("ij,kl->ikjl", a_pair, b_pair).reshape(4, 4)
    w = np.einsum("ij,kl->ikjl", v, v).reshape(4, 4)
    mapped = w @ vecs.T
    residual = float(np.max(np.abs(mapped.conj().T @ mapped - np.eye(4))))
    if not residual <= ORTHONORMALITY_TOL:
        raise OrthonormalityFailure(
            f"dilation basis Gram residual {residual:.3e} exceeds {ORTHONORMALITY_TOL:.0e}; "
            "phase or frame convention is broken"
        )
    return w, vecs, prods


def naimark_basis(g: MeasurementGeometry) -> NaimarkBasis:
    """Construct the orthonormal dilation basis for a measurement geometry.

    Raises :class:`OrthonormalityFailure` if the Gram matrix of the
    constructed vectors misses the identity by more than
    ``ORTHONORMALITY_TOL``.
    """
    w, vecs, prods = _canonical_dilation(g)
    # Phase of each mapped canonical product state relative to spin_eigenstates;
    # dividing it out keeps the unitary in signed product form in that convention.
    phases = np.einsum("ij,ij->i", np.conj(product_basis(g)), prods @ w.T)
    vectors = ((w @ vecs.T) * (phases.conj() / np.abs(phases))).T.copy()
    vectors.setflags(write=False)
    return NaimarkBasis(*vectors)


def clone_unitary(g: MeasurementGeometry) -> np.ndarray:
    """Two-qubit cloning unitary W U_c W^dag, U_c = sum_i s_i |prod_i><vec_i| real."""
    w, vecs, prods = _canonical_dilation(g)
    u_c = (prods.T * _CLONE_SIGNS) @ vecs
    return w @ u_c @ w.conj().T


def clone_pure(g: MeasurementGeometry, psi) -> CloneOutput:
    """Clone a pure state: apply the unitary to |psi> and the b+ ancilla.

    The product-basis weights of the output equal the joint outcome
    distribution of the measurement on psi.
    """
    psi = as_state(psi)
    unitary = clone_unitary(g)
    blank = spin_eigenstates(g.b)[0]
    joint = unitary @ tensor(psi, blank)
    lambdas = np.array([np.vdot(prod, joint) for prod in product_basis(g)])
    rho = np.outer(joint, joint.conj())
    rho_a = partial_trace(rho, keep=1)
    rho_b = partial_trace(rho, keep=2)
    joint.setflags(write=False)
    return CloneOutput(
        joint=joint,
        rho_a=rho_a,
        rho_b=rho_b,
        bloch_a=bloch_from_density(rho_a),
        bloch_b=bloch_from_density(rho_b),
        probabilities=np.abs(lambdas) ** 2,
        lambdas=lambdas,
    )


def clone_mixed(g: MeasurementGeometry, rho) -> CloneOutput:
    """Clone a mixed state by conjugating rho (x) |b+><b+| with the unitary."""
    rho = as_density(rho, dim=2)
    unitary = clone_unitary(g)
    blank = spin_eigenstates(g.b)[0]
    joint = unitary @ np.kron(rho, np.outer(blank, blank.conj())) @ unitary.conj().T
    probs = np.array([np.vdot(prod, joint @ prod).real for prod in product_basis(g)])
    rho_a = partial_trace(joint, keep=1)
    rho_b = partial_trace(joint, keep=2)
    joint.setflags(write=False)
    return CloneOutput(
        joint=joint,
        rho_a=rho_a,
        rho_b=rho_b,
        bloch_a=bloch_from_density(rho_a),
        bloch_b=bloch_from_density(rho_b),
        probabilities=probs,
        lambdas=None,
    )


def measure_and_prepare(g: MeasurementGeometry, psi) -> np.ndarray:
    """Measure-then-prepare alternative to coherent cloning.

    Performs the joint measurement on psi and prepares the product state
    matching the outcome; on average this yields the mixed state diagonal
    in the |a+->|b+-> basis with Born-rule weights, reproducing the same
    outcome statistics as :func:`clone_pure`.
    """
    psi = as_state(psi)
    dist = joint_distribution(np.outer(psi, psi.conj()), build_povm(g))
    out = np.zeros((4, 4), dtype=complex)
    for prob, prod in zip(dist.as_array(), product_basis(g)):
        out += prob * np.outer(prod, prod.conj())
    return out
