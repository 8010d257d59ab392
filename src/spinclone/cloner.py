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
V (x) V, where V = [|a+>, |a->] diag(e^{-i chi/2}, e^{i chi/2}) is built
from the package eigenstates of a and chi is the azimuth of b about a.
V is unitary for every pair of axes, so (anti)parallel axes, where chi is
undefined, need no special case: any chi gives a valid frame, and
atan2(0, 0) = 0 picks one deterministically.  Mapped canonical
eigenstates differ from the package convention by phases that cancel in
the unitary, so rephasing matters only for :func:`naimark_basis` vectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
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


def _frame_map(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame rows (e1, e2, a) and the SU(2) map V taking z, x, y to a, e1, e2.

    f1, f2 are the images of x, y under [|a+>, |a->] at the angles t, f that
    spin_eigenstates uses for a; chi, the azimuth of b about a measured from
    f1, turns them so that e1 lies along b's component orthogonal to a.
    """
    t = math.atan2(math.hypot(a[0], a[1]), a[2])
    f = math.atan2(a[1], a[0])
    ct, st, cf, sf = math.cos(t), math.sin(t), math.cos(f), math.sin(f)
    f1 = np.array([ct * cf * cf + sf * sf, (ct - 1.0) * sf * cf, -st * cf])
    f2 = np.array([(ct - 1.0) * sf * cf, ct * sf * sf + cf * cf, -st * sf])
    chi = math.atan2(b @ f2, b @ f1)
    cx, sx = math.cos(chi), math.sin(chi)
    rows = np.stack([cx * f1 + sx * f2, cx * f2 - sx * f1, a])
    c, s = math.cos(t / 2), math.sin(t / 2)
    u, w = cmath.exp(-0.5j * chi), cmath.exp(1j * (f - 0.5 * chi))
    v = np.array([[c * u, -s * w.conjugate()], [s * w, c * u.conjugate()]])
    return rows, v


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
    rot, v = _frame_map(g.a, g.b)
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
