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

The clone functions and the sphere averages of :mod:`spinclone.fidelity`
read the machine as the 4x2 isometry K = U (1 (x) |b+>) and the conjugated
product basis P^dag, built together in one pass per geometry and then kept
on it read-only, so cloning many states with one geometry builds the
machine once.  The pass never forms U.  It takes the frame map V, W = V (x) V
and the real canonical-frame dilation vectors vec_k and products prod_k
that :func:`clone_unitary` uses, behind the same Gram check on W vec_k, and
forms K = W K~ V^dag with K~ = sum_k s_k prod_k r_k^T, where r_k is vec_k
contracted on its second qubit with V^dag |b+>; P^dag comes from the scalar
eigenstate amplitudes of a and b.  The public :func:`clone_unitary`,
:func:`naimark_basis` and :func:`product_basis` build fresh arrays on every
call and are not on the clone path.  A clone reads its reduced states and
Bloch vectors off the joint's entries: with J the 2x2 reshape of a pure
output, rho_a = J J^dag and rho_b = J^T J^*; for a mixed output they are
block sums of K rho K^dag.

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
makes the basis orthonormal.  Among cloners realising the same joint
measurement it gives the largest F_a and is Pareto-optimal, but it does not
maximise F_av or F_b taken alone: other such cloners raise them (measured
on sampled geometries: by up to 0.12 and 0.33) at a cost in F_a.  The signs
are validated wholesale by the orthonormality check in the constructor,
which fails loudly rather than produce silently wrong statistics.  Arbitrary
axes are handled by conjugating the real canonical-frame unitary with
V (x) V, where V = [|a+>, |a->] diag(e^{-i chi/2}, e^{i chi/2}) takes its
columns from linalg's eigenstate amplitudes of a.  The same pair gives
f1 + i f2 = <a-|sigma|a+>, and chi, the phase of b.(f1 + i f2), is the
azimuth of b about a.  V is unitary for every pair of axes, so
(anti)parallel axes, where chi is undefined, need no special case: any chi
gives a valid frame.  Rounding picks it, deterministically, and where
b.(f1 + i f2) is exactly 0 atan2(0, 0) = 0 does.  Mapped canonical
eigenstates differ from the package convention by phases that cancel in
the unitary, so rephasing matters only for :func:`naimark_basis` vectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _dot, _spin_amplitudes, as_density, as_state
from .measurement import DEGENERATE_TOL, MeasurementGeometry, _born_probabilities

#: Gram residual above which the basis constructor refuses to return.
ORTHONORMALITY_TOL = 1e-10

#: Signs of the product states in the cloning unitary, in outcome order.
_CLONE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

_IDENTITY_4 = np.eye(4)


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
    c, s = math.cos(t / 2), math.sin(t / 2)
    return (np.array([c, s]), np.array([-s, c]))


#: a+, a- in the canonical frame, where a lies along z.
_A_PAIR = np.array(_inplane_pair(0.0))


def _frame_map(a: list[float], b: list[float]) -> tuple[list[float], np.ndarray]:
    """Frame axis e1 and the SU(2) map V taking z and x to a and e1.

    With (a+, a-) the package eigenstates of a, the real and imaginary parts
    f1, f2 of <a-|sigma|a+> are the images of x, y under [|a+>, |a->].  chi,
    the phase of b.(f1 + i f2), is the azimuth of b about a measured from f1;
    turning by it puts e1 = Re(e^{-i chi} (f1 + i f2)) along b's component
    orthogonal to a, and V = [|a+> e^{-i chi/2}, |a-> e^{i chi/2}].
    """
    (p0, p1), (m0, m1) = _spin_amplitudes(a)
    n0, n1 = m0.conjugate(), m1.conjugate()
    f = (n0 * p1 + n1 * p0, 1j * (n1 * p0 - n0 * p1), n0 * p0 - n1 * p1)
    chi = cmath.phase(_dot(b, f))
    turn = cmath.exp(-1j * chi)
    e1 = [(turn * x).real for x in f]
    u = cmath.exp(-0.5j * chi)
    return e1, np.array([[p0 * u, m0 * u.conjugate()], [p1 * u, m1 * u.conjugate()]])


def _products(a_pair, b_pair) -> np.ndarray:
    """Rows |a_i>|b_j> in outcome order from the eigenstate amplitudes of a and b."""
    ea, eb = np.array(a_pair), np.array(b_pair)
    # Row 2i + j, entry 2k + l, is a_i[k] b_j[l]: np.kron of the two pairs, by broadcasting
    return (ea[:, None, :, None] * eb[None, :, None, :]).reshape(4, 4)


def product_basis(g: MeasurementGeometry) -> list[np.ndarray]:
    """Product states |a_i>|b_j> in outcome order, under package conventions.

    These are the states prepared by the measure-and-prepare scheme and the
    basis in which clone amplitudes are reported.
    """
    return list(_products(_spin_amplitudes(g.a.tolist()), _spin_amplitudes(g.b.tolist())))


def _canonical_dilation(g: MeasurementGeometry) -> tuple[np.ndarray, ...]:
    """Frame map V and W = V (x) V, plus the canonical-frame dilation and product vectors.

    Rows of the real 4x4 ``vecs`` and ``prods`` are the dilation vectors and
    the products |a_i>|b_j> in outcome order.  Raises :class:`OrthonormalityFailure`
    if the Gram matrix of ``w @ vecs.T`` misses the identity by > ``ORTHONORMALITY_TOL``.
    """
    a, b = g.a.tolist(), g.b.tolist()
    e1, v = _frame_map(a, b)
    # Signed polar angle in the canonical x-z plane; +0.0 keeps atan2 off the
    # negative branch when the x component underflows to -0.0
    t_m, t_l, t_b = (math.atan2(_dot(n, e1) + 0.0, _dot(n, a))
                     for n in (g.m.tolist(), g.l.tolist(), b))
    half = 0.5 * (t_m - t_l)
    cos_e, sin_e = -math.cos(half), math.sin(half)
    # A weight below DEGENERATE_TOL is exactly 0 and its partner 1, as in build_geometry
    p = 0.0 if g.p < DEGENERATE_TOL else 1.0 if 1.0 - g.p < DEGENERATE_TOL else g.p
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    (mp0, mp1), (mm0, mm1), (lp0, lp1), (lm0, lm1) = (
        x.tolist() for x in (*_inplane_pair(t_m), *_inplane_pair(t_l)))
    # factors[k][i][j]: amplitude i of the first-qubit factor of vector k that
    # pairs with |b+> (j = 0) or |b-> (j = 1), in outcome order.  With |b+> come
    # the m eigenstates and the l eigenstates on the antipodal branch; with |b->
    # come a+, a- (the unit vectors, a lying along z) and their turns by e.
    factors = np.array([sp * mp0, sq, sp * mp1, 0.0,
                        -sq * lp0, -sp * cos_e, -sq * lp1, -sp * sin_e,
                        -sq * lm0, sp * sin_e, -sq * lm1, -sp * cos_e,
                        sp * mm0, 0.0, sp * mm1, sq]).reshape(4, 2, 2)
    b_pair = np.array(_inplane_pair(t_b))  # rows b+, b-
    vecs = (factors @ b_pair).reshape(4, 4)
    prods = (_A_PAIR[:, None, :, None] * b_pair[None, :, None, :]).reshape(4, 4)
    w = (v[:, None, :, None] * v[None, :, None, :]).reshape(4, 4)
    mapped = w @ vecs.T
    residual = float(np.abs(mapped.conj().T @ mapped - _IDENTITY_4).max())
    if not residual <= ORTHONORMALITY_TOL:
        raise OrthonormalityFailure(
            f"dilation basis Gram residual {residual:.3e} exceeds {ORTHONORMALITY_TOL:.0e}; "
            "phase or frame convention is broken"
        )
    return v, w, vecs, prods


def naimark_basis(g: MeasurementGeometry) -> NaimarkBasis:
    """Construct the orthonormal dilation basis for a measurement geometry.

    Raises :class:`OrthonormalityFailure` if the Gram matrix of the
    constructed vectors misses the identity by more than
    ``ORTHONORMALITY_TOL``.
    """
    _v, w, vecs, prods = _canonical_dilation(g)
    # Phase of each mapped canonical product state relative to spin_eigenstates;
    # dividing it out keeps the unitary in signed product form in that convention.
    phases = np.einsum("ij,ij->i", np.conj(product_basis(g)), prods @ w.T)
    vectors = ((w @ vecs.T) * (phases.conj() / np.abs(phases))).T.copy()
    vectors.setflags(write=False)
    return NaimarkBasis(*vectors)


def clone_unitary(g: MeasurementGeometry) -> np.ndarray:
    """Two-qubit cloning unitary W U_c W^dag, U_c = sum_i s_i |prod_i><vec_i| real."""
    _v, w, vecs, prods = _canonical_dilation(g)
    u_c = (prods.T * _CLONE_SIGNS) @ vecs
    return w @ u_c @ w.conj().T


def _build_machine(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Clone isometry K = U (1 (x) |b+>), 4x2, and P^dag = conj(product_basis(g)), 4x4.

    K = W K~ V^dag with K~ = sum_k s_k prod_k r_k^T, where r_k is the
    canonical dilation vector vec_k contracted on its second qubit with
    V^dag |b+>: U is never formed.
    """
    v, w, vecs, prods = _canonical_dilation(g)
    a_pair, b_pair = _spin_amplitudes(g.a.tolist()), _spin_amplitudes(g.b.tolist())
    v_dag = v.conj().T
    r = vecs.reshape(4, 2, 2) @ (v_dag @ b_pair[0])
    k = w @ ((prods.T * _CLONE_SIGNS) @ r) @ v_dag
    return k, _products(a_pair, b_pair).conj()


def _kept(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The machine (K, P^dag) of g, built on the first request and then kept on g read-only.

    A geometry is immutable, so a machine built from it stays valid for its
    lifetime.  A build that raises keeps nothing.
    """
    machine = g.__dict__.get("_clone_machine")
    if machine is None:
        machine = _build_machine(g)
        for array in machine:
            array.setflags(write=False)
        object.__setattr__(g, "_clone_machine", machine)
    return machine


def _isometry(g: MeasurementGeometry) -> np.ndarray:
    """Kept clone isometry K, 4x2: K psi is U applied to |psi>|b+>."""
    return _kept(g)[0]


def _product_dagger(g: MeasurementGeometry) -> np.ndarray:
    """Kept P^dag = conj(product_basis(g)), 4x4: row i maps a state to its prod_i amplitude."""
    return _kept(g)[1]


def _qubit(r00, r10, r11) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian 2x2 rho with diagonal Re r00, Re r11 and lower entry r10, and its Bloch vector."""
    r00, r11 = r00.real, r11.real
    return (np.array([[r00, r10.conjugate()], [r10, r11]]),
            np.array([2.0 * r10.real, 2.0 * r10.imag, r00 - r11]))


def clone_pure(g: MeasurementGeometry, psi) -> CloneOutput:
    """Clone a pure state: the output K|psi> is U applied to |psi> and the b+ ancilla.

    The product-basis weights of the output equal the joint outcome
    distribution of the measurement on psi.
    """
    psi = as_state(psi)
    k, p_dag = _kept(g)
    joint = k @ psi
    joint.setflags(write=False)
    lambdas = p_dag @ joint
    # joint[2i + j] = J[i, j]: tracing out either qubit of |joint><joint| gives
    # rho_a = J J^dag and rho_b = J^T J^*
    j00, j01, j10, j11 = joint.tolist()
    n00, n01, n10, n11 = abs(j00) ** 2, abs(j01) ** 2, abs(j10) ** 2, abs(j11) ** 2
    rho_a, bloch_a = _qubit(n00 + n01, j10 * j00.conjugate() + j11 * j01.conjugate(), n10 + n11)
    rho_b, bloch_b = _qubit(n00 + n10, j01 * j00.conjugate() + j11 * j10.conjugate(), n01 + n11)
    return CloneOutput(joint, rho_a, rho_b, bloch_a, bloch_b, np.abs(lambdas) ** 2, lambdas)


def clone_mixed(g: MeasurementGeometry, rho) -> CloneOutput:
    """Clone a mixed state: K rho K^dag, i.e. rho (x) |b+><b+| conjugated by the unitary."""
    rho = as_density(rho, dim=2)
    k, p_dag = _kept(g)
    joint = k @ rho @ k.conj().T
    joint.setflags(write=False)
    # diag(P^dag joint P): the product-basis weights of joint
    probs = ((p_dag @ joint) * p_dag.conj()).sum(1).real
    # r[2i + j][2k + l]: rho_a sums the diagonal j = l blocks, rho_b the diagonal i = k blocks
    r = joint.tolist()
    rho_a, bloch_a = _qubit(r[0][0] + r[1][1], r[2][0] + r[3][1], r[2][2] + r[3][3])
    rho_b, bloch_b = _qubit(r[0][0] + r[2][2], r[1][0] + r[3][2], r[1][1] + r[3][3])
    return CloneOutput(joint, rho_a, rho_b, bloch_a, bloch_b, probs)


def measure_and_prepare(g: MeasurementGeometry, psi) -> np.ndarray:
    """Measure-then-prepare alternative to coherent cloning.

    Performs the joint measurement on psi and prepares the product state
    matching the outcome; on average this yields the mixed state diagonal
    in the |a+->|b+-> basis with Born-rule weights, reproducing the same
    outcome statistics as :func:`clone_pure`.
    """
    psi = as_state(psi)
    probs = _born_probabilities(g, np.outer(psi, psi.conj()))
    p_dag = _product_dagger(g)
    return (p_dag.conj().T * probs) @ p_dag  # P diag(probs) P^dag, P's columns the products
