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

The 4x2 isometry K = U (1 (x) |b+>), behind the Gram check of the
dilation it comes from, and the conjugated product basis P^dag are built
once per geometry and then kept on it read-only, so cloning many states
with one geometry builds the machine once.  Both are read by the clone
functions and by the sphere averages of :mod:`spinclone.fidelity`, which
split K|psi> into its four product-basis branches.  The public
:func:`clone_unitary`, :func:`naimark_basis` and :func:`product_basis`
still build fresh arrays on every call.

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

from .linalg import _bloch, _reduced, as_density, as_state, spin_eigenstates
from .measurement import DEGENERATE_TOL, MeasurementGeometry, _born_probabilities

#: Gram residual above which the basis constructor refuses to return.
ORTHONORMALITY_TOL = 1e-10

#: Signs of the product states in the cloning unitary, in outcome order.
_CLONE_SIGNS = (1.0, 1.0, -1.0, -1.0)

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


def _frame_map(a: np.ndarray, b: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Frame axis e1 and the SU(2) map V taking z and x to a and e1.

    f1, f2 are the images of x, y under [|a+>, |a->] at the angles t, f that
    spin_eigenstates uses for a; chi, the azimuth of b about a measured from
    f1, turns them so that e1 lies along b's component orthogonal to a.
    """
    ax, ay, az = a.tolist()
    t = math.atan2(math.hypot(ax, ay), az)
    f = math.atan2(ay, ax)
    ct, st, cf, sf = math.cos(t), math.sin(t), math.cos(f), math.sin(f)
    f1 = (ct * cf * cf + sf * sf, (ct - 1.0) * sf * cf, -st * cf)
    f2 = ((ct - 1.0) * sf * cf, ct * sf * sf + cf * cf, -st * sf)
    b = b.tolist()
    chi = math.atan2(_dot(b, f2), _dot(b, f1))
    cx, sx = math.cos(chi), math.sin(chi)
    e1 = [cx * x + sx * y for x, y in zip(f1, f2)]
    c, s = math.cos(t / 2), math.sin(t / 2)
    u, w = cmath.exp(-0.5j * chi), cmath.exp(1j * (f - 0.5 * chi))
    v = np.array([[c * u, -s * w.conjugate()], [s * w, c * u.conjugate()]])
    return e1, v


def _dot(u, v) -> float:
    """u . v for two sequences of three floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def product_basis(g: MeasurementGeometry) -> list[np.ndarray]:
    """Product states |a_i>|b_j> in outcome order, under package conventions.

    These are the states prepared by the measure-and-prepare scheme and the
    basis in which clone amplitudes are reported.
    """
    ea, eb = np.array(spin_eigenstates(g.a)), np.array(spin_eigenstates(g.b))
    # Row 2i + j, entry 2k + l, is a_i[k] b_j[l]: np.kron of the two pairs, by broadcasting
    return list((ea[:, None, :, None] * eb[None, :, None, :]).reshape(4, 4))


def _canonical_dilation(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame map W = V (x) V plus the canonical-frame dilation and product vectors.

    Rows of the real 4x4 ``vecs`` and ``prods`` are the dilation vectors and
    the products |a_i>|b_j> in outcome order.  Raises :class:`OrthonormalityFailure`
    if the Gram matrix of ``w @ vecs.T`` misses the identity by > ``ORTHONORMALITY_TOL``.
    """
    e1, v = _frame_map(g.a, g.b)
    a = g.a.tolist()
    # Signed polar angle in the canonical x-z plane; +0.0 keeps atan2 off the
    # negative branch when the x component underflows to -0.0
    t_m, t_l, t_b = (math.atan2(_dot(n, e1) + 0.0, _dot(n, a))
                     for n in (g.m.tolist(), g.l.tolist(), g.b.tolist()))
    half = 0.5 * (t_m - t_l)
    cos_e, sin_e = -math.cos(half), math.sin(half)
    # A weight below DEGENERATE_TOL is exactly 0 and its partner 1, as in build_geometry
    p = 0.0 if g.p < DEGENERATE_TOL else 1.0 if 1.0 - g.p < DEGENERATE_TOL else g.p
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    # Rows m+, m-, l+, l-, a+, a-, b+, b-
    pairs = np.concatenate([*_inplane_pair(t_m), *_inplane_pair(t_l), *_inplane_pair(0.0),
                            *_inplane_pair(t_b)]).reshape(8, 2)
    # First-qubit factors of the four vectors, in outcome order: paired with
    # |b+> the m and l eigenstates (l on the antipodal branch), paired with
    # |b-> a+, a- and their turns by e.
    with_plus = np.array([sp, -sq, -sq, sp])[:, None] * pairs[[0, 2, 3, 1]]
    with_minus = np.array([[sq, 0.0], [-sp * cos_e, -sp * sin_e],
                           [sp * sin_e, -sp * cos_e], [0.0, sq]]) @ pairs[4:6]
    vecs = (with_plus[:, :, None] * pairs[6] + with_minus[:, :, None] * pairs[7]).reshape(4, 4)
    prods = (pairs[4:6, None, :, None] * pairs[None, 6:, None, :]).reshape(4, 4)
    w = (v[:, None, :, None] * v[None, :, None, :]).reshape(4, 4)
    mapped = w @ vecs.T
    residual = float(np.abs(mapped.conj().T @ mapped - _IDENTITY_4).max())
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


def _kept(g: MeasurementGeometry, name: str, build) -> np.ndarray:
    """build(g), built on the first request and then kept on g read-only under name.

    A geometry is immutable, so a map derived from it stays valid for its
    lifetime.  A build that raises keeps nothing.
    """
    value = g.__dict__.get(name)
    if value is None:
        value = build(g)
        value.setflags(write=False)
        object.__setattr__(g, name, value)
    return value


def _isometry(g: MeasurementGeometry) -> np.ndarray:
    """Clone isometry K = U (1 (x) |b+>), 4x2: K psi is U applied to |psi>|b+>."""
    return _kept(g, "_clone_isometry",
                 lambda g: clone_unitary(g).reshape(4, 2, 2) @ spin_eigenstates(g.b)[0])


def _product_dagger(g: MeasurementGeometry) -> np.ndarray:
    """P^dag = conj(product_basis(g)), 4x4: row i maps a state to its prod_i amplitude."""
    return _kept(g, "_clone_product_dagger", lambda g: np.conj(product_basis(g)))


def _output(joint: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray, probabilities: np.ndarray,
            lambdas: np.ndarray | None = None) -> CloneOutput:
    """Package a clone with reduced states rho_a and rho_b."""
    joint.setflags(write=False)
    return CloneOutput(joint, rho_a, rho_b, _bloch(rho_a), _bloch(rho_b), probabilities, lambdas)


def clone_pure(g: MeasurementGeometry, psi) -> CloneOutput:
    """Clone a pure state: the output K|psi> is U applied to |psi> and the b+ ancilla.

    The product-basis weights of the output equal the joint outcome
    distribution of the measurement on psi.
    """
    psi = as_state(psi)
    joint = _isometry(g) @ psi
    lambdas = _product_dagger(g) @ joint
    # joint[2i + j] = J[i, j], so tracing out either qubit of |joint><joint| is a 2x2 product
    j = joint.reshape(2, 2)
    return _output(joint, j @ j.conj().T, j.T @ j.conj(), np.abs(lambdas) ** 2, lambdas)


def clone_mixed(g: MeasurementGeometry, rho) -> CloneOutput:
    """Clone a mixed state: K rho K^dag, i.e. rho (x) |b+><b+| conjugated by the unitary."""
    rho = as_density(rho, dim=2)
    k, p_dag = _isometry(g), _product_dagger(g)
    joint = k @ rho @ k.conj().T
    # diag(P^dag joint P): the product-basis weights of joint
    probs = ((p_dag @ joint) * p_dag.conj()).sum(1).real
    return _output(joint, *_reduced(joint), probs)


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
