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

The clone functions read the machine as the 4x2 isometry K = U (1 (x) |b+>)
and the conjugated product basis P^dag.  The first clone on a geometry
builds both and keeps them on it read-only, so cloning many states with one
geometry builds the machine once.  The sphere averages of
:mod:`spinclone.fidelity` build the machines of a whole stack of geometries
in one call and keep none; a machine's bits do not depend on its stack, so
they equal the kept ones.  A build is a scalar table per geometry (the frame
map, the in-plane projections, the dilation factors and the eigenstate
amplitudes of a and b) followed by one array step over the stack; a clone's
build is a stack of one.  The build never forms U.  It takes the frame map
V, W = V (x) V and the real canonical-frame dilation vectors vec_k and
products prod_k that :func:`clone_unitary` uses, behind the same Gram check
on W vec_k, and forms K = W K~ V^dag with K~ = sum_k s_k prod_k r_k^T, where
r_k is vec_k contracted on its second qubit with V^dag |b+>; P^dag comes
from the eigenstate amplitudes of a and b.  The public :func:`clone_unitary`,
:func:`naimark_basis` and :func:`product_basis` build fresh arrays on every
call and are not on the clone path.  A clone reads its reduced states and
Bloch vectors off the joint's entries: with J the 2x2 reshape of a pure
output, rho_a = J J^dag and rho_b = J^T J^*; for a mixed output they are
linalg's partial traces of K rho K^dag.

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
from itertools import chain

import numpy as np

from .linalg import _dot, _inplane_pair, _qubit, _reduced, _spin_amplitudes, as_density, as_state
from .measurement import DEGENERATE_TOL, MeasurementGeometry, _born_probabilities

#: Gram residual above which the basis constructor refuses to return.
ORTHONORMALITY_TOL = 1e-10

#: Signs of the product states in the cloning unitary, in outcome order.
_CLONE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

_IDENTITY_4 = np.eye(4, dtype=complex)


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


#: a+, a- in the canonical frame, where a lies along z.
_A_PAIR = np.array(_inplane_pair(0.0))


def _frame_map(a: list[float], b: list[float]) -> tuple[list[float], list[complex], tuple]:
    """Frame axis e1, the SU(2) map V taking z and x to a and e1, and a's eigenstate amplitudes.

    With (a+, a-) the package eigenstates of a, the real and imaginary parts
    f1, f2 of <a-|sigma|a+> are the images of x, y under [|a+>, |a->].  chi,
    the phase of b.(f1 + i f2), is the azimuth of b about a measured from f1;
    turning by it puts e1 = Re(e^{-i chi} (f1 + i f2)) along b's component
    orthogonal to a, and V = [|a+> e^{-i chi/2}, |a-> e^{i chi/2}], whose four
    entries are returned row by row.
    """
    amplitudes = (p0, p1), (m0, m1) = _spin_amplitudes(a)
    n0, n1 = m0.conjugate(), m1.conjugate()
    f = (n0 * p1 + n1 * p0, 1j * (n1 * p0 - n0 * p1), n0 * p0 - n1 * p1)
    chi = cmath.phase(_dot(b, f))
    turn = cmath.exp(-1j * chi)
    e1 = [(turn * x).real for x in f]
    u = cmath.exp(-0.5j * chi)
    uc = u.conjugate()
    return e1, [p0 * u, m0 * uc, p1 * u, m1 * uc], amplitudes


def _products(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Rows |a_i>|b_j> in outcome order, (..., 4, 4), from stacks (..., 2, 2) of pairs a+-, b+-."""
    # Row 2i + j, entry 2k + l, is a_i[k] b_j[l]: np.kron of the two pairs, by broadcasting
    rows = ea[..., :, None, :, None] * eb[..., None, :, None, :]
    return rows.reshape(*rows.shape[:-4], 4, 4)


def product_basis(g: MeasurementGeometry) -> list[np.ndarray]:
    """Product states |a_i>|b_j> in outcome order, under package conventions.

    These are the states prepared by the measure-and-prepare scheme and the
    basis in which clone amplitudes are reported.
    """
    pairs = np.array([_spin_amplitudes(g.a.tolist()), _spin_amplitudes(g.b.tolist())])
    return list(_products(pairs[0], pairs[1]))


def _machine_table(g: MeasurementGeometry) -> tuple[list[float], list[complex]]:
    """The scalar, per-geometry part of a machine build, as one real and one complex row.

    Both rows are 2x2 blocks laid end to end.  The 20 reals are the 16
    canonical-frame factors, in the order of the ``(4, 2, 2)`` table below,
    then b+ and b- in the canonical x-z plane.  The 12 complex entries are V
    row by row, then the package amplitudes of (a+, a-) and of (b+, b-).
    """
    a, b = g.a.tolist(), g.b.tolist()
    e1, v, a_pair = _frame_map(a, b)
    # Signed polar angle in the canonical x-z plane; +0.0 keeps atan2 off the
    # negative branch when the x component underflows to -0.0
    t_m, t_l, t_b = (math.atan2(_dot(n, e1) + 0.0, _dot(n, a))
                     for n in (g.m.tolist(), g.l.tolist(), b))
    # e = pi - (t_m - t_l)/2, so (-cos(e), sin(e)) is the in-plane plus at t_m - t_l
    (cos_half, sin_e), _ = _inplane_pair(t_m - t_l)
    cos_e = -cos_half
    # A weight below DEGENERATE_TOL is exactly 0 and its partner 1, as in build_geometry
    p = 0.0 if g.p < DEGENERATE_TOL else 1.0 if 1.0 - g.p < DEGENERATE_TOL else g.p
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    ((mp0, mp1), (mm0, mm1)), ((lp0, lp1), (lm0, lm1)), (b_plus, b_minus) = map(
        _inplane_pair, (t_m, t_l, t_b))
    # factors[k][i][j]: amplitude i of the first-qubit factor of vector k that
    # pairs with |b+> (j = 0) or |b-> (j = 1), in outcome order.  With |b+> come
    # the m eigenstates and the l eigenstates on the antipodal branch; with |b->
    # come a+, a- (the unit vectors, a lying along z) and their turns by e.
    reals = [sp * mp0, sq, sp * mp1, 0.0,
             -sq * lp0, -sp * cos_e, -sq * lp1, -sp * sin_e,
             -sq * lm0, sp * sin_e, -sq * lm1, -sp * cos_e,
             sp * mm0, 0.0, sp * mm1, sq, *b_plus, *b_minus]
    b_pair = _spin_amplitudes(b)
    return reals, [*v, *a_pair[0], *a_pair[1], *b_pair[0], *b_pair[1]]


def _dilations(geometries) -> tuple[np.ndarray, ...]:
    """Frame maps and dilations of a stack of N geometries, in one array step.

    Takes each geometry's :func:`_machine_table` and returns W = V (x) V, the
    real canonical-frame ``vecs`` and ``prods`` (rows: the dilation vectors and
    the products |a_i>|b_j> in outcome order), the package products
    P = product_basis, each (N, 4, 4), and the table's complex blocks
    (N, 3, 2, 2): V, (a+, a-) and (b+, b-).  Raises
    :class:`OrthonormalityFailure` if the Gram matrix of ``w @ vecs.T`` misses
    the identity by > ``ORTHONORMALITY_TOL`` on any geometry of the stack.
    """
    reals, complexes = zip(*map(_machine_table, geometries))
    n = len(reals)
    # One flat pass over the rows; np.array would first discover their nesting
    real_blocks = np.fromiter(chain.from_iterable(reals), float, 20 * n).reshape(n, 5, 2, 2)
    blocks = np.fromiter(chain.from_iterable(complexes), complex, 12 * n).reshape(n, 3, 2, 2)
    # factors[k] @ (b+, b-) for each k: row i, column l holds amplitude 2i + l of vec_k
    vecs = (real_blocks[:, :4] @ real_blocks[:, 4:]).reshape(n, 4, 4)
    prods = _products(_A_PAIR, real_blocks[:, 4])
    # W = V (x) V and P = a+- (x) b+-, in one product
    kron = _products(blocks[:, :2], blocks[:, ::2])
    w = kron[:, 0]
    # Real factors are cast to complex up front: the values matmul's own cast gives, for less
    mapped = w @ vecs.astype(complex).mT
    gram = mapped.conj().mT @ mapped
    gram -= _IDENTITY_4
    residual = float(np.abs(gram).max())
    if not residual <= ORTHONORMALITY_TOL:
        raise OrthonormalityFailure(
            f"dilation basis Gram residual {residual:.3e} exceeds {ORTHONORMALITY_TOL:.0e}; "
            "phase or frame convention is broken"
        )
    return w, vecs, prods, kron[:, 1], blocks


def naimark_basis(g: MeasurementGeometry) -> NaimarkBasis:
    """Construct the orthonormal dilation basis for a measurement geometry.

    Raises :class:`OrthonormalityFailure` if the Gram matrix of the
    constructed vectors misses the identity by more than
    ``ORTHONORMALITY_TOL``.
    """
    w, vecs, prods, products, _ = (x[0] for x in _dilations([g]))
    # Phase of each mapped canonical product state relative to spin_eigenstates;
    # dividing it out keeps the unitary in signed product form in that convention.
    phases = np.einsum("ij,ij->i", products.conj(), prods @ w.T)
    vectors = ((w @ vecs.T) * (phases.conj() / np.abs(phases))).T.copy()
    vectors.setflags(write=False)
    return NaimarkBasis(*vectors)


def clone_unitary(g: MeasurementGeometry) -> np.ndarray:
    """Two-qubit cloning unitary W U_c W^dag, U_c = sum_i s_i |prod_i><vec_i| real."""
    w, vecs, prods = (x[0] for x in _dilations([g])[:3])
    u_c = (prods.T * _CLONE_SIGNS) @ vecs
    return w @ u_c @ w.conj().T


def _build_machines(geometries) -> tuple[np.ndarray, np.ndarray]:
    """Clone isometries K = U (1 (x) |b+>), (N, 4, 2), and P^dag = conj(product_basis), (N, 4, 4).

    K = W K~ V^dag with K~ = sum_k s_k prod_k r_k^T, where r_k is the
    canonical dilation vector vec_k contracted on its second qubit with
    V^dag |b+>: U is never formed.
    """
    w, vecs, prods, products, blocks = _dilations(geometries)
    n = len(w)
    v_dag = blocks[:, 0].conj().mT
    r = vecs.astype(complex).reshape(n, 4, 2, 2) @ (v_dag @ blocks[:, 2, 0, :, None])[:, None]
    k = w @ ((prods.mT * _CLONE_SIGNS).astype(complex) @ r.reshape(n, 4, 2)) @ v_dag
    return k, products.conj()


def _kept(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The machine (K, P^dag) of one geometry, built on first use and then kept on it read-only.

    A geometry is immutable, so a machine built from it stays valid for its
    lifetime.  A build that raises keeps nothing.
    """
    machine = g.__dict__.get("_clone_machine")
    if machine is None:
        k, p_dag = _build_machines([g])
        machine = k[0], p_dag[0]
        for array in machine:
            array.setflags(write=False)
        object.__setattr__(g, "_clone_machine", machine)
    return machine


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
    ((a00, _), (a10, a11)), ((b00, _), (b10, b11)) = _reduced(joint.tolist())
    rho_a, bloch_a = _qubit(a00, a10, a11)
    rho_b, bloch_b = _qubit(b00, b10, b11)
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
    p_dag = _kept(g)[1]
    return (p_dag.conj().T * probs) @ p_dag  # P diag(probs) P^dag, P's columns the products
