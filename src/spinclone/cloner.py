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
in one call and keep none.  A build reads a scalar table per geometry
(:func:`_machine_table`: the frame map V, the in-plane projections, the
dilation factors and the eigenstate amplitudes of a and b), and
:func:`_machine` forms K and P^dag from it on Python scalars, with no
unitary: K = (V (x) V) sum_k s_k |prod_k> h_k^T V^dag, where h_k is the
factor block f_k contracted with the canonical components of V^dag|b+>.
Its Gram check reads the factor table F F^T and V^dag V.  A stack is built
one geometry at a time, so a machine's bits do not depend on its stack.  A
stack whose every geometry lies in the canonical frame itself (a = z, b in
the x-z plane with b_x >= +0.0, as in every sweep) needs no frame map:
there K and P^dag are real, and :func:`_canonical_machines` reads them off
the factor table as arrays over the whole stack, within 1e-15 of the kept
ones.  Both take the factor table from :func:`_real_row`, on a geometry's
floats or a stack's arrays, and it reads the geometry's own p, m, l and b,
so the frontier rule lives in :mod:`spinclone.measurement` alone.  The 4x4
unitary comes from the same formula: one :func:`_machine` pass over both
ancilla states gives K+- = U (1 (x) |b+->), and U = K+ (x) <b+| +
K- (x) <b-|.  The public :func:`clone_unitary` returns that U, and
:func:`naimark_basis` reads vector k off the same pass as s_k U^dag|P_k>,
P_k the package product state of outcome k; they and :func:`product_basis`
build fresh arrays on every call and are not on the clone path, whose pass
forms K+ alone.  A clone reads its reduced states and Bloch vectors off the
joint's entries: with J the 2x2 reshape of a pure output, rho_a = J J^dag
and rho_b = J^T J^*; for a mixed output they are linalg's partial traces of
K rho K^dag.

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
the unitary; :func:`naimark_basis` reads its vectors off U through the
package product states, so they carry the package phases.
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

_IDENTITY_4 = np.eye(4)


class OrthonormalityFailure(RuntimeError):
    """The constructed dilation basis is not orthonormal.

    This signals a broken phase or frame convention inside the package,
    not a user error.
    """

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"dilation basis Gram residual {residual:.3e} exceeds {ORTHONORMALITY_TOL:.0e}; "
            "phase or frame convention is broken"
        )


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


def _real_row(p, t_m, t_l, t_b) -> list:
    """The 20 canonical-frame reals of a machine: its 16 dilation factors, then b+ and b-.

    The inputs are the weight p of m and the signed polar angles of m, l and b
    in the canonical x-z plane, floats for one geometry or arrays of one shape
    for a stack, dispatched as in :func:`spinclone.linalg._inplane_pair`.
    factors[k][i][j] is amplitude i of the first-qubit factor of vector k that
    pairs with |b+> (j = 0) or |b-> (j = 1), in outcome order: with |b+> come
    the m eigenstates and the l eigenstates on the antipodal branch, with |b->
    a+, a- (the unit vectors, a lying along z) and their turns by e.
    """
    # A weight below DEGENERATE_TOL is exactly 0 and its partner 1, as in build_geometry;
    # bools act as 0 and 1 on floats and arrays, and near 1, 1 - p is exact, so p + (1 - p) = 1
    p = (p + (1.0 - p) * (1.0 - p < DEGENERATE_TOL)) * (p >= DEGENERATE_TOL)
    sqrt = math.sqrt if isinstance(p, float) else np.sqrt
    sp, sq = sqrt(p), sqrt(1.0 - p)
    # e = pi - (t_m - t_l)/2, so cos(e) = -cos_half and sin(e) = sin((t_m - t_l)/2)
    (cos_half, sin_e), _ = _inplane_pair(t_m - t_l)
    ((mp0, mp1), (mm0, mm1)), ((lp0, lp1), (lm0, lm1)), (b_plus, b_minus) = map(
        _inplane_pair, (t_m, t_l, t_b))
    zero = 0.0 * sq  # 0.0 for a float, zeros for an array
    return [sp * mp0, sq, sp * mp1, zero,
            -sq * lp0, sp * cos_half, -sq * lp1, -sp * sin_e,
            -sq * lm0, sp * sin_e, -sq * lm1, sp * cos_half,
            sp * mm0, zero, sp * mm1, sq, *b_plus, *b_minus]


def _machine_table(g: MeasurementGeometry) -> tuple[list[float], list[complex]]:
    """The scalar, per-geometry part of a machine build, as one real and one complex row.

    Both rows are 2x2 blocks laid end to end.  The 20 reals are :func:`_real_row`'s,
    on g.p and the polar angles of g.m, g.l and b about a, from e1.  The 12 complex
    entries are V row by row, then the package amplitudes of (a+, a-) and of (b+, b-).
    """
    a, b = g.a.tolist(), g.b.tolist()
    e1, v, a_pair = _frame_map(a, b)
    # Signed polar angle in the canonical x-z plane; +0.0 keeps atan2 off the
    # negative branch when the x component underflows to -0.0
    reals = _real_row(g.p, *[math.atan2(_dot(n, e1) + 0.0, _dot(n, a))
                             for n in (g.m.tolist(), g.l.tolist(), b)])
    b_pair = _spin_amplitudes(b)
    return reals, [*v, *a_pair[0], *a_pair[1], *b_pair[0], *b_pair[1]]


def _machine(g: MeasurementGeometry, halves: int = 1) -> tuple[list[complex], list[complex]]:
    """K+ (and K- if ``halves`` is 2) and P^dag of one geometry, row by row, with no unitary.

    The entries are Python complex numbers, and K+- = U (1 (x) |b+->) are the
    two halves of the cloning unitary U; the clone path forms K = K+ alone.
    Reads :func:`_machine_table`: the factors f_k, the canonical pair b_c+-, V
    and the package amplitudes of a and b.  U (1 (x) |b+->) meets |b+-> only
    through vec_k^dag W^dag, and vec_k = sum_j f_k[:, j] (x) b_cj, so with
    r = V^dag|b+->, q+- = <b_c+-|r> and h_k = q+ f_k[:, 0] + q- f_k[:, 1],
    K+- = W sum_k s_k |prod_k> h_k^T V^dag, prod_k = e_i (x) b_cj for k = 2i + j.
    At V = 1 and q = (1, 0) this is :func:`_canonical_machines`' K_c.  The
    Gram matrix of the dilation vectors W vec_k is F F^T, F the factor table
    flattened per k, and W is unitary when V is, so the residual is the larger
    of |F F^T - 1| and |V^dag V - 1|; above ``ORTHONORMALITY_TOL`` it raises
    :class:`OrthonormalityFailure`.  P^dag's rows are conj(a_i) (x) conj(b_j).
    """
    reals, (v00, v01, v10, v11, ap0, ap1, am0, am1, bp0, bp1, bm0, bm1) = _machine_table(g)
    (pp0, pp1, pp2, pp3, pm0, pm1, pm2, pm3, mp0, mp1, mp2, mp3, mm0, mm1, mm2, mm3,
     cp0, cp1, cm0, cm1) = reals
    c00, c01, c10, c11 = v00.conjugate(), v01.conjugate(), v10.conjugate(), v11.conjugate()
    # The upper triangles of F F^T - 1 and of V^dag V - 1, written out: a generator costs more
    residual = max(map(abs, (
        pp0 * pp0 + pp1 * pp1 + pp2 * pp2 + pp3 * pp3 - 1.0,
        pm0 * pm0 + pm1 * pm1 + pm2 * pm2 + pm3 * pm3 - 1.0,
        mp0 * mp0 + mp1 * mp1 + mp2 * mp2 + mp3 * mp3 - 1.0,
        mm0 * mm0 + mm1 * mm1 + mm2 * mm2 + mm3 * mm3 - 1.0,
        pp0 * pm0 + pp1 * pm1 + pp2 * pm2 + pp3 * pm3,
        pp0 * mp0 + pp1 * mp1 + pp2 * mp2 + pp3 * mp3,
        pp0 * mm0 + pp1 * mm1 + pp2 * mm2 + pp3 * mm3,
        pm0 * mp0 + pm1 * mp1 + pm2 * mp2 + pm3 * mp3,
        pm0 * mm0 + pm1 * mm1 + pm2 * mm2 + pm3 * mm3,
        mp0 * mm0 + mp1 * mm1 + mp2 * mm2 + mp3 * mm3,
        c00 * v00 + c10 * v10 - 1.0, c01 * v01 + c11 * v11 - 1.0, c00 * v01 + c10 * v11)))
    if not residual <= ORTHONORMALITY_TOL:
        raise OrthonormalityFailure(residual)
    # W|prod_k> = V e_i (x) w_j, w_j = V b_cj, so row 2i' + l' of K+- is
    # sum_j w_j[l'] u_j, u_j = sum_i V[i'][i] s_k t_k, k = 2i + j
    wp0, wp1 = v00 * cp0 + v01 * cp1, v10 * cp0 + v11 * cp1
    wm0, wm1 = v00 * cm0 + v01 * cm1, v10 * cm0 + v11 * cm1
    s_pp, s_pm, s_mp, s_mm = _CLONE_SIGNS.tolist()
    k = []
    for b0, b1 in ((bp0, bp1), (bm0, bm1))[:halves]:
        r0, r1 = c00 * b0 + c10 * b1, c01 * b0 + c11 * b1
        qp, qm = cp0 * r0 + cp1 * r1, cm0 * r0 + cm1 * r1
        hpp0, hpp1 = qp * pp0 + qm * pp1, qp * pp2 + qm * pp3
        hpm0, hpm1 = qp * pm0 + qm * pm1, qp * pm2 + qm * pm3
        hmp0, hmp1 = qp * mp0 + qm * mp1, qp * mp2 + qm * mp3
        hmm0, hmm1 = qp * mm0 + qm * mm1, qp * mm2 + qm * mm3
        # t_k = h_k^T V^dag
        tpp0, tpp1 = hpp0 * c00 + hpp1 * c01, hpp0 * c10 + hpp1 * c11
        tpm0, tpm1 = hpm0 * c00 + hpm1 * c01, hpm0 * c10 + hpm1 * c11
        tmp0, tmp1 = hmp0 * c00 + hmp1 * c01, hmp0 * c10 + hmp1 * c11
        tmm0, tmm1 = hmm0 * c00 + hmm1 * c01, hmm0 * c10 + hmm1 * c11
        for x0, x1 in ((v00, v01), (v10, v11)):
            x_pp, x_pm, x_mp, x_mm = x0 * s_pp, x0 * s_pm, x1 * s_mp, x1 * s_mm
            up0, up1 = x_pp * tpp0 + x_mp * tmp0, x_pp * tpp1 + x_mp * tmp1
            um0, um1 = x_pm * tpm0 + x_mm * tmm0, x_pm * tpm1 + x_mm * tmm1
            k += (wp0 * up0 + wm0 * um0, wp0 * up1 + wm0 * um1,
                  wp1 * up0 + wm1 * um0, wp1 * up1 + wm1 * um1)
    ap0, ap1, am0, am1 = ap0.conjugate(), ap1.conjugate(), am0.conjugate(), am1.conjugate()
    bp0, bp1, bm0, bm1 = bp0.conjugate(), bp1.conjugate(), bm0.conjugate(), bm1.conjugate()
    return k, [ap0 * bp0, ap0 * bp1, ap1 * bp0, ap1 * bp1,
               ap0 * bm0, ap0 * bm1, ap1 * bm0, ap1 * bm1,
               am0 * bp0, am0 * bp1, am1 * bp0, am1 * bp1,
               am0 * bm0, am0 * bm1, am1 * bm0, am1 * bm1]


def _build_machines(geometries) -> tuple[np.ndarray, np.ndarray]:
    """Clone isometries K, (N, 4, 2), and P^dag = conj(P), (N, 4, 4), of a stack of N geometries.

    Each geometry's machine is :func:`_machine`'s, on Python scalars, and the
    stack is one array per output, so a machine's bits do not depend on its
    stack.  Python's complex product rounds differently from numpy's, so an
    array step over the stack would not keep that.
    """
    ks, p_dags = zip(*map(_machine, geometries))
    return np.array(ks, complex).reshape(-1, 4, 2), np.array(p_dags, complex).reshape(-1, 4, 4)


def _unitary(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """U and P^dag of one geometry, from one :func:`_machine` pass over both ancilla states.

    K+- = U (1 (x) |b+->) are the pass's two halves, so U = K+ (x) <b+| + K- (x) <b-|.
    """
    k, p_dag = _machine(g, halves=2)
    b_dag = np.conj(_spin_amplitudes(g.b.tolist()))  # rows <b+|, <b-|
    # Row r, column 2i + j of U is sum_h K_h[r, i] <b_h|j>
    u = np.array(k).reshape(2, 4, 2).transpose(1, 2, 0) @ b_dag
    return u.reshape(4, 4), np.array(p_dag).reshape(4, 4)


def naimark_basis(g: MeasurementGeometry) -> NaimarkBasis:
    """Construct the orthonormal dilation basis for a measurement geometry.

    Vector k is s_k U^dag|P_k>, P_k the package product state of outcome k,
    so U maps it onto s_k |P_k>.  The vectors are the dilation vectors W vec_k
    of :func:`_machine` up to a phase each, so its Gram check is theirs: it
    raises :class:`OrthonormalityFailure` if their Gram matrix misses the
    identity by more than ``ORTHONORMALITY_TOL``.
    """
    u, p_dag = _unitary(g)
    # Row k of P^dag U is <P_k|U, the conjugate of U^dag|P_k>
    vectors = (p_dag @ u).conj() * _CLONE_SIGNS[:, None]
    vectors.setflags(write=False)
    return NaimarkBasis(*vectors)


def clone_unitary(g: MeasurementGeometry) -> np.ndarray:
    """Two-qubit cloning unitary U = K+ (x) <b+| + K- (x) <b-|, K+- = U (1 (x) |b+->)."""
    return _unitary(g)[0]


def _canonical_machines(p, m_x, m_z, l_x, l_z, b_x, b_z) -> tuple[np.ndarray, np.ndarray]:
    """K and P^dag, as real arrays, of a stack of canonical geometries, with no unitary.

    A geometry is canonical when a = (0, 0, 1) and b = (b_x, 0, b_z) with
    b_x >= +0.0.  There V = W = 1, e1 = x and b's package amplitudes are its
    real in-plane pair, so P^dag = a+- (x) b+- is real.  The inputs are the
    geometries' own weight p and the x and z components of their m, l and b,
    so the aliased axis where a weight vanishes is build_geometry's, and the
    table is :func:`_real_row`'s on the arrays.  Since
    vec_k = sum_j factors[k][:, j] (x) b_j, the Gram matrix of the vec_k is
    F F^T, F the factor tables flattened per k, and U (1 (x) |b+>) keeps the
    b+ column alone: K = sum_k s_k |prod_k><f_k+|, f_k+ = factors[k][:, 0].
    Raises :class:`OrthonormalityFailure` as :func:`_machine` does.
    """
    # The polar angles of _machine_table at e1 = x, a = z; +0.0 keeps atan2 off
    # the negative branch at -0.0
    rows = _real_row(p, *(np.arctan2(x + 0.0, z) for x, z in ((m_x, m_z), (l_x, l_z), (b_x, b_z))))
    blocks = np.array(rows).T.reshape(-1, 5, 2, 2)
    factors = blocks[:, :4].reshape(-1, 4, 4)
    residual = float(np.abs(factors @ factors.mT - _IDENTITY_4).max())
    if not residual <= ORTHONORMALITY_TOL:
        raise OrthonormalityFailure(residual)
    prods = _products(_A_PAIR, blocks[:, 4])
    return (prods.mT * _CLONE_SIGNS) @ blocks[:, :4, :, 0], prods


def _stack_machines(geometries) -> tuple[np.ndarray, np.ndarray]:
    """K and P^dag of a stack for the sphere averages, keeping none on the geometries.

    A stack whose every geometry is canonical (see :func:`_canonical_machines`)
    is evaluated there, off their own p, m, l and b, as real arrays within 1e-15
    of :func:`_build_machines`; any other stack is built there, bit for bit.
    """
    rows = [(g.p, *g.a.tolist(), *g.b.tolist(), *g.m.tolist(), *g.l.tolist()) for g in geometries]
    p, a_x, a_y, a_z, b_x, b_y, b_z, m_x, _, m_z, l_x, _, l_z = np.fromiter(
        chain.from_iterable(rows), float, 13 * len(rows)).reshape(-1, 13).T
    # A -0.0 in b_x turns b's azimuth, and with it the frame, by pi
    canonical = (a_x == 0.0) & (a_y == 0.0) & (a_z == 1.0) & (b_y == 0.0) & ~np.signbit(b_x)
    if canonical.all():
        return _canonical_machines(p, m_x, m_z, l_x, l_z, b_x, b_z)
    return _build_machines(geometries)


def _kept(g: MeasurementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The machine (K, P^dag) of one geometry, built on first use and then kept on it read-only.

    The build is the stack builder's on the geometry alone, that is one
    :func:`_machine`, so the kept bits are those of the geometry in any stack.
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
