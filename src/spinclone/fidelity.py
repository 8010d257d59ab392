"""Cloning fidelities: sphere averages read off the cloner's isometry, and closed forms.

The averages see the measurement only through the cloner's isometry
K = U (1 (x) |b+>) and conjugated product basis P^dag (:mod:`spinclone.cloner`).
Each output's Bloch vector is an affine map of the input's, c -> M_x c + t_x,
and the sphere average of (1 + c.(M_x c + t_x))/2 is 1/2 + tr(M_x)/6 (Werner,
PRA 58, 1827 (1998)).  With k4[a, b, j] = K[2a + b, j], tr_a K = sum_a k4[a, b, a]
and tr_b K = sum_b k4[a, b, b] that is 1/3 + |tr_x K|^2/6, where 1/3 = tr(K^dag K)/6
holds as far as K is an isometry (its Gram check); F_a and F_b take no nodes.

The nodes serve the two-copy averages.  At each node K|psi> splits into four
product-basis branches x_k = <psi psi|prod_k> lambda_k, lambda = P^dag K psi,
where |lambda_k|^2 is the joint outcome distribution.  The cloner adds them
coherently, F_av = |sum_k x_k|^2; measure-and-prepare adds them incoherently,
F_m = sum_k |x_k|^2.  The rule is Gauss-Legendre in cos(theta) crossed with a
uniform (periodic trapezoid) grid in phi, with twice as many phi nodes as
theta nodes; a geometry's node contributions are combined by numpy's pairwise
summation along its own row, so they do not depend on the other geometries
evaluated with it.  Both integrands are polynomials of degree <= 3 in the
input Bloch vector, and the default resolution 2 (2 cos(theta) by 4 phi
nodes) averages them exactly, like a spherical 3-design (Delsarte, Goethals
and Seidel, Geom. Dedicata 6, 363 (1977)).  Proof: a monomial x^i y^j z^k with
i+j+k <= 3 has phi-degree i+j <= 3, which the 4-node trapezoid rule
integrates exactly; its phi average vanishes unless i and j are even, and
what is left, (1-z^2)^((i+j)/2) z^k with z = cos(theta), has degree <= 3,
which 2-node Gauss-Legendre integrates exactly.  Higher resolutions serve
convergence studies; :func:`sphere_grid` and :func:`sphere_average` take any
function and default to 64.  These averages are the ground truth.  Closed
forms are evaluated verbatim and compared against them; disagreements are
reported in :class:`FidelityReport.discrepancies`, not silently corrected.

F_m also has a closed form, :func:`f_m_closed`; no report field holds it and
no flag compares it.  For qubit projectors A, B, C on Bloch vectors a, b, c,
the third moment int |psi><psi|^(x)3 dpsi = P_sym/4 gives

    int <psi|A|psi><psi|B|psi><psi|C|psi> dpsi = (3 + a.b + a.c + b.c)/24,

since tr((A (x) B (x) C) P_sym) is the mean over the six permutations and
tr(ABC) + tr(ACB) = (1 + a.b + a.c + b.c)/2.  Measure-and-prepare answers
outcome k, of POVM element w_k (1 + n_k.sigma)/2, with the product of the
a_k and b_k eigenstates, so F_m = sum_k w_k (3 + n_k.a_k + n_k.b_k + a_k.b_k)/24
over (w_k, n_k, a_k, b_k) = (p, +-m, +-a, +-b) and (1-p, +-l, +-a, -+b).  With
2p m = alpha a + beta b and 2(1-p) l = alpha a - beta b the four terms sum to

    F_m = 1/4 + (alpha + beta)/12 + (2p - 1) cos(eta)/12.

One kernel evaluates a stack of geometries as a single array program: the
cloner builds K and P^dag for the whole stack in one call, and the averages,
closed forms and discrepancy flags are computed for the whole stack at once.
A stack keeps no machine on its geometries.  The machines it builds equal,
bit for bit, the ones a clone keeps, except on a stack whose every geometry
lies in the canonical frame (a = z, b in the x-z plane, as in every sweep):
the cloner reads those off real arrays, within 1e-15 of the kept ones.
``_stack_values`` splits a list of geometries into stacks of at most
``STACK_NODES`` node evaluations (a whole sweep row at the default
resolution, one geometry at resolution 64) and
gives each stack's values as arrays, one row per report field, one column
per geometry, with the names of the closed forms flagged at each geometry.
:func:`fidelity_reports` builds its reports from those columns, the
command-line sweep prints all of them but the last, ``f_b_quad``, as its
rows, with no report per geometry, and :func:`fidelity_report` is the call
on a single geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from . import cloner
from .linalg import _inplane_pair, as_density, as_state
from .measurement import MeasurementGeometry

#: Gauss-Legendre nodes in cos(theta), phi gets twice as many; 2 is exact.
DEFAULT_RESOLUTION = 2

#: Closed form vs quadrature disagreements above this are flagged.
DISCREPANCY_TOL = 1e-6


@lru_cache(maxsize=8)
def _grid_data(resolution: int) -> tuple[np.ndarray, ...]:
    """Geometry-independent nodes |psi>, weights and <psi psi|, cached; no Bloch vectors."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution!r}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(resolution)
    theta = np.arccos(nodes)
    n_phi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    # (cos(theta/2), sin(theta/2)) per theta node, repeated over the phi nodes
    c, s = np.repeat([_inplane_pair(t)[0] for t in theta.tolist()], n_phi, axis=0).T
    states = np.stack([c, np.exp(1j * np.tile(phi, resolution)) * s], axis=1)
    weights = np.repeat(gl_weights / 2.0, n_phi) / n_phi
    pair_conj = np.einsum("ni,nj->nij", states.conj(), states.conj()).reshape(-1, 4)
    cached = (states, weights, pair_conj)
    for arr in cached:
        arr.setflags(write=False)
    return cached


def sphere_grid(resolution: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes as pure states plus weights summing to one.

    States are (cos(theta/2), e^{i phi} sin(theta/2)) on the product grid
    of ``resolution`` Gauss-Legendre nodes in cos(theta) and
    ``2 * resolution`` uniform nodes in phi.
    """
    return _grid_data(resolution)[:2]


def sphere_average(f, resolution: int = 64) -> float:
    """Uniform average of a state-indexed function over all pure states.

    ``f`` takes a normalized length-2 complex state vector and returns a
    real number.
    """
    states, weights = sphere_grid(resolution)
    values = np.fromiter((f(s) for s in states), dtype=float, count=len(weights))
    return float(weights @ values)


def haar_states(count: int, seed: int = 0) -> np.ndarray:
    """Haar-random pure states: two standard normals per complex amplitude."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def global_fidelity(psi, joint) -> float:
    """Squared overlap of a two-qubit state with two perfect copies of psi."""
    psi = as_state(psi)
    joint = as_state(np.asarray(joint, dtype=complex), dim=4)
    return float(np.abs(np.vdot(np.kron(psi, psi), joint)) ** 2)


def mixed_fidelity(psi, rho12) -> float:
    """Two-copy fidelity <psi psi| rho |psi psi> of a two-qubit density operator."""
    psi = as_state(psi)
    rho12 = as_density(rho12, dim=4)
    target = np.kron(psi, psi)
    return float(np.vdot(target, rho12 @ target).real)


def _closed_forms(alpha, beta, eta, p) -> np.ndarray:
    """Closed forms (F_av, F_a, F_b, F_ma, F_mb, F_m) over arrays of the geometry parameters.

    Evaluated verbatim, one row per closed form; F_av and F_a are singular
    (nan) where the m-axis weight p vanishes.
    """
    root_a = np.sqrt(np.maximum(1.0 - alpha * alpha, 0.0))
    root_b = np.sqrt(np.maximum(1.0 - beta * beta, 0.0))
    cos, sin = np.cos(eta), np.sin(eta)
    f_m = 0.25 + (alpha + beta) / 12.0 + (2.0 * p - 1.0) * cos / 12.0
    p = np.where(p > 0.0, p, np.nan)  # a nan p carries into both singular forms
    # The term F_av and F_a share, over 24p and over 12p
    shared = alpha * root_b + beta * root_b * cos + beta * root_a * sin
    f_av = (
        0.25
        + alpha / 12.0
        + beta / 12.0
        + alpha * beta / 12.0 * cos ** 2
        + root_b / 12.0
        + root_a / 12.0 * sin
        + shared / (24.0 * p)
    )
    f_a = 0.5 + alpha / 6.0 + root_b / 6.0 + shared / (12.0 * p)
    f_b = 0.5 + beta / 6.0
    return np.array([f_av, f_a, f_b, 0.5 + alpha / 6.0, f_b, f_m])


def _closed_of(g: MeasurementGeometry) -> list[float]:
    """The six closed forms of :func:`_closed_forms` for one geometry."""
    return _closed_forms(g.alpha, g.beta, g.eta, g.p).tolist()


def f_av_closed(g: MeasurementGeometry) -> float:
    """Closed form for the average global fidelity of the coherent cloner.

    Evaluated verbatim; singular (nan) when the m-axis weight p vanishes.
    """
    return _closed_of(g)[0]


def f_single_closed(g: MeasurementGeometry) -> tuple[float, float]:
    """Closed forms for the averaged single-clone fidelities (F_a, F_b)."""
    f_a, f_b = _closed_of(g)[1:3]
    return f_a, f_b


def f_mixed_closed(g: MeasurementGeometry) -> tuple[float, float]:
    """Averaged single-clone fidelities of the measure-and-prepare scheme.

    The b-side value coincides with the coherent cloner's; the a-side one
    does not, since the coherent cloner keeps extra information about the
    original in its first output.
    """
    f_ma, f_mb = _closed_of(g)[3:5]
    return f_ma, f_mb


def f_m_closed(g: MeasurementGeometry) -> float:
    """Closed form for the average two-copy fidelity of measure-and-prepare.

    F_m = 1/4 + (alpha + beta)/12 + (2p - 1) cos(eta)/12, derived in the
    module docstring; finite at every p, including the corners p = 0 and 1.
    """
    return _closed_of(g)[5]


def universal_baseline() -> tuple[float, tuple[float, float]]:
    """Product of single-copy fidelities and sharpness pair of the universal cloner.

    The symmetric state-independent (Buzek-Hillery) cloner shrinks Bloch
    vectors by 2/3, so used as a joint measurement it reaches sharpness
    (2/3, 2/3), which never saturates the admissibility bound for
    non-parallel axes.  Each of its copies has single-copy fidelity 5/6, and
    25/36 = (5/6)^2 is the product of the two.  It is not the cloner's
    two-copy fidelity <psi psi|rho_12|psi psi>: the copies are entangled,
    and that average is 2/3.
    """
    return 25.0 / 36.0, (2.0 / 3.0, 2.0 / 3.0)


@dataclass(frozen=True)
class FidelityReport:
    """Sphere-averaged and closed-form fidelities for one measurement geometry.

    The averaged entries (``*_quad``) are authoritative: ``f_a_quad`` and
    ``f_b_quad`` are read off the clone isometry, exact at every resolution.
    ``discrepancies`` names every closed form that differs from its averaged
    counterpart by more than the flag tolerance.  The field order is the
    column order of ``spinclone sweep``: its columns are the first 13
    fields, then the flags; ``f_b_quad``, which the sweep leaves out, comes
    last before ``discrepancies``.
    """

    alpha: float
    beta: float
    eta: float
    p: float
    epsilon: float
    f_av_quad: float
    f_av_closed: float
    f_m_quad: float
    f_a_quad: float
    f_a_closed: float
    f_b_closed: float
    f_ma_closed: float
    f_mb_closed: float
    f_b_quad: float
    discrepancies: tuple[str, ...]


#: Flagged closed forms, in the order of :func:`_closed_forms` and the quadrature averages.
_FLAG_NAMES = ("f_av", "f_a", "f_b")

#: Node evaluations one stack may hold: the 64 x 128 nodes of one geometry at
#: resolution 64.  A geometry whose grid is larger is a stack of its own.
STACK_NODES = 8192


def _stack_averages(geometries, resolution: int) -> np.ndarray:
    """Sphere averages (F_av, F_a, F_b, F_m) of a stack of N geometries, shape (4, N)."""
    states, weights, pair_conj = _grid_data(resolution)
    k, p_dag = cloner._stack_machines(geometries)
    p_adj = p_dag.transpose(0, 2, 1)
    outputs = states @ k.transpose(0, 2, 1)  # (N, nodes, 4): K psi at each node

    # Branch k of the output: <psi psi|prod_k> times the clone amplitude lambda_k
    branches = (pair_conj @ p_adj.conj()) * (outputs @ p_adj)
    f_global = np.abs(branches.sum(axis=2)) ** 2
    f_m = np.sum(np.abs(branches) ** 2, axis=2)

    # F_x = 1/3 + |tr_x K|^2 / 6, k4[a, b, j] = K[2a + b, j]; 1/3 = tr(K^dag K)/6 for an isometry K
    k4 = k.reshape(-1, 2, 2, 2)
    f_a, f_b = (1.0 / 3.0 + np.sum(np.abs(np.einsum(spec, k4)) ** 2, axis=1) / 6.0
                for spec in ("gaba->gb", "gabb->ga"))
    # Pairwise summation along each row: a geometry's averages do not depend on its stack
    return np.array([(f_global * weights).sum(axis=1), f_a, f_b, (f_m * weights).sum(axis=1)])


def _stack_values(geometries, resolution: int):
    """Values and flag names of each stack of ``geometries``, in order.

    Each stack holds at most ``STACK_NODES`` node evaluations, and at least
    one geometry.  Its values have one row per :class:`FidelityReport`
    field but ``discrepancies``, in field order, and one column per
    geometry; its flag names are one tuple of ``_FLAG_NAMES`` entries per
    geometry, the closed forms flagged there.
    """
    geometries = list(geometries)
    size = max(1, STACK_NODES // len(_grid_data(resolution)[1]))
    for start in range(0, len(geometries), size):
        stack = geometries[start:start + size]
        params = np.array([(g.alpha, g.beta, g.eta, g.p, g.epsilon) for g in stack]).T
        quad = _stack_averages(stack, resolution)
        closed = _closed_forms(*params[:4])
        # Rows f_av, f_a, f_b of both; a comparison with nan is False, hence isfinite
        bad = ~np.isfinite(closed[:3]) | (np.abs(closed[:3] - quad[:3]) > DISCREPANCY_TOL)
        (av_q, a_q, b_q, m_q), (av_c, a_c, b_c, ma_c, mb_c, _) = quad, closed
        values = np.array([*params, av_q, av_c, m_q, a_q, a_c, b_c, ma_c, mb_c, b_q])
        yield values, [tuple(compress(_FLAG_NAMES, flags)) for flags in bad.T.tolist()]


def fidelity_reports(geometries, resolution: int = DEFAULT_RESOLUTION) -> list[FidelityReport]:
    """:func:`fidelity_report` of each geometry, read off the stacks of ``_stack_values``."""
    return [FidelityReport(*row, flagged)
            for values, names in _stack_values(geometries, resolution)
            for row, flagged in zip(values.T.tolist(), names)]


def fidelity_report(
    g: MeasurementGeometry,
    resolution: int = DEFAULT_RESOLUTION,
) -> FidelityReport:
    """Compute all fidelity averages for a geometry and flag disagreements."""
    return fidelity_reports([g], resolution)[0]
