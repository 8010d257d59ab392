"""Cloning fidelities: sphere averages by quadrature and closed forms.

The quadrature rule for averaging over pure input states is
Gauss-Legendre in cos(theta) crossed with a uniform (periodic trapezoid)
grid in phi, with twice as many phi nodes as theta nodes.  Node
contributions are combined with numpy's pairwise summation, which is
deterministic and independent of evaluation order.

Every integrand of :func:`fidelity_report` is a polynomial of degree <= 3 in
the input Bloch vector (at most cubic in |psi><psi|).  The default
resolution 2 (2 cos(theta) by 4 phi nodes) averages all of them exactly,
like a spherical 3-design (Delsarte, Goethals and Seidel, Geom. Dedicata 6,
363 (1977)).  Proof: a monomial x^i y^j z^k with i+j+k <= 3 has phi-degree
i+j <= 3, which the 4-node trapezoid rule integrates exactly; its phi
average vanishes unless i and j are even, and what is left,
(1-z^2)^((i+j)/2) z^k with z = cos(theta), has degree <= 3, which 2-node
Gauss-Legendre integrates exactly.  Higher resolutions serve convergence
studies; :func:`sphere_grid` and :func:`sphere_average` take any function
and default to 64.

The quadrature sees the measurement only through the cloner's isometry
K = U (1 (x) |b+>) and conjugated product basis P^dag (:mod:`spinclone.cloner`).
At each node K|psi> splits into four product-basis branches
x_k = <psi psi|prod_k> lambda_k, lambda = P^dag K psi, where |lambda_k|^2 is
the joint outcome distribution.  The cloner adds the branches coherently,
F_av = |sum_k x_k|^2; measure-and-prepare adds them incoherently,
F_m = sum_k |x_k|^2.  These averages are the ground truth.  Closed forms
are evaluated verbatim and compared against quadrature; disagreements are
reported in :class:`FidelityReport.discrepancies`, not silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cloner
from .linalg import as_density, as_state
from .measurement import MeasurementGeometry

#: Gauss-Legendre nodes in cos(theta), phi gets twice as many; 2 is exact.
DEFAULT_RESOLUTION = 2

#: Closed form vs quadrature disagreements above this are flagged.
DISCREPANCY_TOL = 1e-6


@lru_cache(maxsize=8)
def _grid_data(resolution: int) -> tuple[np.ndarray, ...]:
    """Geometry-independent nodes |psi>, weights, <psi| and <psi psi|, cached; no Bloch vectors."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution!r}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(resolution)
    theta = np.arccos(nodes)
    n_phi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    states = np.stack(
        [np.cos(th / 2).ravel(),
         np.exp(1j * ph.ravel()) * np.sin(th / 2).ravel()],
        axis=1,
    )
    weights = np.repeat(gl_weights / 2.0, n_phi) / n_phi
    states_conj = states.conj()
    pair_conj = np.einsum("ni,nj->nij", states_conj, states_conj).reshape(-1, 4)
    cached = (states, weights, states_conj, pair_conj)
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


def f_av_closed(g: MeasurementGeometry) -> float:
    """Closed form for the average global fidelity of the coherent cloner.

    Evaluated verbatim; singular (nan) when the m-axis weight p vanishes.
    """
    alpha, beta, eta, p = g.alpha, g.beta, g.eta, g.p
    if p <= 0.0:
        return float("nan")
    root_a = np.sqrt(max(1.0 - alpha * alpha, 0.0))
    root_b = np.sqrt(max(1.0 - beta * beta, 0.0))
    return float(
        0.25
        + alpha / 12.0
        + beta / 12.0
        + alpha * beta / 12.0 * np.cos(eta) ** 2
        + root_b / 12.0
        + root_a / 12.0 * np.sin(eta)
        + (alpha * root_b + beta * root_b * np.cos(eta) + beta * root_a * np.sin(eta))
        / (24.0 * p)
    )


def f_single_closed(g: MeasurementGeometry) -> tuple[float, float]:
    """Closed forms for the averaged single-clone fidelities (F_a, F_b)."""
    alpha, beta, eta, p = g.alpha, g.beta, g.eta, g.p
    f_b = 0.5 + beta / 6.0
    if p <= 0.0:
        return float("nan"), f_b
    root_a = np.sqrt(max(1.0 - alpha * alpha, 0.0))
    root_b = np.sqrt(max(1.0 - beta * beta, 0.0))
    f_a = (
        0.5
        + alpha / 6.0
        + root_b / 6.0
        + (alpha * root_b + beta * np.cos(eta) * root_b + beta * np.sin(eta) * root_a)
        / (12.0 * p)
    )
    return float(f_a), float(f_b)


def f_mixed_closed(g: MeasurementGeometry) -> tuple[float, float]:
    """Averaged single-clone fidelities of the measure-and-prepare scheme.

    The b-side value coincides with the coherent cloner's; the a-side one
    does not, since the coherent cloner keeps extra information about the
    original in its first output.
    """
    return 0.5 + g.alpha / 6.0, 0.5 + g.beta / 6.0


def universal_baseline() -> tuple[float, tuple[float, float]]:
    """Two-copy fidelity and sharpness pair of the universal cloner.

    The symmetric state-independent cloner shrinks Bloch vectors by 2/3,
    so used as a joint measurement it reaches sharpness (2/3, 2/3), which
    never saturates the admissibility bound for non-parallel axes.  Its
    two-particle fidelity is (5/6)^2 = 25/36.
    """
    return 25.0 / 36.0, (2.0 / 3.0, 2.0 / 3.0)


@dataclass(frozen=True)
class FidelityReport:
    """Quadrature and closed-form fidelities for one measurement geometry.

    Quadrature entries (``*_quad``) are the authoritative values;
    ``discrepancies`` names every closed form that differs from its
    quadrature counterpart by more than the flag tolerance.
    """

    alpha: float
    beta: float
    eta: float
    p: float
    epsilon: float
    f_av_quad: float
    f_av_closed: float
    f_a_quad: float
    f_a_closed: float
    f_b_quad: float
    f_b_closed: float
    f_m_quad: float
    f_ma_closed: float
    f_mb_closed: float
    discrepancies: tuple[str, ...]


def _quadrature_averages(g: MeasurementGeometry, resolution: int):
    """Vectorized sphere averages (F_av, F_a, F_b, F_m) for one geometry."""
    states, weights, states_conj, pair_conj = _grid_data(resolution)
    outputs = states @ cloner._isometry(g).T
    p_dag = cloner._product_dagger(g)

    # Branch k of the output: <psi psi|prod_k> times the clone amplitude lambda_k
    branches = (pair_conj @ p_dag.conj().T) * (outputs @ p_dag.T)
    f_global = np.abs(branches.sum(axis=1)) ** 2
    f_m = np.sum(np.abs(branches) ** 2, axis=1)

    out_mat = outputs.reshape(-1, 2, 2)
    f_a = np.sum(np.abs(np.einsum("ni,nij->nj", states_conj, out_mat)) ** 2, axis=1)
    f_b = np.sum(np.abs(np.einsum("nij,nj->ni", out_mat, states_conj)) ** 2, axis=1)

    return (
        float(weights @ f_global),
        float(weights @ f_a),
        float(weights @ f_b),
        float(weights @ f_m),
    )


def fidelity_report(
    g: MeasurementGeometry,
    resolution: int = DEFAULT_RESOLUTION,
) -> FidelityReport:
    """Compute all fidelity averages for a geometry and flag disagreements."""
    av_quad, a_quad, b_quad, m_quad = _quadrature_averages(g, resolution)
    av_closed = f_av_closed(g)
    a_closed, b_closed = f_single_closed(g)
    ma_closed, mb_closed = f_mixed_closed(g)
    flags = []
    for name, closed, quad in (
        ("f_av", av_closed, av_quad),
        ("f_a", a_closed, a_quad),
        ("f_b", b_closed, b_quad),
    ):
        if not np.isfinite(closed) or abs(closed - quad) > DISCREPANCY_TOL:
            flags.append(name)
    return FidelityReport(
        alpha=g.alpha,
        beta=g.beta,
        eta=g.eta,
        p=g.p,
        epsilon=g.epsilon,
        f_av_quad=av_quad,
        f_av_closed=av_closed,
        f_a_quad=a_quad,
        f_a_closed=a_closed,
        f_b_quad=b_quad,
        f_b_closed=b_closed,
        f_m_quad=m_quad,
        f_ma_closed=ma_closed,
        f_mb_closed=mb_closed,
        discrepancies=tuple(flags),
    )
