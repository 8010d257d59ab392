"""Optimal joint measurement of two qubit spin components.

A joint measurement along two unit axes ``a`` and ``b`` with sharpnesses
``alpha`` and ``beta`` is admissible only when

    |alpha a + beta b| + |alpha a - beta b| <= 2,

and is optimal when the bound is met with equality.  A saturating
measurement can be realized by measuring along one of two intermediate
axes, chosen at random:

    m = (alpha a + beta b) / (2 p),      p   = |alpha a + beta b| / 2,
    l = (alpha a - beta b) / (2 (1-p)),  1-p = |alpha a - beta b| / 2.

Outcome labels follow the convention that spin up along ``m`` counts as
up-up, down along ``m`` as down-down, up along ``l`` as up along ``a``
and down along ``b``, and down along ``l`` as the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, IDENTITY_2, _bloch, _dot, _pauli, as_density, as_unit_vector

#: Outcome labels, ordered (a-outcome, b-outcome).
OUTCOME_LABELS = ("++", "+-", "-+", "--")

#: Inputs must saturate the admissibility bound to within this tolerance.
SATURATION_TOL = 1e-9

#: Below this weight the corresponding intermediate axis is treated as
#: unused and aliased to the other one.
DEGENERATE_TOL = 1e-12

class NonSaturating(ValueError):
    """Raised when (alpha, beta, axes) do not saturate the admissibility bound."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            "sharpness pair does not saturate the joint-measurement bound: "
            f"|alpha a + beta b| + |alpha a - beta b| - 2 = {residual:.3e}"
        )


@dataclass(frozen=True)
class MeasurementGeometry:
    """Full parameter set of an optimal joint measurement.

    Treat a geometry as immutable: :func:`build_geometry` makes its arrays
    read-only, and :mod:`spinclone.cloner` keeps maps derived from it (the
    clone isometry and the conjugated product basis) on the instance.  For
    other parameters build a new geometry; ``dataclasses.replace`` gives a
    copy that builds its own maps.

    Attributes
    ----------
    a, b : unit 3-vectors, the measured spin axes.
    alpha, beta : sharpness of the a- and b-outcomes, in [0, 1].
    eta : angle between a and b, radians.
    m, l : derived unit axes actually measured along.
    p : probability of measuring along m (1-p for l).
    epsilon : half the angle between m and l, in [0, pi/2].
    """

    a: np.ndarray
    b: np.ndarray
    alpha: float
    beta: float
    eta: float
    m: np.ndarray
    l: np.ndarray
    p: float
    epsilon: float


@dataclass(frozen=True)
class Povm4:
    """Four-outcome probability operator measure, elements keyed by outcome."""

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        return (self.pp, self.pm, self.mp, self.mm)


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four joint outcomes, in label order."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])


def optimality_lhs(alpha: float, beta: float, eta: float) -> float:
    """Left-hand side of the admissibility bound, |aa+bb| + |aa-bb|.

    Equals 2 exactly for optimal joint measurements and is smaller for
    strictly sub-optimal sharpness pairs.
    """
    ab = 2.0 * alpha * beta * np.cos(eta)
    ss = alpha * alpha + beta * beta
    return float(np.sqrt(max(ss + ab, 0.0)) + np.sqrt(max(ss - ab, 0.0)))


def beta_max(alpha: float, eta: float) -> float:
    """Largest b-sharpness compatible with a given alpha and axis angle.

    The saturating value is beta^2 = (1 - alpha^2) / (1 - alpha^2 cos^2 eta),
    evaluated as num / (num + (alpha sin eta)^2) with num = (1 - alpha)(1 + alpha)
    so that neither term cancels near alpha = 1 or near (anti)parallel axes.
    It degenerates to 0/0 only when alpha = 1 and the axes are (anti)parallel;
    there both components can be sharp, so 1 is returned.
    """
    if not 0.0 <= alpha <= 1.0 + ATOL:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    alpha = min(alpha, 1.0)
    num = (1.0 - alpha) * (1.0 + alpha)
    cross = (alpha * math.sin(eta)) ** 2
    if num == 0.0 and cross <= 1e-30:
        return 1.0
    return math.sqrt(num / (num + cross))


def build_geometry(a, b, alpha: float, beta: float) -> MeasurementGeometry:
    """Derive the measurement axes m, l and weights for a saturating input.

    Raises
    ------
    NonSaturating
        If the input violates the bound by more than ``SATURATION_TOL``.
        Off-frontier inputs are rejected rather than projected, since
        silently altering the sharpness pair would corrupt downstream
        fidelity comparisons.
    """
    a, b = as_unit_vector(a).tolist(), as_unit_vector(b).tolist()
    return _build_geometry(a, b, *_sharpness(alpha, beta))


def _sharpness(alpha: float, beta: float) -> tuple[float, float]:
    """alpha and beta as floats; ValueError unless each lies in [0, 1] up to ATOL."""
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not -ATOL <= val <= 1.0 + ATOL:
            raise ValueError(f"{name} must lie in [0, 1], got {val!r}")
    return float(alpha), float(beta)


def _build_geometry(a: list[float], b: list[float], alpha: float, beta: float
                    ) -> MeasurementGeometry:
    """:func:`build_geometry` on unit axes given as float lists and checked sharpnesses.

    Only the saturation check is left, since it needs the derived weights.
    """
    (ax, ay, az), (bx, by, bz) = a, b
    # atan2 of the chord lengths keeps angles that arccos(a.b) rounds to 0 or pi
    eta = 2.0 * math.atan2(math.hypot(ax - bx, ay - by, az - bz),
                           math.hypot(ax + bx, ay + by, az + bz))
    vec_sum = [alpha * ax + beta * bx, alpha * ay + beta * by, alpha * az + beta * bz]
    vec_diff = [alpha * ax - beta * bx, alpha * ay - beta * by, alpha * az - beta * bz]
    p = 0.5 * math.hypot(*vec_sum)
    q = 0.5 * math.hypot(*vec_diff)
    residual = 2.0 * (p + q) - 2.0
    if abs(residual) > SATURATION_TOL:
        raise NonSaturating(residual)
    # When one weight vanishes its axis is undefined; alias it to the other
    # axis, whose operator weight is zero, so the physics is unaffected.
    if 1.0 - p < DEGENERATE_TOL:
        m = l = [x / (2.0 * p) for x in vec_sum]
    elif p < DEGENERATE_TOL:
        m = l = [x / (2.0 * q) for x in vec_diff]
    else:
        m = [x / (2.0 * p) for x in vec_sum]
        l = [x / (2.0 * q) for x in vec_diff]
    (mx, my, mz), (lx, ly, lz) = m, l
    epsilon = math.atan2(math.hypot(mx - lx, my - ly, mz - lz),
                         math.hypot(mx + lx, my + ly, mz + lz))
    # Fresh arrays, so the geometry neither aliases nor freezes the caller's
    a, b, m, l = (np.array(x) for x in (a, b, m, l))
    for arr in (a, b, m, l):
        arr.setflags(write=False)
    return MeasurementGeometry(
        a=a, b=b, alpha=alpha, beta=beta, eta=eta,
        m=m, l=l, p=p, epsilon=epsilon,
    )


def geometry_from_angles(alpha: float, beta: float, eta: float) -> MeasurementGeometry:
    """Geometry in the canonical frame: a along z, b in the x-z plane.

    Both axes are unit vectors by construction, so only eta and the
    sharpnesses are checked.
    """
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    b = [float(np.sin(eta)), 0.0, float(np.cos(eta))]
    return _build_geometry([0.0, 0.0, 1.0], b, *_sharpness(alpha, beta))


def build_povm(g: MeasurementGeometry) -> Povm4:
    """Measurement operators of the optimal joint measurement.

    The up-up/down-down pair carries weight p on the m axis, the mixed
    pair weight 1-p on the l axis.  The four elements are positive and
    sum to the identity.
    """
    return Povm4(*(w / 2 * (IDENTITY_2 + _pauli(n)) for w, n in zip(*_outcome_terms(g))))


def _outcome_terms(g: MeasurementGeometry) -> tuple[tuple[float, ...], tuple[list[float], ...]]:
    """Weights w_k and axes n_k of the four POVM elements w_k/2 (1 + n_k.sigma).

    In outcome order (++, +-, -+, --) the weights are (p, 1-p, 1-p, p) and
    the axes (m, l, -l, -m); m and l are the geometry's own unit axes,
    validated when it was built.
    """
    m, l = g.m.tolist(), g.l.tolist()
    q = 1 - g.p
    return (g.p, q, q, g.p), (m, l, [-x for x in l], [-x for x in m])


def _born_probabilities(g: MeasurementGeometry, rho: np.ndarray) -> list[float]:
    """Born probabilities tr(rho Pi_k) of the four outcomes on a 2x2 rho, without validation.

    With rho's trace t and Bloch vector c = Re tr(rho sigma) read from its
    entries, tr(rho Pi_k) = w_k/2 (t + n_k.c).
    """
    rows = (r00, _), (_, r11) = rho.tolist()
    trace = r00.real + r11.real
    c = _bloch(rows)
    weights, axes = _outcome_terms(g)
    return [0.5 * w * (trace + _dot(n, c)) for w, n in zip(weights, axes)]


def marginal_operators(povm: Povm4):
    """Marginal two-outcome measurements for the a and b components.

    Returns ((A+, A-), (B+, B-)) where the a-marginal sums outcomes with
    the same first label and the b-marginal outcomes with the same second
    label.  Each pair sums to the identity and is unbiased: the
    expectation difference equals alpha (resp. beta) times the sharp
    expectation value, for every state.
    """
    a_plus = povm.pp + povm.pm
    a_minus = povm.mp + povm.mm
    b_plus = povm.pp + povm.mp
    b_minus = povm.pm + povm.mm
    return (a_plus, a_minus), (b_plus, b_minus)


def joint_distribution(rho, povm: Povm4) -> JointDistribution:
    """Born-rule outcome probabilities tr(rho Pi) for each POVM element."""
    rho = as_density(rho, dim=2)
    probs = [float(np.trace(rho @ e).real) for e in povm.elements]
    return JointDistribution(*probs)


def _require_integers(*limits: tuple[str, object, int]) -> None:
    """Raise ValueError for the first (name, value, low) whose value is not an integer >= low."""
    for name, value, low in limits:
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def sample_outcomes(rho, g: MeasurementGeometry, n: int, seed: int = 0) -> dict[str, int]:
    """Draw n independent outcomes of the joint measurement on rho.

    Sampling uses numpy's PCG64 generator seeded with ``seed``; identical
    inputs and seed give identical counts.  Returns counts keyed by
    outcome label.  ``n`` must be an integer >= 1 and ``seed`` an integer
    >= 0 (Python or numpy); anything else raises ``ValueError``.
    """
    _require_integers(("n", n, 1), ("seed", seed, 0))
    probs = [min(max(x, 0.0), 1.0) for x in _born_probabilities(g, as_density(rho, dim=2))]
    total = sum(probs)
    counts = np.random.default_rng(seed).multinomial(n, [x / total for x in probs])
    return dict(zip(OUTCOME_LABELS, counts.tolist()))


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X >= x) for 0 <= dof <= 3.

    A four-outcome sample has at most 3 degrees of freedom, where the tail
    has a closed form in :mod:`math` alone:

        dof = 1:  erfc(sqrt(x/2))
        dof = 2:  exp(-x/2)
        dof = 3:  erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2)

    ``dof = 0`` (a single supported outcome) gives 1.0.  Any other dof,
    or a statistic that is negative or NaN, raises ``ValueError``.
    """
    if not x >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x!r}")
    if dof == 0:
        return 1.0
    if dof == 2:
        return math.exp(-x / 2)
    if dof not in (1, 3):
        raise ValueError(f"closed-form chi-square tail covers dof 0..3, got {dof!r}")
    tail = math.erfc(math.sqrt(x / 2))
    if dof == 3 and x < math.inf:  # at x = inf the product is inf * 0 = nan
        tail += math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    return tail


def chi_square(counts, probs) -> tuple[float, int, float]:
    """Pearson chi-square test of observed counts against probabilities.

    Only outcomes of positive probability enter the statistic; ``dof`` is
    their number minus one, and the p-value is :func:`chi2_sf`.  Returns
    ``(statistic, dof, p_value)``.
    """
    observed = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if observed.ndim != 1 or observed.shape != probs.shape:
        raise ValueError(
            f"counts and probs must be 1-d of equal length, got shapes "
            f"{observed.shape} and {probs.shape}"
        )
    n = observed.sum()
    if not (np.all(observed >= 0) and n > 0):
        raise ValueError("counts must be non-negative with a positive total")
    supported = probs > 0
    expected = n * probs[supported]
    statistic = float(np.sum((observed[supported] - expected) ** 2 / expected))
    dof = int(supported.sum()) - 1
    return statistic, dof, chi2_sf(statistic, dof)
