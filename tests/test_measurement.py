import math
import re

import numpy as np
import pytest

from spinclone import (
    OUTCOME_LABELS,
    NonSaturating,
    beta_max,
    build_geometry,
    build_povm,
    chi_square,
    clone_unitary,
    geometry_from_angles,
    joint_distribution,
    marginal_operators,
    optimality_lhs,
    pauli_dot,
    sample_outcomes,
    spin_eigenstates,
)
import spinclone.measurement as measurement_module
from spinclone.measurement import chi2_sf

from conftest import random_density, random_geometry, random_pure_state, random_unit_vector

A_HAT = np.array([0.0, 0.0, 1.0])
B_HAT = np.array([1.0, 0.0, 0.0])


def bisect_beta_max(alpha, eta, iterations=200):
    """Independent oracle: largest beta keeping the admissibility bound."""
    if optimality_lhs(alpha, 1.0, eta) <= 2.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if optimality_lhs(alpha, mid, eta) <= 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_beta_max_commuting_axes():
    assert beta_max(1.0, 0.0) == 1.0
    assert beta_max(0.3, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_beta_max_orthogonal_sharp():
    assert beta_max(1.0, np.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_beta_max_orthogonal_derived():
    oracle = bisect_beta_max(0.6, np.pi / 2)
    assert oracle == pytest.approx(0.8, abs=1e-9)
    assert beta_max(0.6, np.pi / 2) == pytest.approx(oracle, abs=1e-9)


def test_beta_max_matches_bisection_oracle(rng):
    for _ in range(300):
        alpha = rng.uniform(0.0, 1.0)
        eta = rng.uniform(0.0, np.pi)
        closed = beta_max(alpha, eta)
        assert closed == pytest.approx(bisect_beta_max(alpha, eta), abs=1e-9)
        assert abs(optimality_lhs(alpha, closed, eta) - 2.0) < 1e-9


@pytest.mark.parametrize("alpha, eta", [(1.0, 1e-9), (1.0, np.pi - 1e-9), (1.0 - 1e-8, 1e-8)])
def test_beta_max_frontier_corners_build(alpha, eta):
    g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    u = clone_unitary(g)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_beta_max_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        beta_max(0.5, eta)


@pytest.mark.parametrize("delta", [1e-9, 1e-12])
@pytest.mark.parametrize("antiparallel", [False, True])
def test_build_geometry_resolves_tiny_axis_angles(delta, antiparallel):
    # a.b rounds to +-1 at these angles, so arccos(a.b) reads exactly 0 or pi.
    b = np.array([np.sin(delta), 0.0, -np.cos(delta) if antiparallel else np.cos(delta)])
    eta = np.pi - delta if antiparallel else delta
    g = build_geometry(A_HAT, b, 0.5, beta_max(0.5, eta))
    offset = np.pi - g.eta if antiparallel else g.eta
    # near pi, g.eta itself is only known to the spacing of floats at pi
    assert offset == pytest.approx(delta, rel=1e-6, abs=2 * np.spacing(np.pi))


def test_build_geometry_equal_sharpness_half_angle():
    g = build_geometry(A_HAT, B_HAT, 1 / np.sqrt(2), 1 / np.sqrt(2))
    assert g.epsilon == pytest.approx(np.pi / 4, abs=1e-12)


def test_build_geometry_derived_values():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    assert g.p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(g.m, [0.8, 0.0, 0.6], atol=1e-12)
    assert np.allclose(g.l, [-0.8, 0.0, 0.6], atol=1e-12)
    assert g.eta == pytest.approx(np.pi / 2, abs=1e-12)


def test_build_geometry_beta_zero_collapses_axes():
    g = build_geometry(A_HAT, B_HAT, 1.0, 0.0)
    assert g.p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(g.m, A_HAT, atol=1e-12)
    assert np.allclose(g.l, A_HAT, atol=1e-12)
    assert g.epsilon == pytest.approx(0.0, abs=1e-12)


def test_build_geometry_rejects_non_saturating():
    with pytest.raises(NonSaturating) as excinfo:
        build_geometry(A_HAT, B_HAT, 0.9, 0.9)
    assert excinfo.value.residual == pytest.approx(1.8 * np.sqrt(2) - 2.0, abs=1e-12)


def test_build_geometry_copies_the_callers_axes():
    # The geometry freezes arrays of its own, never the ones it was given
    a, b = A_HAT.copy(), B_HAT.copy()
    g = build_geometry(a, b, 0.6, 0.8)
    for given, kept in ((a, g.a), (b, g.b)):
        assert kept is not given and not np.shares_memory(kept, given)
        assert given.flags.writeable and not kept.flags.writeable
        assert np.array_equal(kept, given)
    a[0], b[0] = 0.5, 0.5
    assert np.array_equal(g.a, A_HAT) and np.array_equal(g.b, B_HAT)


def test_build_geometry_invariants(rng):
    for _ in range(1000):
        g = random_geometry(rng)
        assert np.cos(g.eta) == pytest.approx(g.a @ g.b, abs=1e-12)
        assert g.p == pytest.approx(0.5 * np.linalg.norm(g.alpha * g.a + g.beta * g.b), abs=1e-12)
        assert 1 - g.p == pytest.approx(
            0.5 * np.linalg.norm(g.alpha * g.a - g.beta * g.b), abs=1e-12
        )
        assert np.linalg.norm(g.m) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(g.l) == pytest.approx(1.0, abs=1e-12)
        assert abs(optimality_lhs(g.alpha, g.beta, g.eta) - 2.0) < 1e-9
        weight = 4 * g.p * (1 - g.p)
        if weight > 1e-6:
            assert np.cos(2 * g.epsilon) == pytest.approx(
                (g.alpha**2 - g.beta**2) / weight, abs=1e-10
            )
            assert np.cos(2 * g.epsilon) == pytest.approx(g.m @ g.l, abs=1e-12)


def test_build_povm_projective_limit():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    povm = build_povm(g)
    plus, minus = spin_eigenstates(g.a)
    assert np.allclose(povm.pm, 0.0, atol=1e-15)
    assert np.allclose(povm.mp, 0.0, atol=1e-15)
    assert np.allclose(povm.pp, np.outer(plus, plus.conj()), atol=1e-12)
    assert np.allclose(povm.mm, np.outer(minus, minus.conj()), atol=1e-12)


def test_build_povm_traces():
    povm = build_povm(build_geometry(A_HAT, B_HAT, 0.6, 0.8))
    for element in povm.elements:
        assert np.trace(element).real == pytest.approx(0.5, abs=1e-12)


def test_build_povm_complete_and_positive(rng):
    for _ in range(300):
        povm = build_povm(random_geometry(rng))
        assert np.max(np.abs(sum(povm.elements) - np.eye(2))) < 1e-12
        for element in povm.elements:
            assert np.linalg.eigvalsh(element).min() > -1e-12


def test_povm_rank_one_form(rng):
    for _ in range(300):
        g = random_geometry(rng)
        povm = build_povm(g)
        m_plus, m_minus = spin_eigenstates(g.m)
        l_plus, l_minus = spin_eigenstates(g.l)
        assert np.max(np.abs(povm.pp - g.p * np.outer(m_plus, m_plus.conj()))) < 1e-12
        assert np.max(np.abs(povm.mm - g.p * np.outer(m_minus, m_minus.conj()))) < 1e-12
        assert np.max(np.abs(povm.pm - (1 - g.p) * np.outer(l_plus, l_plus.conj()))) < 1e-12
        assert np.max(np.abs(povm.mp - (1 - g.p) * np.outer(l_minus, l_minus.conj()))) < 1e-12


def test_marginals_projective_limit():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    (a_plus, a_minus), _ = marginal_operators(build_povm(g))
    plus, minus = spin_eigenstates(g.a)
    assert np.allclose(a_plus, np.outer(plus, plus.conj()), atol=1e-12)
    assert np.allclose(a_minus, np.outer(minus, minus.conj()), atol=1e-12)


def test_marginals_derived_form():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    (a_plus, a_minus), (b_plus, b_minus) = marginal_operators(build_povm(g))
    assert np.allclose(a_plus, 0.5 * (np.eye(2) + 0.6 * pauli_dot(A_HAT)), atol=1e-12)
    assert np.allclose(a_minus, 0.5 * (np.eye(2) - 0.6 * pauli_dot(A_HAT)), atol=1e-12)
    assert np.allclose(b_plus, 0.5 * (np.eye(2) + 0.8 * pauli_dot(B_HAT)), atol=1e-12)


def test_marginals_unbiased(rng):
    for _ in range(200):
        g = random_geometry(rng)
        (a_plus, a_minus), (b_plus, b_minus) = marginal_operators(build_povm(g))
        for _ in range(5):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            got_a = np.trace(rho @ (a_plus - a_minus)).real
            want_a = g.alpha * np.trace(rho @ pauli_dot(g.a)).real
            got_b = np.trace(rho @ (b_plus - b_minus)).real
            want_b = g.beta * np.trace(rho @ pauli_dot(g.b)).real
            assert abs(got_a - want_a) < 1e-10
            assert abs(got_b - want_b) < 1e-10


def test_joint_distribution_maximally_mixed():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    dist = joint_distribution(np.eye(2) / 2, build_povm(g))
    expected = [g.p / 2, (1 - g.p) / 2, (1 - g.p) / 2, g.p / 2]
    assert np.allclose(dist.as_array(), expected, atol=1e-12)


def test_joint_distribution_projective_limit():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    plus = spin_eigenstates(g.m)[0]
    dist = joint_distribution(np.outer(plus, plus.conj()), build_povm(g))
    assert np.allclose(dist.as_array(), [1, 0, 0, 0], atol=1e-12)


def test_joint_distribution_derived():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    psi = spin_eigenstates(g.a)[0]
    dist = joint_distribution(np.outer(psi, psi.conj()), build_povm(g))
    assert np.allclose(dist.as_array(), [0.4, 0.4, 0.1, 0.1], atol=1e-12)
    # a-marginal of the same distribution: (1 +- alpha)/2
    assert dist.p_pp + dist.p_pm == pytest.approx(0.8, abs=1e-12)
    assert dist.p_mp + dist.p_mm == pytest.approx(0.2, abs=1e-12)
    assert sum(dist.as_array()) == pytest.approx(1.0, abs=1e-12)


def test_sample_outcomes_deterministic():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    first = sample_outcomes(np.eye(2) / 2, g, 10000, seed=42)
    second = sample_outcomes(np.eye(2) / 2, g, 10000, seed=42)
    assert first == second


def test_sample_outcomes_single_draw():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    counts = sample_outcomes(np.eye(2) / 2, g, 1, seed=7)
    assert sum(counts.values()) == 1
    assert set(counts) == set(OUTCOME_LABELS)


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer >= 1, got 2.5"),
    (math.nan, "n must be an integer >= 1, got nan"),
    ("7", "n must be an integer >= 1, got '7'"),
    (0, "n must be an integer >= 1, got 0"),
])
def test_sample_outcomes_rejects_a_bad_count(n, message):
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_outcomes(np.eye(2) / 2, g, n)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_sample_outcomes_rejects_a_bad_seed(seed):
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        sample_outcomes(np.eye(2) / 2, g, 10, seed=seed)


def test_sample_outcomes_takes_numpy_integers():
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    counts = sample_outcomes(np.eye(2) / 2, g, np.int64(100), seed=np.int32(3))
    assert counts == sample_outcomes(np.eye(2) / 2, g, 100, seed=3)


def born_test_geometries(rng):
    """200 random-frame geometries, then (anti)parallel axes: the p = 1 and p = 0 corners."""
    geometries = [random_geometry(rng) for _ in range(200)]
    for alpha in (0.0, 0.3, 1.0):
        for a in (A_HAT, random_unit_vector(rng)):
            geometries.append(build_geometry(a, a, alpha, 1.0))
            geometries.append(build_geometry(a, -a, alpha, 1.0))
    return geometries


def test_born_map_matches_joint_distribution(rng):
    geometries = born_test_geometries(rng)
    assert {0.0, 1.0} <= {g.p for g in geometries}
    for g in geometries:
        psi = random_pure_state(rng)
        for rho in (random_density(rng), np.outer(psi, psi.conj()), np.eye(2) / 2):
            want = joint_distribution(rho, build_povm(g)).as_array()
            got = measurement_module._born_probabilities(g, rho)
            assert np.max(np.abs(got - want)) <= 1e-15


def test_sample_outcomes_draws_the_born_probabilities(rng):
    g, rho = random_geometry(rng), random_density(rng)
    probs = joint_distribution(rho, build_povm(g)).as_array()
    counts = sample_outcomes(rho, g, 10**6, seed=3)
    _assert_within_5_sigma(counts, probs, 10**6)


def _assert_within_5_sigma(counts, probs, n):
    for label, prob in zip(OUTCOME_LABELS, probs):
        sigma = np.sqrt(prob * (1 - prob) / n)
        assert abs(counts[label] / n - prob) <= 5 * sigma + 1e-12


def test_sample_outcomes_mixed_state_frequencies():
    n = 10**6
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    counts = sample_outcomes(np.eye(2) / 2, g, n, seed=0)
    _assert_within_5_sigma(counts, [0.25, 0.25, 0.25, 0.25], n)


def test_sample_outcomes_derived_frequencies():
    n = 10**6
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    psi = spin_eigenstates(g.a)[0]
    counts = sample_outcomes(np.outer(psi, psi.conj()), g, n, seed=0)
    _assert_within_5_sigma(counts, [0.4, 0.4, 0.1, 0.1], n)


def test_sample_outcomes_chi_square():
    from scipy import stats

    n = 10**6
    g = build_geometry(A_HAT, B_HAT, 0.6, 0.8)
    psi = spin_eigenstates(g.a)[0]
    counts = sample_outcomes(np.outer(psi, psi.conj()), g, n, seed=123)
    observed = np.array([counts[k] for k in OUTCOME_LABELS])
    expected = n * joint_distribution(np.outer(psi, psi.conj()), build_povm(g)).as_array()
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.001


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_chi2_sf_matches_scipy(dof):
    from scipy import stats

    grid = np.concatenate([[0.0], np.geomspace(1e-12, 300.0, 500), np.linspace(0.1, 300.0, 500)])
    want = stats.chi2.sf(grid, dof)
    got = np.array([chi2_sf(float(x), dof) for x in grid])
    assert got[0] == want[0] == 1.0
    resolved = want > 1e-300
    assert np.max(np.abs(got - want)[resolved] / want[resolved]) <= 1e-12
    assert chi2_sf(math.inf, dof) == stats.chi2.sf(math.inf, dof) == 0.0


def test_chi2_sf_domain():
    assert chi2_sf(12.5, 0) == 1.0
    for dof in (-1, 4, 10):
        with pytest.raises(ValueError, match="dof"):
            chi2_sf(1.0, dof)
    for x in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="statistic"):
            chi2_sf(x, 2)


def test_chi_square_statistic_matches_scipy(rng):
    from scipy import stats

    n = 10**5
    for trial in range(50):
        g = random_geometry(rng)
        psi = random_pure_state(rng)
        rho = np.outer(psi, psi.conj())
        probs = joint_distribution(rho, build_povm(g)).as_array()
        assert np.all(probs > 0)
        counts = sample_outcomes(rho, g, n, seed=trial)
        observed = [counts[k] for k in OUTCOME_LABELS]
        statistic, dof, p_value = chi_square(observed, probs)
        want_statistic, want_p = stats.chisquare(observed, n * probs)
        assert dof == 3
        assert statistic == pytest.approx(want_statistic, rel=1e-12, abs=1e-12)
        assert p_value == pytest.approx(want_p, rel=1e-12, abs=1e-15)


def test_chi_square_support_rule():
    # Zero-probability outcomes are left out of the statistic and the dof.
    assert chi_square([6, 4, 0, 0], [0.5, 0.5, 0.0, 0.0]) == (0.4, 1, chi2_sf(0.4, 1))
    assert chi_square([0, 0, 9, 0], [0.0, 0.0, 1.0, 0.0]) == (0.0, 0, 1.0)


def test_chi_square_rejects_bad_input():
    with pytest.raises(ValueError, match="dof"):
        chi_square([1, 2, 3, 4, 5], [0.2] * 5)
    with pytest.raises(ValueError, match="shapes"):
        chi_square([1, 2, 3], [0.25] * 4)
    for counts in ([0, 0, 0, 0], [5, -1, 0, 0]):
        with pytest.raises(ValueError, match="non-negative"):
            chi_square(counts, [0.25] * 4)


def test_optimality_lhs_sharp_single_axis():
    assert optimality_lhs(1.0, 0.0, 1.234) == pytest.approx(2.0, abs=1e-15)


def test_optimality_lhs_universal_sharpness():
    value = optimality_lhs(2 / 3, 2 / 3, np.pi / 2)
    assert value == pytest.approx(4 * np.sqrt(2) / 3, abs=1e-12)
    assert value < 2.0


def test_optimality_lhs_saturating_pair():
    assert optimality_lhs(0.6, 0.8, np.pi / 2) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_geometry_from_angles_rejects_non_finite_eta(eta):
    # the check runs before sin and cos, so no RuntimeWarning is raised either
    with pytest.raises(ValueError, match=f"^eta must be finite, got {eta!r}$"):
        geometry_from_angles(0.5, 0.5, eta)


def test_geometry_from_angles_matches_explicit_axes():
    g1 = geometry_from_angles(0.6, 0.8, np.pi / 2)
    g2 = build_geometry(A_HAT, [1.0, 0.0, 0.0], 0.6, 0.8)
    assert np.allclose(g1.m, g2.m, atol=1e-12)
    assert g1.p == pytest.approx(g2.p, abs=1e-15)


def test_sample_outcomes_on_a_sharp_eigenstate(rng):
    # p = 1 and the input |m->: three Born probabilities are 0 up to rounding,
    # which can leave one at -5.6e-17; the draw still gives n plain ints on "--".
    rounded_below_zero = 0
    for a in [A_HAT] + [random_unit_vector(rng) for _ in range(30)]:
        g = build_geometry(a, a, 1.0, 1.0)
        assert g.p == pytest.approx(1.0, abs=1e-15)
        minus = spin_eigenstates(g.m)[1]
        rho = np.outer(minus, minus.conj())
        rounded_below_zero += min(measurement_module._born_probabilities(g, rho)) < 0.0
        counts = sample_outcomes(rho, g, 1000, seed=5)
        assert all(type(c) is int and c >= 0 for c in counts.values())
        assert counts == {"++": 0, "+-": 0, "-+": 0, "--": 1000}
    assert rounded_below_zero > 0
