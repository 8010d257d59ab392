import numpy as np
import pytest

from spinclone import (
    IDENTITY_2,
    beta_max,
    bloch_from_density,
    build_geometry,
    clone_mixed,
    clone_pure,
    density_from_bloch,
    f_av_closed,
    f_m_closed,
    f_mixed_closed,
    f_single_closed,
    fidelity_report,
    fidelity_reports,
    geometry_from_angles,
    global_fidelity,
    haar_states,
    measure_and_prepare,
    mixed_fidelity,
    optimality_lhs,
    partial_trace,
    sphere_average,
    sphere_grid,
    spin_eigenstates,
    universal_baseline,
)
import spinclone.fidelity as fidelity_module
from spinclone.cli import SweepConfig, sweep_rows
from spinclone.cloner import product_basis
from spinclone import build_povm, joint_distribution, clone_unitary

from conftest import random_geometry, random_pure_state, random_unit_vector

A_HAT = np.array([0.0, 0.0, 1.0])
B_HAT = np.array([1.0, 0.0, 0.0])


def derived_geometry():
    return build_geometry(A_HAT, B_HAT, 0.6, 0.8)


@pytest.mark.parametrize("call", [
    lambda: fidelity_report(derived_geometry(), 0),
    lambda: fidelity_reports([derived_geometry()], 0),
    lambda: sphere_grid(0),
    lambda: sweep_rows(SweepConfig(2, 2, 0.0, np.pi, "max", 0, "-", "csv")),
], ids=["fidelity_report", "fidelity_reports", "sphere_grid", "sweep_rows"])
def test_resolution_below_one_is_refused_naming_it(call):
    # The one resolution guard, in _grid_data; numpy's own error would not name it
    with pytest.raises(ValueError, match=r"^resolution must be >= 1, got 0$"):
        call()


def rotation_matrix(axis, angle):
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# ----------------------------------------------------------------------
# pointwise fidelities

def test_global_fidelity_perfect_copy(rng):
    psi = random_pure_state(rng)
    assert global_fidelity(psi, np.kron(psi, psi)) == pytest.approx(1.0, abs=1e-12)


def test_global_fidelity_orthogonal():
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    assert global_fidelity(zero, np.kron(one, one)) == pytest.approx(0.0, abs=1e-15)


def test_global_fidelity_projective_clone():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    psi = spin_eigenstates(g.a)[0]
    assert global_fidelity(psi, clone_pure(g, psi).joint) == pytest.approx(1.0, abs=1e-12)


def test_mixed_fidelity_projector(rng):
    psi = random_pure_state(rng)
    target = np.kron(psi, psi)
    assert mixed_fidelity(psi, np.outer(target, target.conj())) == pytest.approx(1.0, abs=1e-12)


def test_mixed_fidelity_maximally_mixed(rng):
    psi = random_pure_state(rng)
    assert mixed_fidelity(psi, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)


def test_mixed_fidelity_equals_weighted_overlaps():
    g = derived_geometry()
    psi = spin_eigenstates(g.a)[0]
    rho12 = measure_and_prepare(g, psi)
    probs = joint_distribution(np.outer(psi, psi.conj()), build_povm(g)).as_array()
    a_states = spin_eigenstates(g.a)
    b_states = spin_eigenstates(g.b)
    expected = sum(
        prob * abs(np.vdot(psi, a_states[i])) ** 2 * abs(np.vdot(psi, b_states[j])) ** 2
        for prob, (i, j) in zip(probs, [(0, 0), (0, 1), (1, 0), (1, 1)])
    )
    assert mixed_fidelity(psi, rho12) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------
# sphere averages

def test_sphere_average_constant():
    assert sphere_average(lambda psi: 0.37) == pytest.approx(0.37, abs=1e-12)


def test_sphere_average_squared_axis_component():
    def f(psi):
        c = bloch_from_density(np.outer(psi, psi.conj()))
        return (A_HAT @ c) ** 2

    assert sphere_average(f) == pytest.approx(1 / 3, abs=1e-12)


def test_sphere_average_ancilla_clone_fidelity():
    g = derived_geometry()

    def f(psi):
        out = clone_pure(g, psi)
        return np.vdot(psi, out.rho_b @ psi).real

    assert sphere_average(f, resolution=24) == pytest.approx(0.5 + 0.8 / 6, abs=1e-9)


def test_sphere_grid_weights_normalized():
    _, weights = sphere_grid(32)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_cache_is_bounded():
    from spinclone.fidelity import _grid_data

    for resolution in range(1, 21):
        sphere_grid(resolution)
    assert _grid_data.cache_info().currsize <= 8


def test_default_rule_matches_fine_rule(rng):
    # the default 8-node rule is exact for every averaged integrand
    for _ in range(20):
        g = random_geometry(rng)
        coarse, fine = fidelity_report(g), fidelity_report(g, resolution=64)
        for name in ("f_av_quad", "f_a_quad", "f_b_quad", "f_m_quad"):
            assert getattr(coarse, name) == pytest.approx(getattr(fine, name), abs=1e-14)


def loop_integrands(g):
    """Pointwise integrands of the four report averages, from the public functions.

    F_m takes its weights from the POVM through measure_and_prepare, so it
    does not depend on the clone isometry.
    """
    return {
        "f_av_quad": lambda psi: global_fidelity(psi, clone_pure(g, psi).joint),
        "f_a_quad": lambda psi: np.vdot(psi, clone_pure(g, psi).rho_a @ psi).real,
        "f_b_quad": lambda psi: np.vdot(psi, clone_pure(g, psi).rho_b @ psi).real,
        "f_m_quad": lambda psi: mixed_fidelity(psi, measure_and_prepare(g, psi)),
    }


def test_report_matches_loop_average(rng):
    # the vectorized engine and the generic quadrature must agree exactly
    g = derived_geometry()
    report = fidelity_report(g, resolution=24)
    loop = sphere_average(
        lambda psi: global_fidelity(psi, clone_pure(g, psi).joint), resolution=24
    )
    assert report.f_av_quad == pytest.approx(loop, abs=1e-13)
    # All four integrands, also off the canonical frame, where the product
    # basis is complex, and at a corner: antiparallel sharp axes give p = 0.
    n = random_unit_vector(rng)
    for g in (derived_geometry(), random_geometry(rng), build_geometry(n, -n, 1.0, 1.0)):
        report = fidelity_report(g, resolution=24)
        for name, integrand in loop_integrands(g).items():
            loop = sphere_average(integrand, resolution=24)
            assert getattr(report, name) == pytest.approx(loop, abs=1e-13), name


# ----------------------------------------------------------------------
# closed forms against the quadrature oracle

def test_f_av_closed_fully_sharp_parallel():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    report = fidelity_report(g)
    assert f_av_closed(g) == pytest.approx(0.5, abs=1e-12)
    assert report.f_av_quad == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("alpha,eta", [(1.0, 0.4), (1.0, 2.0), (0.6, np.pi / 2), (0.35, 1.1)])
def test_f_av_closed_matches_quadrature(alpha, eta):
    g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
    report = fidelity_report(g)
    assert report.f_av_closed == pytest.approx(report.f_av_quad, abs=1e-9)


def test_f_single_closed_fully_sharp_parallel():
    g = build_geometry(A_HAT, A_HAT, 1.0, 1.0)
    f_a, f_b = f_single_closed(g)
    assert f_a == pytest.approx(2 / 3, abs=1e-12)
    assert f_b == pytest.approx(2 / 3, abs=1e-12)
    report = fidelity_report(g)
    assert report.f_a_quad == pytest.approx(2 / 3, abs=1e-9)
    assert report.f_b_quad == pytest.approx(2 / 3, abs=1e-9)


def test_f_single_closed_b_value():
    g = derived_geometry()
    assert f_single_closed(g)[1] == pytest.approx(0.5 + 0.8 / 6, abs=1e-15)


def test_f_single_closed_a_matches_quadrature():
    g = derived_geometry()
    loop = sphere_average(
        lambda psi: np.vdot(psi, clone_pure(g, psi).rho_a @ psi).real, resolution=24
    )
    assert f_single_closed(g)[0] == pytest.approx(loop, abs=1e-9)


def test_f_b_closed_matches_quadrature_random(rng):
    for _ in range(20):
        alpha = rng.uniform(0, 1)
        eta = rng.uniform(0, np.pi)
        g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
        report = fidelity_report(g, resolution=32)
        assert report.f_b_quad == pytest.approx(report.f_b_closed, abs=1e-9)
        assert report.f_mb_closed == report.f_b_closed


def test_f_mixed_closed_values():
    g_sharp = geometry_from_angles(1.0, beta_max(1.0, 0.9), 0.9)  # beta = 0
    f_ma, f_mb = f_mixed_closed(g_sharp)
    assert f_ma == pytest.approx(2 / 3, abs=1e-15)
    assert f_mb == pytest.approx(0.5, abs=1e-15)


def test_f_mixed_closed_matches_quadrature():
    g = derived_geometry()
    f_ma, f_mb = f_mixed_closed(g)

    def reduced_fidelity(keep):
        def f(psi):
            rho12 = measure_and_prepare(g, psi)
            return np.vdot(psi, partial_trace(rho12, keep) @ psi).real

        return f

    assert sphere_average(reduced_fidelity(1), resolution=24) == pytest.approx(f_ma, abs=1e-9)
    assert sphere_average(reduced_fidelity(2), resolution=24) == pytest.approx(f_mb, abs=1e-9)



def f_m_geometries(rng):
    """Random frames, then the p = 1 and p = 0 corners: parallel and antiparallel
    sharp axes in the canonical and a random frame, and alpha = 1 at eta = 0, pi."""
    geometries = [random_geometry(rng) for _ in range(200)]
    for a in (A_HAT, random_unit_vector(rng)):
        geometries += [build_geometry(a, a, 1.0, 1.0), build_geometry(a, -a, 1.0, 1.0)]
    geometries += [geometry_from_angles(1.0, beta_max(1.0, eta), eta) for eta in (0.0, np.pi)]
    return geometries


def test_f_m_closed_matches_quadrature(rng):
    # F_m = 1/4 + (alpha + beta)/12 + (2p - 1) cos(eta)/12 against the node average
    # of the cloner's incoherent branches, which the default rule takes exactly
    geometries = f_m_geometries(rng)
    assert {0.0, 1.0} <= {g.p for g in geometries}
    corners = geometries[200:]
    for stack in (geometries, corners, corners[-2:]):  # the last is canonical
        for g, report in zip(stack, fidelity_reports(stack)):
            assert abs(f_m_closed(g) - report.f_m_quad) <= 1e-14


def test_f_m_closed_matches_measure_and_prepare(rng):
    # An oracle without the clone isometry: the two-copy fidelity of the product
    # states measure-and-prepare mixes by Born weights, averaged over the sphere
    # (degree 3, so exact at resolution 2)
    for g in f_m_geometries(rng)[::10]:
        average = sphere_average(lambda psi: mixed_fidelity(psi, measure_and_prepare(g, psi)),
                                 resolution=2)
        assert abs(f_m_closed(g) - average) <= 1e-14


def test_universal_baseline_values():
    two_copy, (sa, sb) = universal_baseline()
    assert two_copy == pytest.approx(25 / 36, abs=1e-15)
    assert (sa, sb) == (pytest.approx(2 / 3), pytest.approx(2 / 3))


@pytest.mark.parametrize("eta", [np.pi / 6, np.pi / 3, np.pi / 2])
def test_universal_sharpness_never_saturates(eta):
    two_copy, (sa, sb) = universal_baseline()
    assert optimality_lhs(sa, sb, eta) < 2.0


# ----------------------------------------------------------------------
# report structure

def test_report_entries_in_range(rng):
    for _ in range(10):
        alpha = rng.uniform(0, 1)
        eta = rng.uniform(0.05, np.pi - 0.05)
        g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
        report = fidelity_report(g, resolution=32)
        for name in ("f_av_quad", "f_av_closed", "f_a_quad", "f_a_closed",
                     "f_b_quad", "f_b_closed", "f_m_quad", "f_ma_closed", "f_mb_closed"):
            value = getattr(report, name)
            assert -1e-12 <= value <= 1 + 1e-12
        assert report.discrepancies == ()


def test_report_flags_singular_closed_forms():
    # exactly anti-parallel sharp axes give zero weight on the m axis and
    # the closed forms divide by zero; the report must flag, not fail
    g = build_geometry(A_HAT, -A_HAT, 1.0, 1.0)
    assert g.p == 0.0
    report = fidelity_report(g, resolution=16)
    assert np.isnan(report.f_av_closed)
    assert "f_av" in report.discrepancies
    assert "f_a" in report.discrepancies
    assert "f_b" not in report.discrepancies
    assert 0.0 <= report.f_av_quad <= 1.0


def test_monte_carlo_reproduces_quadrature():
    # three-way consistency: quadrature, Haar Monte Carlo and closed form
    for i, (alpha, eta) in enumerate([(0.2, 0.7), (0.6, np.pi / 2), (0.9, 2.2), (0.4, 1.9)]):
        g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
        report = fidelity_report(g, resolution=32)
        states = haar_states(100_000, seed=1000 + i)
        unitary = clone_unitary(g)
        blank = spin_eigenstates(g.b)[0]
        inputs = np.einsum("ni,j->nij", states, blank).reshape(-1, 4)
        outputs = inputs @ unitary.T
        pair = np.einsum("ni,nj->nij", states.conj(), states.conj()).reshape(-1, 4)
        mc = float(np.mean(np.abs(np.einsum("nk,nk->n", pair, outputs)) ** 2))
        assert abs(mc - report.f_av_quad) < 2e-3
        assert abs(report.f_av_closed - report.f_av_quad) < 1e-9


def test_averages_invariant_under_global_rotation(rng):
    for _ in range(5):
        alpha = rng.uniform(0, 1)
        eta = rng.uniform(0.1, np.pi - 0.1)
        beta = beta_max(alpha, eta)
        g = geometry_from_angles(alpha, beta, eta)
        rot = rotation_matrix(rng.normal(size=3), rng.uniform(0, 2 * np.pi))
        g_rot = build_geometry(rot @ g.a, rot @ g.b, alpha, beta)
        rep = fidelity_report(g, resolution=32)
        rep_rot = fidelity_report(g_rot, resolution=32)
        assert rep_rot.f_av_quad == pytest.approx(rep.f_av_quad, abs=1e-10)
        assert rep_rot.f_a_quad == pytest.approx(rep.f_a_quad, abs=1e-10)
        assert rep_rot.f_b_quad == pytest.approx(rep.f_b_quad, abs=1e-10)
        assert rep_rot.f_m_quad == pytest.approx(rep.f_m_quad, abs=1e-10)


def test_haar_states_normalized_and_deterministic():
    states = haar_states(1000, seed=5)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(states, haar_states(1000, seed=5))


# ----------------------------------------------------------------------
# stacked reports


def mixed_stack(rng):
    """Random frames, canonical frontier points, and the singular p = 0 corner."""
    geometries = [random_geometry(rng) for _ in range(24)]
    for alpha, eta in ((0.0, 0.0), (0.5, np.pi / 2), (1.0, np.pi), (0.3, -1e-10)):
        geometries.append(geometry_from_angles(alpha, beta_max(alpha, eta), eta))
    geometries += [build_geometry(A_HAT, -A_HAT, 1.0, 1.0), build_geometry(A_HAT, A_HAT, 1.0, 1.0)]
    return geometries


@pytest.mark.parametrize("resolution", [2, 16])
def test_stacked_reports_equal_single_reports(rng, resolution):
    geometries = mixed_stack(rng)
    per_stack = fidelity_module.STACK_NODES // (2 * resolution * resolution)
    # resolution 16 splits the list into stacks of 16; resolution 2 keeps one stack
    assert (len(geometries) > per_stack) == (resolution == 16)
    stacked = fidelity_reports(geometries, resolution)
    assert len(stacked) == len(geometries)
    for g, got in zip(geometries, stacked):
        want = fidelity_report(g, resolution)
        assert got.discrepancies == want.discrepancies
        for name in ("alpha", "beta", "eta", "p", "epsilon"):
            assert getattr(got, name) == getattr(g, name)
        for name in ("f_av_quad", "f_av_closed", "f_a_quad", "f_a_closed", "f_b_quad",
                     "f_b_closed", "f_m_quad", "f_ma_closed", "f_mb_closed"):
            x, y = getattr(got, name), getattr(want, name)
            assert (np.isnan(x) and np.isnan(y)) or abs(x - y) <= 1e-15, name
    assert any(r.discrepancies == ("f_av", "f_a") for r in stacked)


# ----------------------------------------------------------------------
# the clone's Bloch maps and the single-clone averages


def bloch_maps(g):
    """Affine maps c -> M_x c + t_x of the input Bloch vector onto outputs a and b.

    Read off public clone outputs only: t_x is the output of the maximally
    mixed input, and column j of M_x the output of the pure state along e_j
    minus t_x.
    """
    centre = clone_mixed(g, IDENTITY_2 / 2)
    columns = [clone_mixed(g, density_from_bloch(e)) for e in np.eye(3)]
    return [(np.column_stack([getattr(out, name) for out in columns])
             - getattr(centre, name)[:, None], getattr(centre, name))
            for name in ("bloch_a", "bloch_b")]


def test_cloner_transfers_both_spin_components(rng):
    # The cloner copies the a component onto output a with sharpness alpha and
    # the b component onto output b with sharpness beta: M_a^T a = alpha a,
    # M_b^T b = beta b, with no offset along either axis.  A sphere average of
    # (1 + c.(M c + t))/2 is 1/2 + tr(M)/6, so tr M_b = beta gives F_b.
    n = random_unit_vector(rng)
    geometries = [random_geometry(rng) for _ in range(300)]
    geometries += [build_geometry(n, -n, 1.0, 1.0), build_geometry(n, n, 1.0, 1.0)]
    assert {0.0, 1.0} <= {g.p for g in geometries}
    for g, report in zip(geometries, fidelity_reports(geometries)):
        (m_a, t_a), (m_b, t_b) = bloch_maps(g)
        assert np.max(np.abs(m_a.T @ g.a - g.alpha * g.a)) <= 1e-14
        assert np.max(np.abs(m_b.T @ g.b - g.beta * g.b)) <= 1e-14
        assert abs(t_a @ g.a) <= 1e-14 and abs(t_b @ g.b) <= 1e-14
        assert abs(np.trace(m_b) - g.beta) <= 1e-14
        assert abs(0.5 + np.trace(m_a) / 6 - report.f_a_quad) <= 1e-14
        assert abs(0.5 + np.trace(m_b) / 6 - report.f_b_quad) <= 1e-14


def test_single_clone_averages_do_not_depend_on_resolution(rng):
    # F_a and F_b are read off the isometry; no quadrature node enters them
    geometries = mixed_stack(rng)
    reports = {res: fidelity_reports(geometries, res) for res in (1, 2, 64)}
    for name in ("f_a_quad", "f_b_quad"):
        values = {res: [getattr(r, name) for r in reps] for res, reps in reports.items()}
        assert values[1] == values[2] == values[64], name


# ----------------------------------------------------------------------
# the cloner against measure-and-prepare


def frontier_reports(alphas, etas, resolution=fidelity_module.DEFAULT_RESOLUTION):
    return fidelity_reports([geometry_from_angles(alpha, beta_max(alpha, eta), eta)
                             for alpha in alphas for eta in etas], resolution)


def test_ordering_coherent_dominates_prepared():
    # The ordering holds off the default resolution too: a 15 x 15 grid at
    # resolution 24
    for report in frontier_reports(np.linspace(0.0, 1.0, 15), np.linspace(0.0, np.pi, 15), 24):
        assert report.f_av_quad - report.f_m_quad >= -1e-15


def test_cloner_never_loses_to_measure_and_prepare(rng):
    # On the default sweep grid and on random frames the coherent sum of the
    # four branches is never below the incoherent one, and the two coincide
    # where the axes commute
    grid = frontier_reports(np.linspace(0.0, 1.0, 41), np.linspace(0.0, np.pi, 41))
    frames = fidelity_reports([random_geometry(rng) for _ in range(300)])
    for report in grid + frames:
        assert report.f_av_quad - report.f_m_quad >= -1e-15
    commuting = [r for r in grid if r.eta in (0.0, np.pi)]
    assert len(commuting) == 82
    assert max(abs(r.f_av_quad - r.f_m_quad) for r in commuting) <= 1e-15


def test_cloner_beats_measure_and_prepare_off_commuting_axes():
    # Away from eta in {0, pi} the advantage is strictly positive; it is
    # smallest near alpha = 0 and eta = 1e-3 (about eta / 6)
    reports = frontier_reports(np.linspace(0.0, 1.0, 101), np.linspace(1e-3, np.pi - 1e-3, 61))
    assert min(r.f_av_quad - r.f_m_quad for r in reports) > 0.0
