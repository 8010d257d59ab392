"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and residuals.
"""

import math
import time

import numpy as np
import pytest

from spinclone import (
    OUTCOME_LABELS,
    beta_max,
    bloch_from_density,
    build_geometry,
    build_povm,
    clone_pure,
    clone_unitary,
    fidelity_report,
    geometry_from_angles,
    joint_distribution,
    measure_and_prepare,
    naimark_basis,
    optimality_lhs,
    partial_trace,
    sample_outcomes,
    sphere_average,
    spin_eigenstates,
    tensor,
    universal_baseline,
)
from spinclone.cli import SweepConfig, main, sweep_rows
from spinclone.cloner import product_basis

from conftest import random_geometry, random_pure_state

GRID_ALPHAS = np.linspace(0.0, 1.0, 41)
GRID_ETAS = np.linspace(0.0, math.pi, 41)


def grid_geometries():
    for alpha in GRID_ALPHAS:
        for eta in GRID_ETAS:
            yield geometry_from_angles(alpha, beta_max(alpha, eta), eta)


def report(name, passed, detail):
    print(f"[acceptance] {'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_povm_completeness_and_positivity():
    start = time.perf_counter()
    completeness = 0.0
    negativity = 0.0
    for g in grid_geometries():
        povm = build_povm(g)
        completeness = max(
            completeness, np.max(np.abs(sum(povm.elements) - np.eye(2)))
        )
        for element in povm.elements:
            negativity = max(negativity, -float(np.linalg.eigvalsh(element).min()))
    elapsed = time.perf_counter() - start
    ok = completeness < 1e-12 and negativity < 1e-12 and elapsed < 1.0
    report(
        "povm completeness and positivity over the 41x41 grid",
        ok,
        f"completeness {completeness:.2e}, negativity {negativity:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_saturation_and_universal_sharpness():
    start = time.perf_counter()
    worst = max(
        abs(optimality_lhs(a, beta_max(a, e), e) - 2.0)
        for a in GRID_ALPHAS
        for e in GRID_ETAS
    )
    _, (sa, sb) = universal_baseline()
    universal_lhs = optimality_lhs(sa, sb, math.pi / 2)
    elapsed = time.perf_counter() - start
    ok = (
        worst < 1e-9
        and abs(universal_lhs - 4.0 * math.sqrt(2.0) / 3.0) < 1e-12
        and universal_lhs < 2.0
        and elapsed < 1.0
    )
    report(
        "saturation on the grid; universal sharpness stays strictly inside",
        ok,
        f"saturation residual {worst:.2e}, universal lhs {universal_lhs:.10f}, {elapsed:.2f}s",
    )


def test_criterion_3_dilation_condition():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    born_residual = 0.0
    gram_residual = 0.0
    for _ in range(1000):
        g = random_geometry(rng)
        basis = naimark_basis(g)
        gram = np.array(
            [[np.vdot(v, w) for w in basis.vectors] for v in basis.vectors]
        )
        gram_residual = max(gram_residual, float(np.max(np.abs(gram - np.eye(4)))))
        psi = random_pure_state(rng)
        full = tensor(psi, spin_eigenstates(g.b)[0])
        for vec, element in zip(basis.vectors, build_povm(g).elements):
            born_residual = max(
                born_residual,
                abs(abs(np.vdot(vec, full)) ** 2 - np.vdot(psi, element @ psi).real),
            )
    elapsed = time.perf_counter() - start
    ok = born_residual < 1e-10 and gram_residual < 1e-12 and elapsed < 5.0
    report(
        "dilation basis orthonormal and reproduces born probabilities",
        ok,
        f"born {born_residual:.2e}, gram {gram_residual:.2e}, {elapsed:.2f}s (1000 draws)",
    )


def test_criterion_4_unitarity_across_grid():
    worst = max(
        float(np.max(np.abs(clone_unitary(g).conj().T @ clone_unitary(g) - np.eye(4))))
        for g in grid_geometries()
    )
    report("cloning unitary unitary across the grid", worst < 1e-12, f"residual {worst:.2e}")


def test_criterion_5_statistics_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    exact_residual = 0.0
    for _ in range(1000):
        g = random_geometry(rng)
        psi = random_pure_state(rng)
        born = joint_distribution(np.outer(psi, psi.conj()), build_povm(g)).as_array()
        coherent = clone_pure(g, psi).probabilities
        prepared = measure_and_prepare(g, psi)
        diag = np.array([np.vdot(p, prepared @ p).real for p in product_basis(g)])
        exact_residual = max(
            exact_residual,
            float(np.max(np.abs(coherent - born))),
            float(np.max(np.abs(diag - born))),
        )

    n = 10**6
    mc_ok = True
    worst_sigma = 0.0
    for seed, (alpha, eta, theta) in enumerate(
        [(0.6, math.pi / 2, 0.0), (0.3, 1.1, 0.7), (0.9, 2.3, 2.0),
         (0.5, 0.4, 1.2), (0.75, 2.9, 0.3)]
    ):
        g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
        psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
        rho = np.outer(psi, psi.conj())
        probs = joint_distribution(rho, build_povm(g)).as_array()
        counts = sample_outcomes(rho, g, n, seed=seed)
        for label, prob in zip(OUTCOME_LABELS, probs):
            sigma = math.sqrt(prob * (1.0 - prob) / n)
            deviation = abs(counts[label] / n - prob)
            if sigma > 0:
                worst_sigma = max(worst_sigma, deviation / sigma)
            mc_ok = mc_ok and deviation <= 5.0 * sigma + 1e-12
    elapsed = time.perf_counter() - start
    ok = exact_residual < 1e-10 and mc_ok and elapsed < 30.0
    report(
        "statistics equivalence: clone amplitudes, prepared diagonal, born, monte carlo",
        ok,
        f"exact {exact_residual:.2e}, worst monte-carlo deviation {worst_sigma:.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_6_bloch_transfer_relations():
    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    while checked < 1000:
        g = random_geometry(rng)
        if abs(math.sin(g.eta)) < 1e-3:
            continue
        psi = random_pure_state(rng)
        out = clone_pure(g, psi)
        c_in = bloch_from_density(np.outer(psi, psi.conj()))
        normal = np.cross(g.a, g.b)
        normal /= np.linalg.norm(normal)
        worst = max(
            worst,
            abs(g.a @ out.bloch_a - g.alpha * (g.a @ c_in)),
            abs(g.b @ out.bloch_b - g.beta * (g.b @ c_in)),
            abs(normal @ out.bloch_a - math.sqrt(1 - g.beta**2) * (normal @ c_in)),
            abs(normal @ out.bloch_b),
        )
        checked += 1
    report(
        "bloch component transfer relations (axis, axis, normal, normal-zero)",
        worst < 1e-10,
        f"residual {worst:.2e} over 1000 draws",
    )


def test_criterion_7_closed_form_fidelities():
    # b-side closed form against quadrature across a grid
    worst_b = 0.0
    for alpha in np.linspace(0.0, 1.0, 21):
        for eta in np.linspace(0.0, math.pi, 21):
            g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)
            rep = fidelity_report(g, resolution=32)
            worst_b = max(
                worst_b,
                abs(rep.f_b_quad - (0.5 + g.beta / 6.0)),
                abs(rep.f_mb_closed - rep.f_b_closed),
            )

    # measure-and-prepare reduced fidelities against an independent quadrature
    worst_m = 0.0
    for alpha, eta in [(0.25, 0.9), (0.6, math.pi / 2), (0.9, 2.1)]:
        g = geometry_from_angles(alpha, beta_max(alpha, eta), eta)

        def reduced(keep):
            def f(psi):
                rho12 = measure_and_prepare(g, psi)
                return np.vdot(psi, partial_trace(rho12, keep) @ psi).real

            return f

        worst_m = max(
            worst_m,
            abs(sphere_average(reduced(1), resolution=24) - (0.5 + g.alpha / 6.0)),
            abs(sphere_average(reduced(2), resolution=24) - (0.5 + g.beta / 6.0)),
        )

    # fully sharp parallel axes: both single-clone averages equal 2/3
    g_sharp = build_geometry([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1.0, 1.0)
    rep_sharp = fidelity_report(g_sharp)
    sharp_residual = max(
        abs(rep_sharp.f_a_quad - 2.0 / 3.0), abs(rep_sharp.f_b_quad - 2.0 / 3.0)
    )

    baseline, sharpness = universal_baseline()
    baseline_ok = (
        abs(baseline - 25.0 / 36.0) < 1e-15
        and abs(baseline - 0.6944) < 1e-4
        and sharpness == (2.0 / 3.0, 2.0 / 3.0)
    )
    ok = worst_b < 1e-9 and worst_m < 1e-9 and sharp_residual < 1e-9 and baseline_ok
    report(
        "closed-form fidelities match quadrature; known limits and baseline",
        ok,
        f"b-side {worst_b:.2e}, measure-and-prepare {worst_m:.2e}, "
        f"sharp-parallel {sharp_residual:.2e}, baseline {baseline:.6f}",
    )


def test_criterion_8_fidelity_surfaces(tmp_path):
    start = time.perf_counter()
    cfg = SweepConfig(
        alpha_steps=41, eta_steps=41, eta_min=0.0, eta_max=math.pi,
        beta_policy="max", resolution=64,
        out=str(tmp_path / "sweep.csv"), fmt="csv",
    )
    rows = sweep_rows(cfg)
    elapsed = time.perf_counter() - start
    worst_gap = min(row["f_av_quad"] - row["f_m_quad"] for row in rows)
    flagged = [row for row in rows if row["discrepancy_flags"]]
    from spinclone.cli import _render_rows_csv

    (tmp_path / "sweep.csv").write_text(_render_rows_csv(rows), newline="")
    emitted = (tmp_path / "sweep.csv").stat().st_size > 0
    ok = worst_gap >= -1e-10 and emitted and elapsed < 60.0
    report(
        "coherent surface dominates measure-and-prepare surface on the full sweep",
        ok,
        f"min gap {worst_gap:.2e}, {len(flagged)} flagged rows, "
        f"{len(rows)} rows in {elapsed:.1f}s",
    )


def test_criterion_9_byte_identical_determinism(tmp_path, capsys):
    sweep_args = [
        "sweep", "--alpha-steps", "7", "--eta-steps", "7", "--quad-res", "24",
    ]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(sweep_args + ["--out", str(path)]) == 0
    sweep_identical = paths[0].read_bytes() == paths[1].read_bytes()

    sample_args = [
        "sample", "--alpha", "0.6", "--eta", str(math.pi / 2),
        "--bloch-r", "0.5", "--n", "200000", "--seed", "99",
    ]
    sample_paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in sample_paths:
        assert main(sample_args + ["--out", str(path)]) == 0
    capsys.readouterr()
    sample_identical = sample_paths[0].read_bytes() == sample_paths[1].read_bytes()
    report(
        "sweep and sample outputs are byte-identical across reruns",
        sweep_identical and sample_identical,
        f"sweep identical: {sweep_identical}, sample identical: {sample_identical}",
    )
