"""Walkthrough: Monte Carlo sampling of joint-measurement outcomes.

Outcome draws use a seeded PCG64 generator, so every run of this script
prints identical numbers.  Empirical frequencies converge to the Born
probabilities at the binomial rate.
"""

import numpy as np

from spinclone import (
    beta_max,
    build_povm,
    chi_square,
    geometry_from_angles,
    joint_distribution,
    sample_outcomes,
    spin_eigenstates,
)

g = geometry_from_angles(0.6, beta_max(0.6, np.pi / 2), np.pi / 2)
psi = spin_eigenstates(g.a)[0]
rho = np.outer(psi, psi.conj())
exact = joint_distribution(rho, build_povm(g)).as_array()

print("Exact joint distribution for spin-up along a:", np.round(exact, 6))
print("\nConvergence of seeded sampling (seed=0):")
print("  draws      ++        +-        -+        --     max |freq - exact|")
for n in (10**2, 10**4, 10**6):
    counts = sample_outcomes(rho, g, n, seed=0)
    freqs = np.array([counts[k] for k in ("++", "+-", "-+", "--")]) / n
    worst = np.max(np.abs(freqs - exact))
    print(f"  {n:7d}  {freqs[0]:.6f}  {freqs[1]:.6f}  {freqs[2]:.6f}  {freqs[3]:.6f}   {worst:.2e}")

n = 10**6
counts = sample_outcomes(rho, g, n, seed=0)
observed = np.array([counts[k] for k in ("++", "+-", "-+", "--")])
chi2, _, p_value = chi_square(observed, exact)
print(f"\nChi-square against the exact distribution at n = {n}:")
print(f"  statistic = {chi2:.3f}, p-value = {p_value:.4f}")
print("A healthy sampler gives p-values spread over (0, 1); tiny values")
print("would signal a broken generator or a wrong distribution.")

repeat = sample_outcomes(rho, g, n, seed=0)
print(f"\nSame seed, same counts: {counts == repeat}")
