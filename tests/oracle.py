"""A test-side oracle for the cloning machine, sharing no code with the cloner.

It builds its references from the measurement alone: the package product
states P_k = |a_i>|b_j> (``linalg.spin_eigenstates``, outcome order) and the
POVM elements Pi_k (``measurement.build_povm``).  Nothing here imports
``spinclone.cloner`` or ``spinclone.fidelity``, so a fault in the frame map,
the factor table or the clone signs cannot move the references with the
machine.

* Rank one.  On the frontier every Pi_k has rank one, and a machine realises
  the measurement exactly when <P_k|K|psi> is an amplitude of outcome k, that
  is when row k of P^dag K, r_k, has r_k^dag r_k = Pi_k.
* Phases.  Every isometry with the same product-basis statistics is
  K(theta) = P diag(e^{i theta}) P^dag K: a torus of three phases, up to a
  global one.  The paper's optimality claim, as the package reads it: its
  phases maximise F_a, the sphere-averaged fidelity of the first output, on
  that torus.  F_a's integrand <psi|tr_2(K |psi><psi| K^dag)|psi> is of
  degree two in |psi><psi|, so the six eigenstates of +-x, +-y, +-z (the
  octahedron, a spherical 2-design) average it exactly.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy import optimize

from spinclone.linalg import spin_eigenstates
from spinclone.measurement import build_povm

_R = np.sqrt(0.5)
#: The eigenstates of sigma_z, sigma_x and sigma_y: an exact 2-design for the sphere average
OCTAHEDRON = np.array([[1, 0], [0, 1], [_R, _R], [_R, -_R], [_R, 1j * _R], [_R, -1j * _R]])

#: Starting phases of the torus search: the corners {0, pi}^3 and three generic points
STARTS = [np.array(corner) for corner in product((0.0, np.pi), repeat=3)] + [
    np.array([0.7, 2.1, 4.4]), np.array([3.9, 0.4, 1.3]), np.array([5.2, 4.0, 2.6])]


def product_states(g) -> np.ndarray:
    """The package product states |a_i>|b_j> of a geometry, as columns in outcome order."""
    pairs = product(spin_eigenstates(g.a), spin_eigenstates(g.b))
    return np.column_stack([np.kron(x, y) for x, y in pairs])


def rank_one_residual(g, rows: np.ndarray) -> float:
    """Largest entry of r_k^dag r_k - Pi_k over the four outcomes, for rows r_k of a 4x2 array.

    For a clone isometry K the rows are P^dag K; for dilation vectors n_k
    they are <n_k|(1 (x) |b+>).
    """
    return max(float(np.abs(np.outer(row.conj(), row) - element).max())
               for row, element in zip(rows, build_povm(g).elements))


def clone_rows(g, k: np.ndarray) -> np.ndarray:
    """P^dag K: row k holds the amplitude of outcome k as a functional of the input."""
    return product_states(g).conj().T @ k


def dilation_rows(g, vectors) -> np.ndarray:
    """<n_k|(1 (x) |b+>) for the four dilation vectors n_k, as rows."""
    b_plus = spin_eigenstates(g.b)[0]
    return np.array([np.conj(n).reshape(2, 2) @ b_plus for n in vectors])


def f_a(k: np.ndarray) -> float:
    """Sphere average of <psi|rho_a|psi> for the isometry K, exact over the octahedron."""
    # J[i, j] = (K psi)[2i + j], the output's amplitude on |i>|j>; rho_a = J J^dag
    joints = (k @ OCTAHEDRON.T).T.reshape(-1, 2, 2)
    overlaps = np.conj(joints).transpose(0, 2, 1) @ OCTAHEDRON[:, :, None]
    return float(np.mean(np.sum(np.abs(overlaps) ** 2, axis=(1, 2))))


def torus_point(g, k: np.ndarray, theta) -> np.ndarray:
    """K(theta) = P diag(1, e^{i theta}) P^dag K: the same statistics, other outcome phases."""
    p = product_states(g)
    phases = np.exp(1j * np.concatenate(([0.0], theta)))
    return p @ (phases[:, None] * (p.conj().T @ k))


def f_a_gain(g, k: np.ndarray) -> float:
    """Largest F_a(K(theta)) - F_a(K) that a local search of the torus finds from ``STARTS``."""
    base = f_a(k)
    best = base
    for start in STARTS:
        found = optimize.minimize(lambda theta: -f_a(torus_point(g, k, theta)), start,
                                  method="BFGS")
        best = max(best, -found.fun)
    return best - base
