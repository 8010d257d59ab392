"""Exact small-dimension complex linear algebra for one and two qubits.

Conventions used throughout the package:

* Single-qubit states are length-2 complex arrays, operators are 2x2.
* Two-qubit states are length-4 complex arrays in the product ordering
  (++, +-, -+, --) with the first qubit as the slow index, i.e.
  ``tensor(s1, s2) = np.kron(s1, s2)``.
* Spin eigenstates follow a fixed global-phase convention: for an axis
  n = (sin t cos f, sin t sin f, cos t) the +1 eigenstate of n.sigma is
  (cos(t/2), e^{if} sin(t/2)) and the -1 eigenstate is
  (-e^{-if} sin(t/2), cos(t/2)).  For axes in the x-z plane all
  amplitudes are real.

The half-angle eigenstate pair (``_inplane_pair``), the Bloch vector of a
2x2 (``_bloch``) and the reduced states of a 4x4 (``_reduced``) are written
once, here, on Python scalars and rows; the public functions wrap them in
arrays.  All functions are pure; there is no shared mutable state, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Validation tolerance for unit norms, hermiticity, trace and positivity.
# Checks are written as ``not (x <= ATOL)`` so that nan and inf fail them.
ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
IDENTITY_2 = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI, IDENTITY_2):
    _m.setflags(write=False)


def _real_vector(x) -> np.ndarray:
    """x as a float 3-vector; ValueError unless it has shape (3,) and an integer or float dtype."""
    x = np.asarray(x)
    # Casting would drop an imaginary part or parse text, so other dtypes are refused
    if x.dtype.kind not in "iuf":
        raise ValueError(f"expected a real 3-vector, got dtype {x.dtype}")
    if x.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {x.shape}")
    return x.astype(float, copy=False)


def as_unit_vector(n) -> np.ndarray:
    """Validate and return a real 3-vector of unit length."""
    n = _real_vector(n)
    norm = math.hypot(*n.tolist())
    if not abs(norm - 1.0) <= ATOL:
        raise ValueError(f"vector is not unit length: |n| = {norm!r}")
    return n


def as_state(psi, dim: int = 2) -> np.ndarray:
    """Validate and return a normalized complex state vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"expected a state of dimension {dim}, got shape {psi.shape}")
    norm = math.hypot(*map(abs, psi.tolist()))
    if not abs(norm - 1.0) <= ATOL:
        raise ValueError(f"state is not normalized: |psi| = {norm!r}")
    return psi


def as_density(rho, dim: int = 2) -> np.ndarray:
    """Validate a density operator: hermitian, unit trace, positive.

    Eigenvalues are allowed to dip to -ATOL to absorb roundoff.  For
    ``dim=2`` every check is a closed form on the four entries; the
    smallest eigenvalue tr/2 - hypot((r00 - r11)/2, |r10|) reads the lower
    triangle, as ``np.linalg.eigvalsh`` does.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} operator, got shape {rho.shape}")
    if dim == 2:
        r00, r01, r10, r11 = rho.ravel().tolist()
        # The entries of |rho - rho^dag|; a nan or inf in rho makes one of them nan or inf
        skews = [abs(r00 - r00.conjugate()), abs(r01 - r10.conjugate()),
                 abs(r11 - r11.conjugate())]
        tr = r00.real + r11.real
    else:
        skews = np.abs(rho - rho.conj().T).ravel().tolist()
        tr = np.trace(rho).real
    if not all(x <= ATOL for x in skews):
        raise ValueError(
            f"operator is not hermitian: max |rho - rho^dag| = {float(np.max(skews))!r}"
        )
    if not abs(tr - 1.0) <= ATOL:
        raise ValueError(f"operator does not have unit trace: tr = {float(tr)!r}")
    if dim == 2:
        lowest = 0.5 * tr - math.hypot(0.5 * (r00.real - r11.real), abs(r10))
    else:
        lowest = np.linalg.eigvalsh(rho).min()
    if not lowest >= -ATOL:
        raise ValueError(
            f"operator is not positive semidefinite: smallest eigenvalue {float(lowest)!r}"
        )
    return rho


def pauli_dot(n) -> np.ndarray:
    """Spin component along the unit axis n: n_x sigma_x + n_y sigma_y + n_z sigma_z.

    Hermitian, traceless, with eigenvalues +1 and -1.
    """
    return _pauli(as_unit_vector(n))


def _pauli(n: np.ndarray) -> np.ndarray:
    """n_x sigma_x + n_y sigma_y + n_z sigma_z for a real 3-vector, without validation."""
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def spin_eigenstates(n) -> tuple[np.ndarray, np.ndarray]:
    """Return the (+1, -1) eigenstates of the spin component along n.

    The global phases follow the package convention described in the
    module docstring; the pair is orthonormal.
    """
    plus, minus = _spin_amplitudes(as_unit_vector(n).tolist())
    return np.array(plus), np.array(minus)


def _inplane_pair(t) -> tuple[tuple, tuple]:
    """Amplitudes of the (+1, -1) eigenstates of n.sigma for n = (sin t, 0, cos t).

    The package convention at azimuth 0, for a signed polar angle t; for t
    in [0, pi] or -0.0 it matches spin_eigenstates down to the sign of a
    zero.  A float t gives floats, by :mod:`math`; an array of angles gives
    arrays of amplitudes, by numpy.  Every cos or sin of a half angle in the
    package is taken here.
    """
    if isinstance(t, float):
        c, s = math.cos(t / 2), math.sin(t / 2)
    else:
        c, s = np.cos(t / 2), np.sin(t / 2)
    return (c, s), (-s, c)


def _spin_amplitudes(n) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Amplitudes of the (+1, -1) eigenstates of n.sigma as Python complex scalars.

    n is a sequence of three floats, a unit vector; nothing is validated.
    spin_eigenstates, the cloner's frame map and its product basis all take
    the package eigenstates from here.
    """
    x, y, z = n
    # atan2 keeps theta accurate near the poles, where arccos(n_z) loses digits
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x)
    (c, s), _ = _inplane_pair(theta)
    c = complex(c)
    return (c, cmath.exp(1j * phi) * s), (-cmath.exp(-1j * phi) * s, c)


def _dot(u, v) -> float:
    """u . v for two sequences of three floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def tensor(s1, s2) -> np.ndarray:
    """Product state of two qubits, first factor as the slow index."""
    s1 = as_state(s1)
    s2 = as_state(s2)
    return np.kron(s1, s2)


def partial_trace(rho, keep: int) -> np.ndarray:
    """Reduced state of one qubit of a two-qubit density operator.

    ``keep=1`` keeps the first qubit (traces out the second), ``keep=2``
    keeps the second.
    """
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    return np.array(_reduced(as_density(rho, dim=4).tolist())[keep - 1])


def _reduced(r) -> tuple[tuple, tuple]:
    """Reduced states (rho_1, rho_2) of a 4x4 operator given as rows, as nested pairs.

    Nothing is validated.  With r[2i + j][2k + l], rho_1 sums the diagonal
    j = l blocks and rho_2 the diagonal i = k blocks.
    """
    return (((r[0][0] + r[1][1], r[0][2] + r[1][3]), (r[2][0] + r[3][1], r[2][2] + r[3][3])),
            ((r[0][0] + r[2][2], r[0][1] + r[2][3]), (r[1][0] + r[3][2], r[1][1] + r[3][3])))


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z))."""
    return np.array(_bloch(as_density(rho, dim=2).tolist()))


def _bloch(rho2) -> tuple[float, float, float]:
    """Bloch vector Re tr(rho sigma_k), k = x, y, z, of a 2x2 operator given as rows.

    Nothing is validated.  For a hermitian rho this is (2 Re rho_10,
    2 Im rho_10, rho_00 - rho_11).  Both off-diagonal entries enter, so the
    values are these traces for any 2x2 operator, hermitian or not.
    """
    (r00, r01), (r10, r11) = rho2
    return (r01 + r10).real, (r10 - r01).imag, (r00 - r11).real


def _qubit(r00, r10, r11) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian 2x2 rho with diagonal Re r00, Re r11 and lower entry r10, and its Bloch vector."""
    r00, r11 = r00.real, r11.real
    return (np.array([[r00, r10.conjugate()], [r10, r11]]),
            np.array([2.0 * r10.real, 2.0 * r10.imag, r00 - r11]))


def density_from_bloch(c) -> np.ndarray:
    """Density operator (1 + c.sigma)/2 for a Bloch vector with |c| <= 1."""
    c = _real_vector(c)
    norm = np.linalg.norm(c)
    if not norm <= 1.0 + ATOL:
        raise ValueError(f"Bloch vector lies outside the unit ball: |c| = {norm!r}")
    return 0.5 * (IDENTITY_2 + _pauli(c))
