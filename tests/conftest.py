import numpy as np
import pytest

from spinclone import beta_max, build_geometry


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_pure_state(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return raw / np.linalg.norm(raw)


def random_density(rng, dim=2):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_geometry(rng):
    """Saturating geometry with arbitrary axes in 3-space."""
    a = random_unit_vector(rng)
    b = random_unit_vector(rng)
    eta = 2.0 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b))
    alpha = rng.uniform(0.0, 1.0)
    return build_geometry(a, b, alpha, beta_max(alpha, eta))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
