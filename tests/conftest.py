import numpy as np
import pytest


def cgauss(rng, m, n):
    """Complex gaussian matrix, unit variance per entry."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def same_bits(x, y):
    """Equal dtype, shape and bytes, so -0.0 differs from 0.0."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
