import numpy as np
import pytest


def cgauss(rng, m, n):
    """Complex gaussian matrix, unit variance per entry."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def factor_first(monkeypatch):
    """Make every order check factor A, B and B - A before its verdict, as
    a triple that factors its operands at once would."""
    from minusord import orders

    made = orders._triple

    def factored_first(*args, **kwargs):
        t = made(*args, **kwargs)
        t.fa, t.fb, t.fd
        return t

    monkeypatch.setattr(orders, "_triple", factored_first)


def same_bits(x, y):
    """Equal dtype, shape and bytes, so -0.0 differs from 0.0."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
