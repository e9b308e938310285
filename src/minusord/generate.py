"""Seeded random generators for ordered matrix pairs.

Each generator builds (A, B) so that A relates to A + B in the requested
order, by placing well-conditioned diagonal blocks in disjoint slots of a
common factorization.  Pairs whose sum has effective condition number
above the cap are redrawn, so downstream residual checks stay meaningful.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOLERANCE, adjoint, effective_condition

__all__ = [
    "as_rng",
    "minus_pair",
    "star_pair",
    "sharp_pair",
    "core_pair",
    "minus_chain",
    "pair_generator",
    "PAIR_KINDS",
]

#: Pairs whose sum exceeds this effective condition number are redrawn.
MAX_CONDITION = 1e6

_MAX_DRAWS = 64


def as_rng(seed) -> np.random.Generator:
    """Accept a Generator or anything ``default_rng`` accepts."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex_gaussian(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _random_unitary(rng, n):
    return _phased_q(_complex_gaussian(rng, n, n))


def _phased_q(x):
    """The Q of a QR of ``x`` with the diagonal of R made positive: the
    phase convention that makes the draw a deterministic function of the
    underlying gaussians."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _block_values(rng, k):
    """Diagonal entries with magnitude in [0.5, 2] and random phase."""
    mags = rng.uniform(0.5, 2.0, size=k)
    phases = np.exp(2j * np.pi * rng.uniform(size=k))
    return mags * phases


def _check_ranks(m, n, ranks):
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    if sum(ranks) > min(m, n):
        raise ValueError(f"infeasible ranks: {'+'.join(map(str, ranks))} exceeds min{m, n}")


def _embed(values, m, n, offset):
    out = np.zeros((m, n), dtype=np.complex128)
    idx = np.arange(len(values))
    out[offset + idx, offset + idx] = values
    return out


def _redraw(seed, m, n, ranks, draw, what="pair"):
    """Call ``draw(rng)`` until it returns ``(total, result)`` with ``total``
    within the condition cap, at most ``_MAX_DRAWS`` times, and return that
    result.  ``draw`` returns ``None`` to reject a degenerate draw."""
    rng = as_rng(seed)
    _check_ranks(m, n, ranks)
    for _ in range(_MAX_DRAWS):
        drawn = draw(rng)
        if drawn is not None and effective_condition(drawn[0], DEFAULT_TOLERANCE) <= MAX_CONDITION:
            return drawn[1]
    raise RuntimeError(f"failed to draw a well-conditioned {what}")


def _equivalent_pair(seed, m, n, r1, r2, factor):
    """Disjoint diagonal blocks under a common equivalence (S, T), each
    factor drawn by ``factor(rng, size)``."""
    def draw(rng):
        s, t = factor(rng, m), factor(rng, n)
        a = s @ _embed(_block_values(rng, r1), m, n, 0) @ t
        b = s @ _embed(_block_values(rng, r2), m, n, r1) @ t
        return a + b, (a, b)

    return _redraw(seed, m, n, (r1, r2), draw)


def minus_pair(seed, m, n, r1, r2):
    """A pair with A minus-below A + B: disjoint diagonal blocks conjugated
    by a common invertible pair (S, T)."""
    return _equivalent_pair(seed, m, n, r1, r2, lambda rng, k: _complex_gaussian(rng, k, k))


def star_pair(seed, m, n, r1, r2):
    """A pair with A star-below A + B: the same construction with unitary
    factors, which makes the range splits orthogonal on both sides."""
    return _equivalent_pair(seed, m, n, r1, r2, _random_unitary)


def sharp_pair(seed, n, r1, r2):
    """A pair with A sharp-below A + B: disjoint diagonal blocks under a
    common similarity, so the summands annihilate each other."""
    def draw(rng):
        s = _complex_gaussian(rng, n, n)
        try:
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            return None
        a = s @ _embed(_block_values(rng, r1), n, n, 0) @ s_inv
        b = s @ _embed(_block_values(rng, r2), n, n, r1) @ s_inv
        return a + b, (a, b)

    return _redraw(seed, n, n, (r1, r2), draw)


def core_pair(seed, n, r1, r2):
    """A pair with A core-below A + B, and the adjoint pair core-related.

    A is normal on a slot of an orthonormal frame; B maps a rotated copy
    of a disjoint slot onto that slot, so A* B = 0 and B A = 0 without B
    being normal.  The adjoint-side conditions hold too (the pair is also
    star ordered), which is what core inverse additivity requires.
    """
    def draw(rng):
        u = _random_unitary(rng, n)
        u1, u2, u3 = u[:, :r1], u[:, r1:r1 + r2], u[:, r1 + r2:]
        a = (u1 * _block_values(rng, r1)) @ adjoint(u1)
        mix = u2 + 0.5 * (u3 @ _complex_gaussian(rng, n - r1 - r2, r2))
        v2 = _phased_q(mix)
        b = (u2 * _block_values(rng, r2)) @ adjoint(v2)
        # B must stay group invertible: the rotated frame may not fold
        # back degenerately onto the original slot.
        if r2 and np.linalg.svd(adjoint(v2) @ u2, compute_uv=False)[-1] < 1e-2:
            return None
        return a + b, (a, b)

    return _redraw(seed, n, n, (r1, r2), draw)


def minus_chain(seed, m, n, r1, r2, r3):
    """A chain A minus-below B minus-below C via nested diagonal blocks."""
    def draw(rng):
        s = _complex_gaussian(rng, m, m)
        t = _complex_gaussian(rng, n, n)
        d1 = _embed(_block_values(rng, r1), m, n, 0)
        d2 = _embed(_block_values(rng, r2), m, n, r1)
        d3 = _embed(_block_values(rng, r3), m, n, r1 + r2)
        c = s @ (d1 + d2 + d3) @ t
        return c, (s @ d1 @ t, s @ (d1 + d2) @ t, c)

    return _redraw(seed, m, n, (r1, r2, r3), draw, "chain")


_GENERATORS = {"minus": minus_pair, "star": star_pair, "sharp": sharp_pair, "core": core_pair}
PAIR_KINDS = tuple(_GENERATORS)


def pair_generator(kind: str):
    """Look up a pair generator by kind name."""
    try:
        return _GENERATORS[kind.replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(PAIR_KINDS)}") from None
