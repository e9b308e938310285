from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minusord import linalg
from minusord.linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _singular_values,
    _spectral_within,
    adjoint,
    as_matrix,
    as_vector,
    effective_condition,
    numerical_rank,
    range_contains,
    rank_cut,
    sine_cut,
    singular_values,
)
from minusord.geninv import pinv
from minusord.subspaces import Factored, null_basis, range_basis

from conftest import cgauss


def test_tolerance_defaults():
    tol = ToleranceConfig()
    assert tol.rank_rtol is None
    assert tol.residual_atol == 1e-10
    assert tol.angle_gap == 1e-8
    # heuristic scales with the larger dimension
    assert tol.effective_rank_rtol((4, 9)) == pytest.approx(16 * np.finfo(float).eps * 9)
    assert tol.effective_rank_rtol((9, 4)) == tol.effective_rank_rtol((4, 9))


def test_tolerance_override_wins():
    tol = ToleranceConfig(rank_rtol=1e-6)
    assert tol.effective_rank_rtol((1000, 1000)) == 1e-6


@pytest.mark.parametrize("bad", [
    {"rank_rtol": -1.0},
    {"rank_rtol": 1.0},
    {"residual_atol": -1e-3},
    {"residual_atol": float("nan")},
    {"residual_atol": float("inf")},
    {"angle_gap": -0.5},
])
def test_tolerance_rejects_nonsense(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(**bad)


def test_as_matrix_coerces_and_validates():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.complex128
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0]]))


def test_as_vector_accepts_column():
    v = as_vector(np.ones((4, 1)))
    assert v.shape == (4,)
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))


def test_singular_values_known():
    # [[1,1],[0,0]] has singular values (sqrt 2, 0)
    s = singular_values(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert s == pytest.approx([np.sqrt(2.0), 0.0])


def test_svd_reconstructs(rng):
    a = cgauss(rng, 5, 3)
    f = Factored.of(a)
    assert np.allclose((f.u[:, :3] * f.s) @ adjoint(f.v), a)
    assert np.allclose(adjoint(f.u) @ f.u, np.eye(5))
    assert np.allclose(adjoint(f.v) @ f.v, np.eye(3))


def test_numerical_rank_products(rng):
    # rank of an outer product stack is the inner dimension
    for k in (1, 2, 4):
        a = cgauss(rng, 7, k) @ cgauss(rng, k, 6)
        assert numerical_rank(a) == k
    assert numerical_rank(np.zeros((3, 5))) == 0


def test_factored_boundary_flag():
    clean = Factored.of(np.diag([1.0, 1e-3]))
    assert clean.rank == 2 and not clean.near
    # drop one value just above the default cutoff: flagged but counted
    rtol = DEFAULT_TOLERANCE.effective_rank_rtol((2, 2))
    edgy = Factored.of(np.diag([1.0, 3.0 * rtol]))
    assert edgy.rank == 2 and edgy.near


def test_rank_respects_explicit_cutoff():
    a = np.diag([1.0, 1e-5])
    assert numerical_rank(a) == 2
    assert numerical_rank(a, ToleranceConfig(rank_rtol=1e-4)) == 1


def test_rank_cut_at_a_reference_scale():
    # a difference of operands of norm one is cut at their scale, not its own
    s = np.array([1e-3, 1e-16])
    rtol = DEFAULT_TOLERANCE.effective_rank_rtol((2, 2))
    assert rank_cut(s, (2, 2)) == 2
    assert rank_cut(s, (2, 2), DEFAULT_TOLERANCE, 1.0) == 1
    assert rank_cut(s, (2, 2), DEFAULT_TOLERANCE, 1e-16 / (3.0 * rtol)) == 2
    assert rank_cut(np.zeros(2), (2, 2), DEFAULT_TOLERANCE, 1.0) == 0
    # a factor keeps the cutoff it was cut at, and its flag is read off it
    for scale, want in ((None, (2, False)), (1.0, (1, False)), (1e-16 / (3.0 * rtol), (2, True))):
        f = Factored._of(np.diag(s).astype(complex), DEFAULT_TOLERANCE, scale)
        assert (f.rank, f.near) == want
        assert (f.adjoint().rank, f.adjoint().near) == want
    assert not Factored._of(np.zeros((2, 2), dtype=complex), DEFAULT_TOLERANCE, 1.0).near


def test_range_contains(rng):
    b = cgauss(rng, 6, 3)
    inside = b @ cgauss(rng, 3, 2)
    assert range_contains(b, inside)
    assert not range_contains(inside, b)
    assert range_contains(b, np.zeros((6, 1)))


def test_effective_condition(rng):
    assert effective_condition(np.eye(4)) == pytest.approx(1.0)
    # singular directions are excluded from the ratio
    assert effective_condition(np.diag([4.0, 2.0, 0.0])) == pytest.approx(2.0)
    assert effective_condition(np.zeros((2, 2))) == 0.0


def _placed(rng, shape, position):
    """A matrix of the given shape whose smallest nonzero singular value
    sits at ``position`` times the default rank cutoff (largest value 1);
    ``position`` None gives the zero matrix."""
    m, n = shape
    if position is None:
        return np.zeros(shape, dtype=complex)
    k = min(m, n)
    values = np.linspace(1.0, 0.5, k - 1).tolist()
    values.append(position * DEFAULT_TOLERANCE.effective_rank_rtol(shape))
    u, _ = np.linalg.qr(cgauss(rng, m, m))
    v, _ = np.linalg.qr(cgauss(rng, n, n))
    return (u[:, :k] * np.array(values)) @ adjoint(v[:, :k])


@pytest.mark.parametrize("shape", [(7, 4), (4, 7), (5, 5)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("position", [0.5, 2.0, None], ids=["below", "above", "zero"])
def test_one_cutoff_everywhere(rng, shape, position):
    a = _placed(rng, shape, position)
    expected = 0 if position is None else min(shape) - (position < 1.0)
    f = Factored.of(a)
    rank, near = f.rank, f.near
    assert rank == expected
    assert numerical_rank(a) == rank
    assert range_basis(a).dim == rank
    assert a.shape[1] - null_basis(a).dim == rank
    assert numerical_rank(pinv(a)) == rank
    assert near == (position is not None)


def _array_rank_cut(s, shape, tol, scale=None):
    """:func:`rank_cut` as numpy reductions, the formulation it replaces."""
    if s.size == 0 or s[0] == 0.0:
        return 0, False
    cutoff = tol.effective_rank_rtol(shape) * (s[0] if scale is None else scale)
    return (int(np.count_nonzero(s > cutoff)),
            bool(np.any((s > cutoff / 10.0) & (s < cutoff * 10.0))))


def _array_sine_cut(s, ambient_dim, tol):
    """:func:`sine_cut` as numpy reductions, the formulation it replaces."""
    return int(np.count_nonzero(s > tol.effective_rank_rtol((ambient_dim, ambient_dim))))


def _flagged_ranks(values, shape, tol, scale):
    """(rank, near) of :meth:`Factored._of` at ``scale`` and, at the
    matrix's own scale (``scale`` None), of the public :meth:`Factored.of`,
    each fed ``values`` as the singular values of a matrix of ``shape``."""
    m, n = shape

    def svd(a, full_matrices=True):
        return np.eye(m), values, np.eye(n)

    with mock.patch.object(np.linalg, "svd", svd):
        factors = [Factored._of(np.zeros(shape, dtype=complex), tol, scale)]
        if scale is None:
            factors.append(Factored.of(np.zeros(shape), tol))
    return [(f.rank, f.near) for f in factors]


def _around(*cutoffs):
    """Each cutoff, its neighbours one ulp away, and a tenth and ten times
    it: the values at which a cutoff or the near band decides."""
    values = []
    for c in cutoffs:
        values += [c, np.nextafter(c, 0.0), np.nextafter(c, np.inf), c / 10.0, c * 10.0]
    return values


_TOLERANCES = st.sampled_from([DEFAULT_TOLERANCE, ToleranceConfig(rank_rtol=1e-3),
                               ToleranceConfig(rank_rtol=0.0)])


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 50), n=st.integers(1, 50), tol=_TOLERANCES,
       top=st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 3.7e5, 1e300]),
       scale=st.sampled_from([None, 0.0, 2.5e-7, 1.0, 4e12]),
       picks=st.lists(st.integers(0, 14), max_size=12),
       extra=st.lists(st.floats(0.0, 1.0), max_size=6))
def test_float_cutoffs_match_the_array_formulation(m, n, tol, top, scale, picks, extra):
    # rank_cut, sine_cut and the near rule decide on Python floats; values
    # at, beside, a tenth of and ten times each cutoff decide as numpy's
    # reductions do, by every route that cuts a rank or flags its boundary
    shape = (m, n)
    cutoff = tol.effective_rank_rtol(shape) * (top if scale is None else scale)
    sine_rank = tol.effective_rank_rtol((m, m))
    candidates = _around(cutoff, sine_rank, tol.subspace_atol(m))
    chosen = [candidates[i] for i in picks] + [top * x for x in extra]
    s = np.array(sorted([top] + [v for v in chosen if v <= top], reverse=True))
    for values in (s, np.zeros(0)):
        for at in (scale, None):
            want = _array_rank_cut(values, shape, tol, at)
            assert rank_cut(values, shape, tol, at) == want[0]
            assert type(rank_cut(values, shape, tol, at)) is int
            for got in _flagged_ranks(values, shape, tol, at):
                assert got == want
                assert type(got[0]) is int and type(got[1]) is bool
        assert sine_cut(values, m, tol) == _array_sine_cut(values, m, tol)
        assert type(sine_cut(values, m, tol)) is int


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       rank_one=st.booleans(), magnitude=st.sampled_from([1e-200, 1e-160, 1e-12, 1.0, 1e12,
                                                          1e160, 1e200]))
def test_norm_certificate_returns_the_svd_decision(m, n, seed, rank_one, magnitude):
    # bounds at sigma_1, ||X||_F and ||X||_F / sqrt(k), each just off them,
    # are where the norm bounds sigma_1 <= ||X||_F <= sqrt(k) sigma_1 bind
    rng = np.random.default_rng(seed)
    x = cgauss(rng, m, 1) @ cgauss(rng, 1, n) if rank_one else cgauss(rng, m, n)
    x = magnitude * x
    sigma = _singular_values(x)
    # scaled, so that the reference norm neither overflows nor underflows
    frobenius = float(np.sqrt(np.sum(np.abs(x / magnitude) ** 2))) * magnitude
    for anchor in (sigma[0], frobenius, frobenius / np.sqrt(min(m, n))):
        for factor in (1.0, 1 - 1e-15, 1 + 1e-15, 1 - 1e-9, 1 + 1e-9):
            bound = anchor * factor
            assert _spectral_within(x, bound) == bool(sigma[0] <= bound)


def test_norm_certificate_on_empty_and_zero_matrices(monkeypatch):
    # a matrix of zeros has no singular value above a bound of 0, which
    # its underflowed norm cannot settle, so it takes no SVD
    monkeypatch.setattr(linalg, "_singular_values", None)
    assert _spectral_within(np.zeros((0, 3), dtype=complex), 0.0)
    assert _spectral_within(np.zeros((3, 2), dtype=complex), 0.0)
    monkeypatch.undo()
    assert not _spectral_within(np.full((3, 2), 1e-200, dtype=complex), 0.0)


def test_norm_certificate_reads_given_values_when_open():
    # an open case reads the values given, not an SVD of its own
    x = np.diag([1.0, 1.0]).astype(complex)
    assert _spectral_within(x, 1.2, lambda: np.array([1.0, 1.0]))
    assert not _spectral_within(x, 1.2, lambda: np.array([1.3, 0.0]))
