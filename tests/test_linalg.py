import numpy as np
import pytest

from minusord.linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    adjoint,
    as_matrix,
    as_vector,
    effective_condition,
    numerical_rank,
    range_contains,
    rank_cut,
    rank_info,
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


def test_rank_info_boundary_flag():
    clean = np.diag([1.0, 1e-3])
    r, near = rank_info(clean)
    assert r == 2 and not near
    # drop one value just above the default cutoff: flagged but counted
    rtol = DEFAULT_TOLERANCE.effective_rank_rtol((2, 2))
    edgy = np.diag([1.0, 3.0 * rtol])
    r, near = rank_info(edgy)
    assert r == 2 and near


def test_rank_respects_explicit_cutoff():
    a = np.diag([1.0, 1e-5])
    assert numerical_rank(a) == 2
    assert numerical_rank(a, ToleranceConfig(rank_rtol=1e-4)) == 1


def test_rank_cut_at_a_reference_scale():
    # a difference of operands of norm one is cut at their scale, not its own
    s = np.array([1e-3, 1e-16])
    rtol = DEFAULT_TOLERANCE.effective_rank_rtol((2, 2))
    assert rank_cut(s, (2, 2)) == (2, False)
    assert rank_cut(s, (2, 2), DEFAULT_TOLERANCE, 1.0) == (1, False)
    assert rank_cut(s, (2, 2), DEFAULT_TOLERANCE, 1e-16 / (3.0 * rtol)) == (2, True)
    assert rank_cut(np.zeros(2), (2, 2), DEFAULT_TOLERANCE, 1.0) == (0, False)


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
    rank, near = rank_info(a)
    f = Factored.of(a)
    assert rank == expected
    assert numerical_rank(a) == rank
    assert f.rank == rank
    assert range_basis(a).dim == rank
    assert a.shape[1] - null_basis(a).dim == rank
    assert numerical_rank(pinv(a)) == rank
    assert f.near == near
    assert near == (position is not None)
