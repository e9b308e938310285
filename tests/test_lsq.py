import numpy as np
import pytest

from minusord.exceptions import MembershipError, OrderConditionError
from minusord.generate import minus_pair, star_pair
from minusord.geninv import pinv
from minusord.lsq import Weight, decoupled_lss, solve_system, wlss_solve
from minusord.linalg import ToleranceConfig, adjoint, fro
from minusord.subspaces import oblique_projection, Subspace
from minusord.sums import build_split

from conftest import cgauss


def test_weight_identity():
    w = Weight.identity(3)
    assert np.allclose(w.matrix, np.eye(3))
    w.validate()


def test_weight_from_projection_positive_definite(rng):
    for k in range(10):
        m = Subspace.from_span(cgauss(rng, 6, 2))
        n = Subspace.from_span(cgauss(rng, 6, 4))
        p = oblique_projection(m, n)
        w = Weight.from_projection(p)
        w.validate()
        # I - P - P* + 2 P*P, formed with one product, is P*P + (I - P*)(I - P)
        eye = np.eye(6)
        expected = adjoint(p.matrix) @ p.matrix + (eye - adjoint(p.matrix)) @ (eye - p.matrix)
        assert fro(w.matrix - expected) <= 1e-14 * fro(expected)
        eig = np.linalg.eigvalsh(w.matrix)
        assert eig.min() > 0
        # orthogonal projections weight nothing
        if p.is_hermitian():
            assert np.allclose(w.matrix, np.eye(6))


def test_weight_validate_rejects_indefinite():
    w = Weight(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        w.validate()


def test_wlss_frozen_mean():
    # unweighted mean of 0 and 1 is 0.5; weights 3:1 pull it to 0.25
    c = np.ones((2, 1), dtype=complex)
    y = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(wlss_solve(c, y, Weight.identity(2)), [0.5])
    assert np.allclose(wlss_solve(c, y, np.diag([3.0, 1.0])), [0.25])


def test_wlss_solves_normal_equation(rng):
    for k in range(10):
        c = cgauss(rng, 7, 3)
        y = cgauss(rng, 7, 1).ravel()
        w = Weight.from_projection(
            oblique_projection(Subspace.from_span(cgauss(rng, 7, 3)),
                               Subspace.from_span(cgauss(rng, 7, 4))))
        x = wlss_solve(c, y, w)
        lhs = adjoint(c) @ w.matrix @ c @ x
        rhs = adjoint(c) @ w.matrix @ y
        assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e14, 1e16])
def test_solve_system_consistent(rng, scale):
    # a lies in R(A) at any scale of its own: its part outside R(A) is cut
    # at max(sigma_1(A), ||a||), not at A's scale alone
    a, b = minus_pair(rng, 6, 5, 2, 2)
    x_true = cgauss(rng, 5, 1).ravel()
    rhs_a, rhs_b = scale * (a @ x_true), b @ x_true
    x = solve_system(a, b, rhs_a, rhs_b)
    bound = 1e-9 * (np.linalg.norm(rhs_a) + np.linalg.norm(rhs_b))
    assert np.linalg.norm(a @ x - rhs_a) <= bound
    assert np.linalg.norm(b @ x - rhs_b) <= bound


def test_solve_system_membership_errors(rng):
    a, b = minus_pair(rng, 6, 5, 2, 2)
    outside = cgauss(rng, 6, 1).ravel()
    x_true = cgauss(rng, 5, 1).ravel()
    with pytest.raises(MembershipError):
        solve_system(a, b, outside, b @ x_true)
    with pytest.raises(MembershipError):
        solve_system(a, b, a @ x_true, outside)


def test_solve_system_requires_order(rng):
    a = cgauss(rng, 5, 5)
    b = cgauss(rng, 5, 5)
    with pytest.raises(OrderConditionError):
        solve_system(a, b, a @ np.ones(5), b @ np.ones(5))


def test_decoupled_frozen():
    # diagonal split: joint solution is the componentwise least squares fit
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0, 0.0]).astype(complex)
    c = np.array([1.0, 0.5, 7.0], dtype=complex)
    res = decoupled_lss(a, b, c)
    assert np.allclose(res.x_joint, [1.0, 0.5, 0.0])
    assert np.allclose(res.x_system, [1.0, 0.5, 0.0])
    assert np.allclose(res.weight.matrix, np.eye(3))


def test_decoupled_joint_equals_system(rng):
    for k in range(15):
        a, b = minus_pair(rng, 7, 5, 2, 2)
        c = cgauss(rng, 7, 1).ravel()
        res = decoupled_lss(a, b, c)
        # both normal systems are solved by both candidates
        for key, value in res.residuals.items():
            assert value <= 1e-7, (key, value)


@pytest.mark.parametrize("m", [8, 12])
def test_system_solution_matches_the_stacked_route(m):
    # x_system is solved on K = [U_A* W A; U_B* W B], whose 5 rows have the
    # rank and the solutions of the 16 x 8 stack [A* W A; B* W B]; A and B
    # are square, then 3n/2 x n
    rng = np.random.default_rng(80 + m)
    for _ in range(10):
        a, b = minus_pair(rng, m, 8, 2, 3)
        c = cgauss(rng, m, 1)[:, 0]
        res = decoupled_lss(a, b, c)
        aw, bw = adjoint(a) @ res.weight.matrix, adjoint(b) @ res.weight.matrix
        expected = pinv(np.vstack([aw @ a, bw @ b])) @ np.concatenate([aw @ c, bw @ c])
        assert fro(res.x_system - expected) <= 1e-10 * fro(expected)


@pytest.mark.parametrize("ratio", [1e-4, 1.0, 1e4])
def test_decoupled_weight_is_positive_semidefinite(ratio):
    # decoupled_lss checks only that its weight P*P + (I - P)*(I - P) is
    # Hermitian; as a sum of Gram matrices it is positive semidefinite up to
    # rounding, at any ||A|| / ||B||
    tol = ToleranceConfig()
    for seed in range(10):
        a, b = minus_pair(seed, 9, 9, 3, 3)
        a = a * (ratio * np.linalg.norm(b) / np.linalg.norm(a))
        c = cgauss(np.random.default_rng(seed), 9, 1)[:, 0]
        w = decoupled_lss(a, b, c, tol).weight.matrix
        smallest = np.linalg.eigvalsh(w).min()
        assert smallest >= -tol.residual_atol * fro(w), (seed, smallest)


def test_decoupled_weight_is_identity_for_left_star(rng):
    for k in range(10):
        a, b = star_pair(rng, 6, 5, 2, 2)
        c = cgauss(rng, 6, 1).ravel()
        res = decoupled_lss(a, b, c)
        assert np.allclose(res.weight.matrix, np.eye(6), atol=1e-8)


def test_decoupled_requires_order(rng):
    a = cgauss(rng, 4, 4)
    b = cgauss(rng, 4, 4)
    with pytest.raises(OrderConditionError):
        decoupled_lss(a, b, np.ones(4))
