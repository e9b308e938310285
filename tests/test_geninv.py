import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import joined_basis
from minusord.exceptions import ComplementError, GroupInvertibilityError
from minusord.generate import core_pair, minus_pair, sharp_pair
from minusord.geninv import (
    _reflexive,
    core_inverse,
    group_inverse,
    is_group_invertible,
    pinv,
    reflexive_inverse,
)
from minusord.linalg import DEFAULT_TOLERANCE, ToleranceConfig, adjoint, fro, numerical_rank
from minusord.orders import core_order, inner_inverse_witness, sharp_order
from minusord.subspaces import Factored, Subspace, _outside, _projection, null_basis, range_basis
from minusord.sums import agreeing_split, werner_decomposition

from conftest import cgauss


def test_pinv_frozen():
    # oracle: numpy.linalg.pinv of [[1,1],[0,0]] is [[0.5,0],[0.5,0]]
    a = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(pinv(a), np.array([[0.5, 0.0], [0.5, 0.0]]))


def test_pinv_penrose_identities(rng):
    for _ in range(25):
        a = cgauss(rng, 6, 3) @ cgauss(rng, 3, 5)
        x = pinv(a)
        assert np.allclose(a @ x @ a, a, atol=1e-10)
        assert np.allclose(x @ a @ x, x, atol=1e-10)
        assert np.allclose(adjoint(a @ x), a @ x, atol=1e-12)
        assert np.allclose(adjoint(x @ a), x @ a, atol=1e-12)


def test_pinv_respects_cutoff():
    a = np.diag([1.0, 1e-6]).astype(complex)
    # under a coarse cutoff the small direction is treated as zero
    x = pinv(a, ToleranceConfig(rank_rtol=1e-3))
    assert np.allclose(x, np.diag([1.0, 0.0]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_pinv_matches_numpy_rank_cut(m, n, r, seed):
    # tall, wide and square, of every rank; the economy factors give the
    # same pseudoinverse as numpy's with the package's cutoff
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(cgauss(rng, m, m))[0][:, :r]
    right = np.linalg.qr(cgauss(rng, n, n))[0][:, :r]
    a = (left * rng.uniform(1.0, 10.0, r)) @ adjoint(right)
    oracle = np.linalg.pinv(a, rcond=DEFAULT_TOLERANCE.effective_rank_rtol(a.shape))
    assert fro(pinv(a) - oracle) <= 1e-14 * max(fro(oracle), 1.0)


def test_reflexive_inverse_complement_messages():
    a = np.diag([1.0, 0.0]).astype(complex)
    e1 = Subspace.from_span(np.array([[1.0], [0.0]]))
    e2 = Subspace.from_span(np.array([[0.0], [1.0]]))
    with pytest.raises(ComplementError, match="^complement condition violated: R\\(A\\) and "
                       "the prescribed null space do not split the codomain$"):
        reflexive_inverse(a, e1, e1)
    with pytest.raises(ComplementError, match="^complement condition violated: the prescribed "
                       "range and N\\(A\\) do not split the domain$"):
        reflexive_inverse(a, e2, e2)


def test_reflexive_inverse_frozen():
    # A = diag(1,0); prescribed range span{(1,1)}, null space span{(0,1)}.
    # Solving the interpolation conditions by hand gives X = [[1,0],[1,0]].
    a = np.diag([1.0, 0.0]).astype(complex)
    x = reflexive_inverse(
        a,
        Subspace.from_span(np.array([[1.0], [1.0]])),
        Subspace.from_span(np.array([[0.0], [1.0]])),
    )
    assert np.allclose(x, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_reflexive_inverse_random(rng):
    for _ in range(20):
        a = cgauss(rng, 6, 2) @ cgauss(rng, 2, 5)
        # any complement of N(A) works as the range, of R(A) as the null space
        r = Subspace.from_span(cgauss(rng, 5, 2))
        n = Subspace.from_span(cgauss(rng, 6, 4))
        x = reflexive_inverse(a, r, n)
        assert np.allclose(a @ x @ a, a, atol=1e-8)
        assert np.allclose(x @ a @ x, x, atol=1e-8)
        # range and null space are exactly the prescribed ones
        assert range_basis(x).dim == 2
        assert np.allclose(x @ n.basis, 0, atol=1e-8)
        for col in x.T:
            assert r.contains_vector(col)


def test_reflexive_inverse_checks_complements():
    a = np.diag([1.0, 0.0]).astype(complex)
    # range inside N(A) cannot complement it
    with pytest.raises(ComplementError):
        reflexive_inverse(a, Subspace.from_span(np.array([[0.0], [1.0]])),
                          Subspace.from_span(np.array([[0.0], [1.0]])))
    # null space must complement R(A)
    with pytest.raises(ComplementError):
        reflexive_inverse(a, Subspace.from_span(np.array([[1.0], [0.0]])),
                          Subspace.from_span(np.array([[1.0], [0.0]])))


def test_is_group_invertible():
    assert is_group_invertible(np.diag([1.0, 0.0]))
    # nilpotent: rank(A^2) < rank(A)
    assert not is_group_invertible(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_group_inverse_frozen():
    # oracle: A = [[2,1],[0,0]] is similar to diag(2,0); inverting the
    # nonzero eigenvalue in the same frame gives A/4
    a = np.array([[2.0, 1.0], [0.0, 0.0]], dtype=complex)
    g = group_inverse(a)
    assert np.allclose(g, np.array([[0.5, 0.25], [0.0, 0.0]]))
    assert np.allclose(a @ g, g @ a)
    assert np.allclose(g @ a @ g, g)
    assert np.allclose(a @ g @ a, a)


def test_group_inverse_rejects_nilpotent():
    with pytest.raises(GroupInvertibilityError):
        group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_group_inverse_random(rng):
    for _ in range(20):
        s = cgauss(rng, 5, 5)
        d = np.diag([2.0, -1.0, 0.5, 0.0, 0.0]).astype(complex)
        a = s @ d @ np.linalg.inv(s)
        g = group_inverse(a)
        assert np.allclose(a @ g, g @ a, atol=1e-8)
        assert np.allclose(a @ g @ a, a, atol=1e-8)
        assert np.allclose(g @ a @ g, g, atol=1e-8)


def test_core_inverse_frozen():
    # oracle: group_inverse(A) @ A @ pinv(A) for A = [[2,1],[0,0]]
    a = np.array([[2.0, 1.0], [0.0, 0.0]], dtype=complex)
    x = core_inverse(a)
    assert np.allclose(x, np.array([[0.5, 0.0], [0.0, 0.0]]))
    # defining axioms: A X = P_{R(A)} and R(X) = R(A)
    p = a @ pinv(a)
    assert np.allclose(a @ x, p)
    assert np.allclose(x, x @ p.conj().T @ p)  # columns stay in R(A)


def test_core_inverse_matches_composition(rng):
    for _ in range(20):
        s = cgauss(rng, 4, 4)
        a = s @ np.diag([1.0, 3.0, 0.0, 0.0]).astype(complex) @ np.linalg.inv(s)
        assert np.allclose(core_inverse(a), group_inverse(a) @ a @ pinv(a), atol=1e-9)


def test_core_inverse_requires_group_invertible():
    with pytest.raises(GroupInvertibilityError):
        core_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _rank_rule(a):
    """The reference rule: A has index at most one iff rank(A^2) == rank(A)."""
    return numerical_rank(a @ a) == numerical_rank(a)


@pytest.mark.parametrize("pair", [sharp_pair, core_pair])
def test_group_invertibility_matches_rank_rule(pair):
    for seed in range(40):
        n = 4 + seed % 9
        r1 = 1 + seed % 3
        a, b = pair(seed, n, r1, min(2, n - r1 - 1))
        for x in (a, b, a + b, b - a):
            for c in (1e-12, 1.0, 1e12):
                assert is_group_invertible(c * x) == _rank_rule(c * x), (seed, c)


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e12])
def test_full_rank_is_group_invertible_without_its_sines(c):
    # a square factor of full rank has unitary sines V* U, so the verdict
    # that skips them is their count, conditioned or not
    rng = np.random.default_rng(15)
    for n in (1, 4, 9):
        for x in (cgauss(rng, n, n), cgauss(rng, n, n) * np.logspace(0, -10, n)):
            f = Factored._of(c * x, DEFAULT_TOLERANCE)
            assert f.rank == n
            assert is_group_invertible(c * x)
            assert _outside(f.corange, f.range, DEFAULT_TOLERANCE) == n


def test_group_invertibility_read_off_the_sines():
    # A = x y* with y* x = 1e-15: A @ A = 1e-15 A keeps rank one under the
    # relative cutoff, but R(A) = span(x) lies within 1e-15 of N(A) = y^perp,
    # so R(A) and N(A) do not split the space.  Every caller reads that off
    # the principal-angle sines and refuses A as not group invertible.
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([1e-15, 1.0, 0.0, 0.0])
    a = np.outer(x, y).astype(complex)
    assert _rank_rule(a)
    assert not is_group_invertible(a)
    for call in (group_inverse, core_inverse):
        with pytest.raises(GroupInvertibilityError, match="^not group invertible$"):
            call(a)
    for order in (sharp_order, core_order):
        with pytest.raises(GroupInvertibilityError, match="^A is not group invertible$"):
            order(a, 2 * a)


# --- every reflexive inverse against the joined-basis solve ---

def _close(got, expected):
    return fro(got - expected) <= 1e-12 * max(fro(expected), 1.0)


@pytest.mark.parametrize("r", [0, 2, 5])
def test_reflexive_inverses_match_the_join_solve(r):
    # the oracle solves X [A B_N | B_M] = [B_N | 0] against all m columns;
    # the package solves the rank-sized cores of Q A+ P.  r = 5 is full rank
    rng = np.random.default_rng(50 + r)
    for _ in range(5):
        # A is 7 x 5 of rank r; N complements N(A) in C^5, M complements R(A)
        a = cgauss(rng, 7, r) @ cgauss(rng, r, 5)
        range_space = Subspace.from_span(cgauss(rng, 5, r))
        nullspace = Subspace.from_span(cgauss(rng, 7, 7 - r))
        expected = joined_basis.reflexive_inverse(a, range_space, nullspace)
        assert _close(reflexive_inverse(a, range_space, nullspace), expected)

        # a square A of index one and rank r
        s = cgauss(rng, 5, 5)
        a = s @ np.diag(np.r_[rng.uniform(1.0, 3.0, r), np.zeros(5 - r)]) @ np.linalg.inv(s)
        ra, na = range_basis(a), null_basis(a)
        assert _close(group_inverse(a), joined_basis.reflexive_inverse(a, ra, na))
        assert _close(core_inverse(a), joined_basis.reflexive_inverse(a, ra, ra.perp()))


@pytest.mark.parametrize("ranks", [(0, 3), (2, 2), (3, 3), (6, 0)])
def test_summand_inverses_match_the_join_solve(ranks):
    # A of rank 0, or of full column rank 6 with B = 0; at (3, 3) the sum
    # has full column rank
    rng = np.random.default_rng(sum(ranks) + 10 * ranks[0])
    for _ in range(5):
        a, b = minus_pair(rng, 7, 6, *ranks)
        total = sum(ranks)
        m_comp = Subspace.from_span(cgauss(rng, 7, 7 - total))
        n_comp = Subspace.from_span(cgauss(rng, 6, total))
        split = agreeing_split(a, b, m_comp, n_comp)
        xa, xb = werner_decomposition(a, b, m_comp, n_comp)
        assert _close(xa, joined_basis.reflexive_inverse(a, split.n1s, split.n1))
        assert _close(xb, joined_basis.reflexive_inverse(b, split.n2s, split.n2))

        # inverts A on N(B) ominus N(A) and annihilates R(B) + N((A + B)*)
        range_space = joined_basis.ominus(null_basis(b), null_basis(a))
        along = Subspace.from_span(np.hstack([range_basis(b).basis,
                                              null_basis(adjoint(a + b)).basis]))
        assert _close(inner_inverse_witness(a, a + b),
                      joined_basis.reflexive_inverse(a, range_space, along))


def _columns(*indices, n=5):
    """A basis of unit vectors of C^n, repeats allowed."""
    return Subspace._trusted(np.eye(n, dtype=np.complex128)[:, list(indices)])


def _left_out(space):
    """The unit vectors of C^5 that a basis of unit vectors leaves out,
    which span its orthogonal complement."""
    return _columns(*np.flatnonzero(~space.basis.any(axis=1)))


@pytest.mark.parametrize("m_space, n_space", [
    (_columns(0, 1), _columns(1, 2, 3)),
    (Subspace.zero(5), _columns(0, 1, 1, 2, 3)),
    (_columns(0, 1, 2, 3, 3), Subspace.zero(5)),
])
def test_singular_join_raises(m_space, n_space):
    # M and N do not split C^5: a decided core is found singular by the LU
    # or not square; with A = I the reflexive inverse with range M and null
    # space N meets the same pair on its cores
    with pytest.raises(ComplementError, match="^not a complementary pair$"):
        _projection(m_space, n_space, None, m_perp=_left_out(m_space),
                    n_perp=_left_out(n_space), decided=True)
    with pytest.raises(ComplementError, match="^complement condition violated$"):
        _reflexive(Factored.of(np.eye(5)), m_space, n_space, decided=True)
