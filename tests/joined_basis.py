"""Reference set operations of two subspaces on their joined bases.

The set operations of :mod:`minusord.subspaces` read every relation
between two subspaces off principal-angle sines judged by
:func:`minusord.linalg.sine_cut`.  The routes here decide the same facts by
a second engine, the numerical rank of the joined bases [B_M | B_N] under
the relative cutoff of :func:`minusord.linalg.rank_cut`: the sum is the
orthonormalized span of the joined bases, the intersection is read off
their null space, and a dimension is their rank.  The oracle tests compare
the package against these routes, so each comparison is between two
independent engines.

The two cutoffs differ: the joined-basis rule drops a principal angle
theta when sin(theta) is below about twice the relative cutoff of the
joined n x (dim M + dim N) matrix, the sine rule when sin(theta) is below
the cutoff of an n x n matrix.  So the two engines may disagree only for
angles within a few times the sine cutoff ``16 * eps * n``.

Range additivity of two matrices is ranked the same way, on the joined
[A + B | A], where the package counts B's part outside R(A) against the
rank of A + B.

The oblique projections and reflexive inverses here solve the n x n join
of the two bases, where the package solves cores of principal-angle sines
of the ranks' size.
"""

import numpy as np

from minusord.exceptions import ComplementError
from minusord.linalg import DEFAULT_TOLERANCE, numerical_rank
from minusord.subspaces import AngleEquivalences, Factored, Projection, Subspace, minimal_angle_cos


def _joined(m_space, n_space):
    return np.hstack([m_space.basis, n_space.basis])


def subspace_sum(m_space, n_space, tol=DEFAULT_TOLERANCE):
    """M + N, the orthonormalized span of the joined bases."""
    return Subspace.from_span(_joined(m_space, n_space), tol)


def span_dim(m_space, n_space, tol=DEFAULT_TOLERANCE):
    """dim(M + N), the numerical rank of the joined bases."""
    return numerical_rank(_joined(m_space, n_space), tol)


def is_direct_sum(m_space, n_space, tol=DEFAULT_TOLERANCE):
    return span_dim(m_space, n_space, tol) == m_space.dim + n_space.dim


def intersect(m_space, n_space, tol=DEFAULT_TOLERANCE):
    """M cap N: null vectors (x; y) of [B_M | B_N] satisfy B_M x = -B_N y,
    so the vectors B_M x run over the intersection."""
    if m_space.dim == 0 or n_space.dim == 0:
        return Subspace.zero(m_space.ambient_dim)
    coeff = Factored.of(_joined(m_space, n_space), tol).null.basis
    if coeff.shape[1] == 0:
        return Subspace.zero(m_space.ambient_dim)
    return Subspace.from_span(m_space.basis @ coeff[:m_space.dim], tol)


def ominus(m_space, n_space, tol=DEFAULT_TOLERANCE):
    """M ominus N: the basis of M projected off M cap N, re-orthonormalized."""
    inter = intersect(m_space, n_space, tol)
    if inter.dim == 0:
        return m_space
    reduced = m_space.basis - inter.projector() @ m_space.basis
    return Subspace(np.linalg.svd(reduced, full_matrices=False)[0][:, :m_space.dim - inter.dim])


def angle_equivalences(m_space, n_space, tol=DEFAULT_TOLERANCE):
    c0 = minimal_angle_cos(m_space, n_space)
    return AngleEquivalences(
        c0=c0,
        c0_lt_1=c0 < 1.0 - tol.angle_gap,
        direct_sum_closed=is_direct_sum(m_space, n_space, tol),
        complements_span=span_dim(m_space.perp(), n_space.perp(), tol) == m_space.ambient_dim,
    )


def range_additive(A, B, tol=DEFAULT_TOLERANCE):
    """R(A + B) = R(A) + R(B), tested as R(A) in R(A + B):
    rank([A + B | A]) == rank(A + B)."""
    return numerical_rank(np.hstack([A + B, A]), tol) == numerical_rank(A + B, tol)


def oblique_projection(m_space, n_space, tol=DEFAULT_TOLERANCE):
    """The projection onto M along N, solving P [B_M | B_N] = [B_M | 0], for
    M and N whose joined bases are square and of full rank."""
    if m_space.dim + n_space.dim != m_space.ambient_dim or not is_direct_sum(m_space, n_space, tol):
        raise ComplementError("not a complementary pair")
    target = np.hstack([m_space.basis, np.zeros_like(n_space.basis)])
    try:
        matrix = np.linalg.solve(_joined(m_space, n_space).T, target.T).T
    except np.linalg.LinAlgError as exc:
        raise ComplementError("not a complementary pair") from exc
    return Projection(matrix, m_space, n_space)


def reflexive_inverse(A, range_space, nullspace):
    """The reflexive inverse of A with range N and null space M, solving
    X [A B_N | B_M] = [B_N | 0] against all m columns of the right-hand
    side, for N complementing N(A) and M complementing R(A)."""
    bn = range_space.basis
    target = np.hstack([bn, np.zeros((bn.shape[0], nullspace.dim), dtype=np.complex128)])
    return np.linalg.solve(np.hstack([A @ bn, nullspace.basis]).T, target.T).T
