"""Generalized inverses: Moore-Penrose, prescribed-space reflexive, group, core.

A reflexive inverse of A with prescribed range N and null space M is the
unique X with A X A = A, X A X = X, R(X) = N, N(X) = M; it exists exactly
when N complements N(A) in the domain and M complements R(A) in the
codomain.  Then A X is the projection onto R(A) along M and X A the
projection onto N along N(A).
"""

from __future__ import annotations

import numpy as np

from .exceptions import ComplementError, GroupInvertibilityError
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    adjoint,
    as_matrix,
    numerical_rank,
    rank_cut,
)
from .subspaces import Factored, Subspace, _complements

__all__ = [
    "pinv",
    "reflexive_inverse",
    "is_group_invertible",
    "group_inverse",
    "core_inverse",
]


def pinv(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank cutoff; only the
    leading singular vectors enter, so the economy factors suffice."""
    A = as_matrix(A)
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    r = rank_cut(s, A.shape, tol)[0]
    return (adjoint(vh[:r]) / s[:r]) @ adjoint(u[:, :r])


def reflexive_inverse(A, range_space: Subspace, nullspace: Subspace,
                      tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """The reflexive inverse of A with range ``range_space`` and null space
    ``nullspace``.

    Parameters
    ----------
    A : array_like, shape (m, n)
    range_space : Subspace of C^n
        Must complement N(A) in the domain.
    nullspace : Subspace of C^m
        Must complement R(A) in the codomain.

    Returns
    -------
    X : ndarray, shape (n, m)
        X inverts A from ``range_space`` onto R(A) and annihilates
        ``nullspace``; equivalently X = (A restricted to range_space)^-1
        composed with the projection onto R(A) along ``nullspace``.
    """
    A = as_matrix(A, "A")
    return _reflexive_inverse(A, Factored.of(A, tol), range_space, nullspace, tol)


def _reflexive_inverse(A, factored: Factored, range_space: Subspace, nullspace: Subspace,
                       tol) -> np.ndarray:
    """:func:`reflexive_inverse` of A read off its factor."""
    m, n = A.shape
    if range_space.ambient_dim != n or nullspace.ambient_dim != m:
        raise ValueError("ambient mismatch")
    # M complements R(A) iff N(A*)* B_M is nonsingular, and N complements
    # N(A) iff R(A*)* B_N is
    if not _complements(nullspace, factored.conull, tol):
        raise ComplementError("complement condition violated: R(A) and the "
                              "prescribed null space do not split the codomain")
    if not _complements(range_space, factored.corange, tol):
        raise ComplementError("complement condition violated: the prescribed "
                              "range and N(A) do not split the domain")
    return _reflexive_solve(A, range_space, nullspace)


def _reflexive_solve(A, range_space: Subspace, nullspace: Subspace) -> np.ndarray:
    """The solve behind :func:`reflexive_inverse`, for complements that have
    already been tested: X [A B_N | B_M] = [B_N | 0]."""
    bn = range_space.basis
    joined = np.hstack([A @ bn, nullspace.basis])
    target = np.hstack([bn, np.zeros((A.shape[1], nullspace.dim), dtype=np.complex128)])
    try:
        return np.linalg.solve(joined.T, target.T).T
    except np.linalg.LinAlgError as exc:
        raise ComplementError("complement condition violated") from exc


def _square(A) -> np.ndarray:
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    return A


def is_group_invertible(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether rank(A @ A) == rank(A), i.e. R(A) and N(A) split the space."""
    A = _square(A)
    return numerical_rank(A @ A, tol) == numerical_rank(A, tol)


def _group_invertible(A, factored: Factored, tol) -> bool:
    """:func:`is_group_invertible` with rank(A) read off A's factor."""
    return numerical_rank(A @ A, tol) == factored.rank


def group_inverse(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Group inverse: the reflexive inverse with range R(A), null space N(A)."""
    A = _square(A)
    factored = Factored.of(A, tol)
    if not _group_invertible(A, factored, tol):
        raise GroupInvertibilityError("not group invertible")
    return _group_inverse(A, factored, tol)


def _group_inverse(A, factored: Factored, tol) -> np.ndarray:
    """:func:`group_inverse` of a group-invertible square A read off its factor."""
    return _reflexive_inverse(A, factored, factored.range, factored.null, tol)


def core_inverse(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Core inverse: the reflexive inverse with range R(A), null space N(A*).

    Defined for group-invertible A; coincides with A# A A+ (checked in the
    test suite as an independent route).
    """
    A = _square(A)
    factored = Factored.of(A, tol)
    if not _group_invertible(A, factored, tol):
        raise GroupInvertibilityError("not group invertible")
    return _core_inverse(A, factored, tol)


def _core_inverse(A, factored: Factored, tol) -> np.ndarray:
    """:func:`core_inverse` of a group-invertible square A read off its factor."""
    return _reflexive_inverse(A, factored, factored.range, factored.conull, tol)
