"""Generalized inverses: Moore-Penrose, prescribed-space reflexive, group, core.

A reflexive inverse of A with prescribed range N and null space M is the
unique X with A X A = A, X A X = X, R(X) = N, N(X) = M; it exists exactly
when N complements N(A) in the domain and M complements R(A) in the
codomain.  Then A X is the projection onto R(A) along M and X A the
projection onto N along N(A).  X = Q A+ P is solved off one SVD of A on
the cores of sines that test the two complements.
The group and core inverses (null space N(A), respectively N(A*), and
range R(A)) exist when A is group invertible, decided once off A's factor;
each forms its one core, the sines V_r* U_r that decided it, and solves it
once.
"""

from __future__ import annotations

import numpy as np

from .exceptions import GroupInvertibilityError
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _tolerance,
    adjoint,
    as_matrix,
    rank_cut,
)
from .subspaces import Factored, Subspace, _core_solve, _outside, _subspace

__all__ = [
    "pinv",
    "reflexive_inverse",
    "is_group_invertible",
    "group_inverse",
    "core_inverse",
]


#: The message of a core that a decided complement leaves singular.
_VIOLATED = "complement condition violated"


def pinv(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the shared rank cutoff; only the
    leading singular vectors enter, so the economy factors suffice."""
    return _pinv(as_matrix(A), _tolerance(tol))


def _pinv(a: np.ndarray, tol: ToleranceConfig, shape: tuple[int, int] | None = None) -> np.ndarray:
    """:func:`pinv` of an array derived from validated operands, its rank cut
    as for a matrix of ``shape`` when ``a`` stands for a larger one with the
    same singular values."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = rank_cut(s, a.shape if shape is None else shape, tol)
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
    m, n = A.shape
    _subspace(range_space, "range_space")
    _subspace(nullspace, "nullspace")
    if range_space.ambient_dim != n or nullspace.ambient_dim != m:
        raise ValueError("ambient mismatch")
    return _reflexive(Factored._of(A, _tolerance(tol)), range_space, nullspace, tol)


def _reflexive(factored: Factored, range_space: Subspace, nullspace: Subspace,
               tol: ToleranceConfig | None) -> np.ndarray:
    """The reflexive inverse Q A+ P of the factored A with range N and null
    space M: Q V_r S_r^-1 = B_N (V_r* B_N)^-1 S_r^-1 times U_r* P =
    U_r* - (U_r* B_M) (U_r^perp* B_M)^-1 U_r^perp*.  Given a ``tol``, each
    core tests its complement and raises with the codomain or domain text;
    with None, the caller has decided both, and a core found singular
    raises "complement condition violated".
    """
    r = factored.rank
    ur_h = adjoint(factored.u[:, :r])
    codomain, domain = (_VIOLATED, _VIOLATED) if tol is None else (
        f"{_VIOLATED}: R(A) and the prescribed null space do not split the codomain",
        f"{_VIOLATED}: the prescribed range and N(A) do not split the domain")
    bm = nullspace.basis
    right = ur_h - (ur_h @ bm) @ _core_solve(bm, factored.conull.basis, tol, codomain)
    bn = range_space.basis
    return (bn @ _core_solve(bn, factored.v[:, :r], tol, domain,
                             rhs=np.diag(1.0 / factored.s[:r]))) @ right


def _square(A) -> np.ndarray:
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    return A


def is_group_invertible(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether R(A) and N(A) split the space (equivalently rank(A^2) = rank(A)),
    decided on the r x r sines V_r* U_r read off one SVD of A."""
    return _group_invertible(Factored._of(_square(A), _tolerance(tol)), tol)


def _group_invertible(factored: Factored, tol) -> bool:
    """The one group-invertibility rule: R(A) and N(A) split the space iff
    the principal-angle sines R(A*)* B_R(A) = V_r* U_r are nonsingular.  A
    square A of full rank is invertible: its sines V* U are unitary, so it
    takes no SVD of them."""
    return (factored.rank == factored.u.shape[0]
            or _outside(factored.corange, factored.range, tol) == factored.rank)


def _group_factor(A, tol) -> Factored:
    """The factor of square A, once A is found group invertible."""
    return _require_group(Factored._of(_square(A), _tolerance(tol)), tol)


def _require_group(factored: Factored, tol, label: str | None = None) -> Factored:
    """``factored``, once its square matrix is found group invertible; the
    one raise of :class:`GroupInvertibilityError`, naming the matrix
    ``label`` when given."""
    if not _group_invertible(factored, tol):
        raise GroupInvertibilityError(f"{label} is not group invertible" if label
                                      else "not group invertible")
    return factored


def group_inverse(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Group inverse: the reflexive inverse with range R(A), null space N(A)."""
    return _group_inverse(_group_factor(A, tol))


def _group_inverse(factored: Factored) -> np.ndarray:
    """:func:`group_inverse` off the factor of a group-invertible A:
    U_r C^-1 S_r^-1 C^-1 V_r* for the core C = V_r* U_r, the sines that
    decided it, formed once and solved once against [S_r^-1 | V_r*]."""
    r = factored.rank
    u, v = factored.u[:, :r], factored.v[:, :r]
    solved = _core_solve(u, v, None, _VIOLATED,
                         rhs=np.hstack([np.diag(1.0 / factored.s[:r]), adjoint(v)]))
    return u @ (solved[:, :r] @ solved[:, r:])


def core_inverse(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Core inverse: the reflexive inverse with range R(A), null space N(A*).

    Defined for group-invertible A; coincides with A# A A+ (checked in the
    test suite as an independent route).
    """
    return _core_inverse(_group_factor(A, tol))


def _core_inverse(factored: Factored) -> np.ndarray:
    """:func:`core_inverse` off the factor of a group-invertible A:
    U_r C^-1 S_r^-1 U_r* for the core C = V_r* U_r, solved once; P is
    U_r U_r*, its row factor U_r* in place of (U_r* U_r)^-1 U_r*."""
    r = factored.rank
    u = factored.u[:, :r]
    solved = _core_solve(u, factored.v[:, :r], None, _VIOLATED, rhs=np.diag(1.0 / factored.s[:r]))
    return (u @ solved) @ adjoint(u)
