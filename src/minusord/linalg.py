"""Shared numerical primitives: tolerances, the rank cutoff, numerical rank.

Everything in the package operates on dense complex numpy arrays.  Real
input is accepted at every entry point and widened to complex128; NaN or
infinite entries are rejected up front so the decompositions never see
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import VerificationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCE",
    "as_matrix",
    "as_vector",
    "adjoint",
    "fro",
    "as_pair",
    "singular_values",
    "rank_cut",
    "sine_cut",
    "numerical_rank",
    "range_contains",
    "effective_condition",
]

_EPS = float(np.finfo(np.float64).eps)

#: Below this Frobenius norm the sum of squares behind it may have lost
#: accuracy to underflow: sqrt(tiny / eps), where one lost subnormal per
#: entry stays far below a relative eps.
_NORM_FLOOR = math.sqrt(float(np.finfo(np.float64).tiny) / _EPS)

#: Safety factor on top of max(m, n) * eps for the default rank cutoff.
RANK_SAFETY_FACTOR = 16.0

#: Multiple of the effective rank cutoff used as the principal-angle-sine
#: threshold when testing two subspaces for equality.  Large enough to
#: absorb error from compositions of well-conditioned solves, small enough
#: that genuinely distinct subspaces in the supported regime never pass.
SUBSPACE_EQ_FACTOR = 1e6


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every predicate in the package.

    Parameters
    ----------
    rank_rtol : float or None
        Relative singular-value cutoff for rank decisions: singular values
        sigma with ``sigma <= rank_rtol * sigma_max`` count as zero.  When
        ``None`` (the default) each matrix uses ``16 * eps * max(m, n)``,
        the usual dense-rank heuristic.  sigma_max is the matrix's own
        largest singular value, except for the difference B - A of an
        order check, whose rank and the inclusion R(A) in R(B) are cut
        at max(sigma_max(A), sigma_max(B)): the rounding of forming B - A.
    residual_atol : float
        Cutoff for formula residuals.  Every residual check goes through
        :meth:`within` or :meth:`verify`, which compare the residual with
        ``residual_atol`` times the scale of the checked identity: the
        product of the Frobenius norms of its factors, a difference X - Y
        counting as ||X|| + ||Y||.  The scale then has the degree of the
        residual, so no verdict changes when the operands are scaled.
    angle_gap : float
        Margin below one for minimal-angle tests: ``c0 < 1 - angle_gap``
        counts as "strictly less than one".
    """

    rank_rtol: float | None = None
    residual_atol: float = 1e-10
    angle_gap: float = 1e-8

    def __post_init__(self):
        if self.rank_rtol is not None and not 0.0 <= self.rank_rtol < 1.0:
            raise ValueError("rank_rtol must satisfy 0 <= rank_rtol < 1")
        if not 0.0 <= self.residual_atol < math.inf:
            raise ValueError("residual_atol must be finite and nonnegative")
        if not 0.0 <= self.angle_gap < 1.0:
            raise ValueError("angle_gap must satisfy 0 <= angle_gap < 1")

    def effective_rank_rtol(self, shape: tuple[int, ...]) -> float:
        """Relative rank cutoff in effect for a matrix of the given shape."""
        if self.rank_rtol is not None:
            return self.rank_rtol
        return RANK_SAFETY_FACTOR * _EPS * max(max(shape), 1)

    def subspace_atol(self, ambient_dim: int) -> float:
        """Threshold on principal-angle sines for subspace equality tests."""
        return SUBSPACE_EQ_FACTOR * self.effective_rank_rtol((ambient_dim, ambient_dim))

    def within(self, residual: float, scale: float) -> bool:
        """The one residual rule: ``residual <= residual_atol * scale``.

        ``scale`` is the product of the Frobenius norms of the factors in
        the checked identity, with ||X|| + ||Y|| for a difference X - Y, so
        it is homogeneous of the residual's degree in the operands.
        """
        return residual <= self.residual_atol * scale

    def verify(self, name: str, residual: float, scale: float) -> None:
        """Raise :class:`VerificationError` ``name``, carrying the residual
        and its bound, unless :meth:`within` passes."""
        if not self.within(residual, scale):
            raise VerificationError(name, residual, self.residual_atol * scale)


DEFAULT_TOLERANCE = ToleranceConfig()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite two-dimensional complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    # a complex entry is finite when both of its parts are: one scan
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite one-dimensional complex128 array.

    Column vectors of shape (n, 1) are accepted and flattened.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def adjoint(A) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def fro(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def as_pair(A, B, square: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Coerce two operands that must share one shape (and be square when
    ``square`` is set)."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ValueError("shape mismatch")
    if square and A.shape[0] != A.shape[1]:
        raise ValueError("square matrices required")
    return A, B


def singular_values(A) -> np.ndarray:
    return _singular_values(as_matrix(A))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """:func:`singular_values` of an array derived from validated operands,
    which is not validated again; an empty matrix has none."""
    if min(a.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def rank_cut(s, shape: tuple[int, ...], tol: ToleranceConfig = DEFAULT_TOLERANCE,
             scale: float | None = None) -> int:
    """The one rank decision of the package: how many of the descending
    singular values ``s`` of a matrix of the given shape lie above its
    :func:`_rank_cutoff`."""
    return _count(s, _rank_cutoff(s, shape, tol, scale))


def _rank_cutoff(s, shape: tuple[int, ...], tol: ToleranceConfig,
                 scale: float | None = None) -> float:
    """``effective_rank_rtol(shape) * scale``, ``scale`` defaulting to the
    matrix's own sigma_1 (0 for none); the order checks pass
    max(sigma_1(A), sigma_1(B)) for B - A, since forming it rounds by eps
    times that scale (Golub & Van Loan, Matrix Computations, 5.4)."""
    top = float(s[0]) if len(s) else 0.0
    return float(tol.effective_rank_rtol(shape) * (top if scale is None else scale))


def _count(s, cutoff: float) -> int:
    """How many of ``s`` exceed ``cutoff``, compared as Python floats: faster on few values."""
    return sum(v > cutoff for v in s.tolist())


def _near(values, threshold: float) -> bool:
    """The one boundary rule: whether any of ``values`` lies within a
    factor of ten of ``threshold``, a decision not clearly resolved."""
    return any(threshold / 10.0 < v < threshold * 10.0 for v in values)


def sine_cut(s, ambient_dim: int, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> int:
    """dim M - dim(M cap S) from the principal-angle sines ``s``, the
    singular values of X* B_M for orthonormal bases X of S^perp and B_M of
    M in C^ambient_dim: the rank of a square ambient matrix at scale one,
    the norm of an orthonormal basis.  Sines resolve an angle to about
    eps, where 1 - cos resolves it only to about sqrt(eps)."""
    return rank_cut(s, (ambient_dim, ambient_dim), tol, 1.0)


def _spectral_within(x: np.ndarray, bound: float, values=None) -> bool:
    """Whether no singular value of ``x`` exceeds ``bound``, i.e. the
    verdict ``s[0] <= bound`` of an inclusion of subspaces and of a
    :func:`rank_cut` to rank zero at cutoff ``bound``, settled from the
    Frobenius norm when it is far enough from the bound.  An open case
    reads the singular values from ``values()`` when given, a factor of
    ``x`` made or kept elsewhere, so ``x`` is not factored twice.

    sigma_1 <= ||x||_F <= sqrt(k) sigma_1 for k = min(x.shape), so
    ||x||_F <= bound (1 - delta) answers yes and
    ||x||_F > sqrt(k) bound (1 + delta) answers no; every other case takes
    the singular values.  delta = 16 eps max(x.shape), the rank cutoff's
    own rounding margin, covers the rounding of the norm and of the SVD it
    stands in for.  The norm is one BLAS dot product, unscaled, so a norm
    that may have overflowed or underflowed settles nothing, but for an
    ``x`` of zeros alone, whose singular values are all 0.
    """
    if min(x.shape) == 0:
        return True
    norm = math.sqrt(np.vdot(x, x).real)
    if _NORM_FLOOR <= norm < math.inf:
        delta = RANK_SAFETY_FACTOR * _EPS * max(x.shape)
        if norm <= bound * (1.0 - delta):
            return True
        if norm > math.sqrt(min(x.shape)) * bound * (1.0 + delta):
            return False
    elif not x.any():
        return 0.0 <= bound
    return bool((_singular_values(x) if values is None else values())[0] <= bound)


def numerical_rank(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> int:
    """Number of singular values above the relative cutoff."""
    return _rank(as_matrix(A), tol)


def _rank(a: np.ndarray, tol: ToleranceConfig) -> int:
    """:func:`numerical_rank` of an array derived from validated operands."""
    return rank_cut(_singular_values(a), a.shape, tol)


def range_contains(B, A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether the column space of ``A`` lies inside that of ``B``.

    Tested as rank([B | A]) == rank(B) with the shared cutoff.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValueError("row counts differ")
    return _rank(np.hstack([B, A]), tol) == _rank(B, tol)


def effective_condition(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> float:
    """Ratio of the largest singular value to the smallest one above the
    rank cutoff.  Returns 0.0 for the zero matrix."""
    s = singular_values(A)
    rank = rank_cut(s, np.shape(A), tol)
    return float(s[0] / s[rank - 1]) if rank else 0.0
