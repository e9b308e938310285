"""Decoupling of least-squares problems for sums A + B.

When A sits left-minus-below A + B, the joint problem
min ||(A + B) x - c|| splits: the projection P with A = P (A + B) yields
the positive definite weight W = P*P + (I - P*)(I - P), and the joint
solutions are exactly the simultaneous solutions of the two weighted
normal equations A* W (A x - c) = 0 and B* W (B x - c) = 0.  When the
relation is left-star the canonical P is orthogonal and W collapses to
the identity.  The two normal equations are solved together on a stack of
the summands' rank, read off their factors: A* W (A x - c) vanishes iff
U_A* W (A x - c) does, since A* = V_A S_A U_A* with V_A S_A injective.
The weight needs the split's P alone, so no Q is built; P is solved as
I - L R with factors of rank(B) columns and rows, and P*P = R* (L* L) R
and the check A = P (A + B) are formed from those factors.
:func:`solve_system` tests a in R(A) and b in R(B) on its triple's factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import MembershipError
from .geninv import _pinv, pinv
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _spectral_within,
    adjoint,
    as_matrix,
    as_vector,
    fro,
)
from .orders import _left_minus, _pair_cutoff, _require
from .subspaces import Factored, Projection, Subspace, _Factors
from .sums import _NOT_LEFT_MINUS, _checked, _split_p

__all__ = [
    "Weight",
    "DecoupledLeastSquares",
    "solve_system",
    "wlss_solve",
    "decoupled_lss",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """A Hermitian positive semidefinite weight for least squares.

    ``source_projection`` records the idempotent the weight was derived
    from, when there is one.
    """

    matrix: np.ndarray
    source_projection: Projection | None = None

    @classmethod
    def identity(cls, n: int) -> "Weight":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def from_projection(cls, projection: Projection) -> "Weight":
        """W = P*P + (I - P*)(I - P), positive definite for idempotent P,
        formed as I - P - P* + 2 P*P with one product."""
        p = projection.matrix
        p_h = adjoint(p)
        w = 2.0 * (p_h @ p) - p - p_h
        w[np.diag_indices_from(w)] += 1.0
        return cls(w, projection)

    @classmethod
    def _of_split(cls, factors: _Factors, range_: Subspace, nullspace: Subspace) -> "Weight":
        """:meth:`from_projection` of the projection P = X or I - X held as
        its factors X = L R: W is symmetric in P and I - P, so
        W = I - X - X* + 2 X*X, and X*X = R* (L* L) R is formed from the
        factors, one product of the rank's inner size."""
        left, right, x = factors.left, factors.right, factors.product
        w = 2.0 * ((adjoint(right) @ (adjoint(left) @ left)) @ right) - x - adjoint(x)
        w[np.diag_indices_from(w)] += 1.0
        return cls(w, factors.projection(range_, nullspace))

    def validate(self, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> None:
        """Raise ValueError unless the matrix is Hermitian and PSD."""
        w = as_matrix(self.matrix, "weight")
        if w.shape[0] != w.shape[1]:
            raise ValueError("weight must be square")
        scale = _require_hermitian(w, tol)
        smallest = float(np.linalg.eigvalsh((w + adjoint(w)) / 2.0)[0])
        if not tol.within(-smallest, scale):
            raise ValueError("weight is not positive semidefinite")


def _require_hermitian(w: np.ndarray, tol: ToleranceConfig) -> float:
    """Raise ValueError unless ``w`` is Hermitian within the residual
    tolerance; return its Frobenius norm."""
    scale = fro(w)
    if not tol.within(fro(w - adjoint(w)), scale):
        raise ValueError("weight is not Hermitian")
    return scale


def _pinv_times(factored: Factored, c: np.ndarray) -> np.ndarray:
    """X+ c off the factor of X, as V_r S_r^-1 (U_r* c): products with the
    rank-sized factors, where the formed n x m X+ costs a full product."""
    left, right = factored._pinv_factors()
    return left @ (right @ c)


def _as_weight(w) -> Weight:
    if isinstance(w, Weight):
        return w
    return Weight(as_matrix(w, "weight"))


def solve_system(A, B, a, b, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Solve A x = a and B x = b simultaneously through the single system
    (A + B) x = a + b.

    Requires a in R(A), b in R(B) and A left-minus-below A + B; then the
    minimum-norm solution of the summed system solves both equations,
    which is verified before returning.
    """
    t = _checked(A, B, tol, None)
    A, B = t.a, t.d
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.shape[0] != A.shape[0] or b.shape[0] != B.shape[0]:
        raise ValueError("right-hand side length mismatch")
    # v lies in R(X) when U_X^perp* v is within the cutoff of the pair [X | v]
    shape = (A.shape[0], A.shape[1] + 1)
    for f, vec, label in ((t.fa, a, "a"), (t.fd, b, "b")):
        outside = adjoint(f.conull.basis) @ vec[:, None]
        cutoff = _pair_cutoff(f.s, np.linalg.norm(vec, keepdims=True), shape, tol)
        if not _spectral_within(outside, cutoff):
            raise MembershipError(f"membership fails: {label} is outside the column space")
    _require(_left_minus(t), _NOT_LEFT_MINUS)
    x = _pinv_times(t.fb, a + b)
    scale = (fro(A) + fro(B)) * fro(x) + fro(a) + fro(b)
    for residual in (A @ x - a, B @ x - b):
        tol.verify("summed solution failed to solve the pieces", np.linalg.norm(residual), scale)
    return x


def wlss_solve(C, y, w, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Minimum-norm solution of the weighted least-squares normal equation
    C* W (C x - y) = 0."""
    C = as_matrix(C, "C")
    y = as_vector(y, "y")
    if y.shape[0] != C.shape[0]:
        raise ValueError("right-hand side length mismatch")
    weight = _as_weight(w)
    weight.validate(tol)
    gram = adjoint(C) @ weight.matrix @ C
    return pinv(gram, tol) @ (adjoint(C) @ weight.matrix @ y)


@dataclass(frozen=True, eq=False)
class DecoupledLeastSquares:
    """Joint and decoupled least-squares solutions with cross-residuals.

    ``x_joint`` minimizes ||(A + B) x - c||; ``x_system`` solves the two
    weighted normal equations simultaneously; ``residuals`` holds the
    cross-verification norms (each solution plugged into the other
    problem's stationarity conditions).
    """

    x_joint: np.ndarray
    x_system: np.ndarray
    weight: Weight
    residuals: dict[str, float]


def decoupled_lss(A, B, c, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> DecoupledLeastSquares:
    """Split the joint least-squares problem for A + B into weighted
    problems for A and B separately.

    The weight comes from the optimal split projection, so it is the
    identity whenever that projection is orthogonal (in particular under
    the left-star relation).
    """
    t = _checked(A, B, tol, None)
    A, B = t.a, t.d
    c = as_vector(c, "c")
    if c.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length mismatch")
    _require(_left_minus(t), _NOT_LEFT_MINUS)
    weight = Weight._of_split(*_split_p(t))
    w = weight.matrix
    # W = P*P + (I - P)*(I - P) is a sum of Gram matrices, so it is positive
    # semidefinite but for rounding; the eigvalsh of Weight.validate could
    # only fail on that rounding, and only the Hermitian check is kept
    _require_hermitian(w, tol)

    x_joint = _pinv_times(t.fb, c)
    # A* W (A x - c) = V_A S_A U_A* W (A x - c), and V_A S_A is injective,
    # so the two normal equations are K x = [U_A* W c; U_B* W c] for the
    # stack K = [U_A* W A; U_B* W B] of the summands' rank.  Without S_A and
    # S_B in its rows, kappa(K) grows with ||A|| / ||B||, not its square.
    # K has the rank of the 2n x n [A* W A; B* W B] and is cut as it is
    uw = adjoint(np.hstack([t.fa.range.basis, t.fd.range.basis])) @ w
    ka, n = t.fa.rank, A.shape[1]
    x_system = _pinv(np.vstack([uw[:ka] @ A, uw[ka:] @ B]), tol, (2 * n, n)) @ (uw @ c)

    def joint_normal(x):
        return float(np.linalg.norm(adjoint(t.b) @ (t.b @ x - c)))

    def weighted_normal(mat, x):
        return float(np.linalg.norm(adjoint(mat) @ (w @ (mat @ x - c))))

    residuals = {
        "joint_normal_at_joint": joint_normal(x_joint),
        "joint_normal_at_system": joint_normal(x_system),
        "weighted_a_at_joint": weighted_normal(A, x_joint),
        "weighted_b_at_joint": weighted_normal(B, x_joint),
        "weighted_a_at_system": weighted_normal(A, x_system),
        "weighted_b_at_system": weighted_normal(B, x_system),
    }
    # both solutions enter the residuals, so the larger one bounds them
    norms = fro(A) + fro(B)
    scale = norms * fro(w) * (norms * max(fro(x_joint), fro(x_system)) + fro(c))
    for key, value in residuals.items():
        tol.verify(f"cross-residual {key} exceeded tolerance", value, scale)
    return DecoupledLeastSquares(x_joint=x_joint, x_system=x_system,
                                 weight=weight, residuals=residuals)
