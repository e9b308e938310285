"""Subspace geometry: orthonormal bases, angles, sums, projections.

A subspace of C^n is represented by an orthonormal basis stored as the
columns of an (n, k) array; the zero subspace keeps its ambient dimension
and carries an empty basis.  A matrix whose fundamental subspaces are all
needed is factored once into a :class:`Factored`, which reads them off one
SVD together with their orthogonal complements.

Every relation between two subspaces is judged on their principal-angle
sines (Bjorck & Golub 1973) by :func:`~minusord.linalg.sine_cut`.  The
sines of M against X are the singular values of X^perp* B_M:
:func:`_outside` counts M's directions outside X, :func:`_departing` keeps
them, and :func:`_sum_and_meet` returns X + M, its orthogonal complement
and X cap M from one SVD.  A test that needs only a dimension takes
singular values alone, and an inclusion a Frobenius norm when that
settles it (:func:`~minusord.linalg._spectral_within`), of
B_M - B_X (B_X* B_M) when no basis of X^perp is at hand (:func:`_sines`).
:func:`_core_solve` tests M + X for a direct sum of the whole space on
the square X^perp* B_M exactly when given a tolerance (without one, the
caller has decided it) and solves on it: it is the package's only solve,
so every projection, witness and reflexive inverse is solved on such a
core, never on an n x n join.  :func:`_oblique` keeps the projection as
its rank-sized factors (:class:`_Factors`), formed only on request.  A
meet or sum whose dimension the caller has already decided has no sine to
cut: :func:`_meet` and :func:`_join` read it off one QR of the sines'
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ComplementError
from .linalg import (
    DEFAULT_TOLERANCE,
    RANK_SAFETY_FACTOR,
    ToleranceConfig,
    _EPS,
    _NORM_FLOOR,
    _count,
    _near,
    _rank_cutoff,
    _singular_values,
    _spectral_within,
    _tolerance,
    adjoint,
    as_matrix,
    as_vector,
    fro,
    rank_cut,
    sine_cut,
)

__all__ = [
    "Subspace",
    "Factored",
    "Projection",
    "AngleEquivalences",
    "range_basis",
    "null_basis",
    "subspace_sum",
    "span_dim",
    "intersect",
    "ominus",
    "is_direct_sum",
    "subspace_equal",
    "minimal_angle_cos",
    "angle_equivalences",
    "orthogonal_projection",
    "oblique_projection",
]

#: The relative bound of the idempotency screen of :class:`Projection`:
#: ||P^2 - P||_F <= _SCREEN (||P||_F^2 + ||P||_F).
_SCREEN = 1e-6


def _check_basis(arr: np.ndarray) -> np.ndarray:
    """The shape checks of a Subspace basis."""
    if arr.shape[0] < 1:
        raise ValueError("ambient dimension must be positive")
    if arr.shape[1] > arr.shape[0]:
        raise ValueError("more basis vectors than the ambient dimension")
    return arr


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of C^n held as an orthonormal column basis.

    Parameters
    ----------
    basis : ndarray
        Array of shape (ambient_dim, dim) with orthonormal columns, to
        within ``DEFAULT_TOLERANCE.subspace_atol(ambient_dim)`` in
        ||B*B - I||_F; any other basis raises ValueError.  The zero
        subspace is the (ambient_dim, 0) empty array.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = _check_basis(as_matrix(self.basis, "basis"))
        gram = adjoint(basis) @ basis
        gram[np.diag_indices_from(gram)] -= 1.0
        if fro(gram) > DEFAULT_TOLERANCE.subspace_atol(basis.shape[0]):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _trusted(cls, basis: np.ndarray) -> "Subspace":
        """A Subspace on a complex128 ``basis`` the package derived from
        validated operands (a slice of a factor, a product or a join of
        such bases): the shape checks of the constructor, no coercion and
        no finiteness scan."""
        space = object.__new__(cls)
        object.__setattr__(space, "basis", _check_basis(basis))
        return space

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._trusted(np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._trusted(np.eye(ambient_dim, dtype=np.complex128))

    @classmethod
    def from_span(cls, vectors, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> "Subspace":
        """Orthonormalize the columns of ``vectors`` into a Subspace.

        Rank-deficient spans are compressed with the shared rank cutoff.
        """
        arr = as_matrix(vectors, "vectors")
        _tolerance(tol)
        if arr.shape[1] == 0:
            return cls.zero(arr.shape[0])
        # economy factors: only the leading left singular vectors are kept
        u, s, _ = np.linalg.svd(arr, full_matrices=False)
        return cls._trusted(u[:, :rank_cut(s, arr.shape, tol)])

    def perp(self) -> "Subspace":
        """Orthogonal complement: the trailing columns of a complete QR of
        the orthonormal basis."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace._trusted(q[:, self.dim:])

    def projector(self) -> np.ndarray:
        """Matrix of the orthogonal projection onto this subspace."""
        return self.basis @ adjoint(self.basis)

    def contains_vector(self, v, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
        v = as_vector(np.reshape(v, -1))
        if v.shape[0] != self.ambient_dim:
            raise ValueError("ambient mismatch")
        resid = v - self.basis @ (adjoint(self.basis) @ v)
        return fro(resid) <= _tolerance(tol).subspace_atol(self.ambient_dim) * fro(v)


@dataclass(frozen=True, eq=False)
class Factored:
    """One full SVD A = U diag(s) V* with the shared rank decision applied.

    The four fundamental subspaces and the Moore-Penrose inverse are all
    read off these factors:
    R(A) = U[:, :r], R(A*) = V[:, :r], N(A) = V[:, r:], N(A*) = U[:, r:].
    The four subspaces are views into U and V, built on first use and
    cached, so every read of ``f.range`` returns the same Subspace.
    ``cutoff`` is what the rank was cut at, and ``near`` is derived from it on read.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int
    cutoff: float

    @classmethod
    def of(cls, A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> "Factored":
        return cls._of(as_matrix(A), _tolerance(tol))

    @classmethod
    def _of(cls, a: np.ndarray, tol: ToleranceConfig, scale: float | None = None) -> "Factored":
        """:meth:`of` for an array derived from validated operands, its rank
        cut at the reference ``scale`` of :func:`~minusord.linalg._rank_cutoff`."""
        u, s, vh = np.linalg.svd(a, full_matrices=True)
        cutoff = _rank_cutoff(s, a.shape, tol, scale)
        return cls(u, s, adjoint(vh), _count(s, cutoff), cutoff)

    @classmethod
    def _summand(cls, x: np.ndarray, total: "Factored", tol: ToleranceConfig,
                 scale: float | None = None) -> "Factored":
        """:meth:`_of` of a summand X of S, read off the factor ``total`` of
        S cut at its rank k: Y = U_S* X V_S holds X in S's bases, and the
        SVD X_c Sigma Y_c* of its k x k core W gives X's factor
        [U_k X_c | U_k^perp], Sigma padded with zeros, [V_k Y_c | V_k^perp].
        Once the ranks of the summands add, R(X) lies in R(S) and R(X*) in
        R(S*) (Marsaglia & Styan 1974), so the rest of Y, X's part outside
        the bases, vanishes.  S's bases know a summand far smaller than S
        only to about eps ||S|| / sigma_min(X) (Wedin 1972), so the core
        serves only when the Frobenius norm of that part, which bounds
        every singular value of X past k, lies within a tenth of the lesser
        of X's own cutoff and the cutoff at ``scale``: no value that
        :func:`_near` flags is then dropped.  Otherwise, or when that bound
        is too small for the norm to settle
        (:func:`~minusord.linalg._spectral_within`), X is factored in full.
        The part is formed, not taken as ||X||^2 - ||W||^2, which cancels:
        first U_k^perp* X, whose norm is that of Y's rows past k, then the
        rest of U_k* X V_S.  The rank is cut at ``scale`` either way."""
        k = total.rank
        # the bound below is at most a tenth of the cutoff of a sigma_1 of
        # ||X||_F >= sigma_1(W), so a part past that fails before the rest
        # of Y, or the core's SVD, is made
        loose = _rank_cutoff([math.sqrt(np.vdot(x, x).real)], x.shape, tol) / 10.0
        left = adjoint(total.u) @ x
        below = math.sqrt(np.vdot(left[k:], left[k:]).real)
        if below > loose:
            return cls._of(x, tol, scale)
        top = left[:k] @ total.v
        beside = top[:, k:].ravel()
        outside = math.hypot(below, math.sqrt(np.vdot(beside, beside).real))
        if outside > loose:
            return cls._of(x, tol, scale)
        x_c, core, y_ch = np.linalg.svd(top[:, :k])
        s = np.zeros(min(x.shape))
        s[:k] = core
        cutoff = _rank_cutoff(s, x.shape, tol, scale)
        bound = min(_rank_cutoff(core, x.shape, tol), cutoff) / 10.0
        if not _NORM_FLOOR <= bound or outside > bound:
            return cls._of(x, tol, scale)
        u, v = np.empty_like(total.u), np.empty_like(total.v)
        np.matmul(total.u[:, :k], x_c, out=u[:, :k])
        np.matmul(total.v[:, :k], adjoint(y_ch), out=v[:, :k])
        u[:, k:], v[:, k:] = total.u[:, k:], total.v[:, k:]
        return cls(u, s, v, _count(s, cutoff), cutoff)

    @property
    def near(self) -> bool:
        return _near(self.s.tolist(), self.cutoff)

    @cached_property
    def range(self) -> Subspace:
        return Subspace._trusted(self.u[:, :self.rank])

    @cached_property
    def corange(self) -> Subspace:
        """R(A*), the orthogonal complement of the null space."""
        return Subspace._trusted(self.v[:, :self.rank])

    @cached_property
    def null(self) -> Subspace:
        return Subspace._trusted(self.v[:, self.rank:])

    @cached_property
    def conull(self) -> Subspace:
        """N(A*), the orthogonal complement of the range."""
        return Subspace._trusted(self.u[:, self.rank:])

    def adjoint(self) -> "Factored":
        """The factor of A*, A* = V diag(s) U*, with no further SVD."""
        return Factored(self.v, self.s, self.u, self.rank, self.cutoff)

    def _pinv_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """V_r S_r^-1 and U_r*, whose product is the Moore-Penrose inverse:
        applied in turn, each product has r rows or columns, where the
        formed n x m inverse costs a full product."""
        r = self.rank
        return self.v[:, :r] / self.s[:r], adjoint(self.u[:, :r])

    def pinv(self) -> np.ndarray:
        left, right = self._pinv_factors()
        return left @ right


@dataclass(frozen=True, eq=False)
class Projection:
    """An idempotent together with its range and null space.

    ``matrix`` is the idempotent itself; ``range`` and ``nullspace`` record
    the decomposition it projects along.  For an orthogonal projection the
    nullspace is the orthogonal complement of the range and the matrix is
    Hermitian.
    """

    matrix: np.ndarray
    range: Subspace
    nullspace: Subspace

    def __post_init__(self):
        mat = as_matrix(self.matrix, "projection matrix")
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("projection matrix must be square")
        # loose idempotency screen; constructors verify the tight version
        if fro(mat @ mat - mat) > _SCREEN * (fro(mat) ** 2 + fro(mat)):
            raise ValueError("matrix is not idempotent")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, range_: Subspace, nullspace: Subspace) -> "Projection":
        """A Projection not screened again: one derived from a screened one,
        since (I - P)^2 - (I - P) = P^2 - P and (P*)^2 - P* = (P^2 - P)*,
        while I - P may be pure rounding when P is the identity; or one whose
        screen :func:`_idempotent_within` has certified from its factors."""
        proj = object.__new__(cls)
        for name, value in (("matrix", matrix), ("range", range_), ("nullspace", nullspace)):
            object.__setattr__(proj, name, value)
        return proj

    def complement(self) -> "Projection":
        """The complementary projection I - P, onto nullspace along range."""
        eye = np.eye(self.matrix.shape[0], dtype=np.complex128)
        return Projection._trusted(eye - self.matrix, self.nullspace, self.range)

    def adjoint(self) -> "Projection":
        """The adjoint idempotent P*, onto N(P)^perp along R(P)^perp."""
        return Projection._trusted(adjoint(self.matrix), self.nullspace.perp(), self.range.perp())

    def is_hermitian(self, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
        return tol.within(fro(self.matrix - adjoint(self.matrix)), fro(self.matrix))


def _check_ambient(m_space: Subspace, n_space: Subspace):
    if m_space.ambient_dim != n_space.ambient_dim:
        raise ValueError("ambient mismatch")


def _subspace(space, name: str) -> Subspace:
    """``space``, checked once at a public entry: anything but a Subspace,
    such as an array of basis columns, raises TypeError naming the
    parameter ``name``."""
    if not isinstance(space, Subspace):
        raise TypeError(f"{name} must be a Subspace, not {type(space).__name__}")
    return space


def _operands(m_space, n_space, tol=DEFAULT_TOLERANCE) -> None:
    """The argument checks of a public operation on M and N: each a
    Subspace and ``tol`` a ToleranceConfig (TypeError), in one ambient
    space (ValueError)."""
    _check_ambient(_subspace(m_space, "m_space"), _subspace(n_space, "n_space"))
    _tolerance(tol)


def range_basis(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """Orthonormal basis of the column space of ``A``."""
    return Subspace.from_span(as_matrix(A), tol)


def null_basis(A, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """Orthonormal basis of the null space of ``A``."""
    A = as_matrix(A)
    if A.shape[1] == 0:
        raise ValueError("matrix must have at least one column")
    return Factored._of(A, _tolerance(tol)).null


def subspace_sum(m_space: Subspace, n_space: Subspace,
                 tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """The subspace M + N: B_M extended by the directions of N outside M."""
    _operands(m_space, n_space, tol)
    return _sum_and_meet(m_space, m_space.perp(), n_space, tol)[0]


def span_dim(m_space: Subspace, n_space: Subspace,
             tol: ToleranceConfig = DEFAULT_TOLERANCE) -> int:
    """dim(M + N): dim M plus the number of principal-angle sines of N
    against M above the cutoff, from singular values alone."""
    _operands(m_space, n_space, tol)
    return m_space.dim + sine_cut(_singular_values(_sines(n_space, m_space)),
                                  m_space.ambient_dim, tol)


def intersect(m_space: Subspace, n_space: Subspace,
              tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """The subspace M intersect N: the directions of N whose sines against
    M fall below the cutoff."""
    _operands(m_space, n_space, tol)
    return _sum_and_meet(m_space, m_space.perp(), n_space, tol)[2]


def ominus(m_space: Subspace, n_space: Subspace,
           tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """The relative orthogonal complement M ominus N = M intersect (M cap N)^perp:
    the directions of M whose sines against N survive the cutoff."""
    _operands(m_space, n_space, tol)
    return _departing(n_space.perp(), m_space, tol)


def is_direct_sum(m_space: Subspace, n_space: Subspace,
                  tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether M + N is direct, i.e. dim(M) + dim(N) == dim(M + N)."""
    return span_dim(m_space, n_space, tol) == m_space.dim + n_space.dim


def subspace_equal(m_space: Subspace, n_space: Subspace,
                   tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether two subspaces coincide: their dimensions match and the
    largest principal-angle sine of M against N (it equals c0(M, N^perp))
    is within the equality threshold, by :func:`~minusord.linalg._spectral_within`."""
    _operands(m_space, n_space, tol)
    return (m_space.dim == n_space.dim
            and _spectral_within(_sines(m_space, n_space), tol.subspace_atol(m_space.ambient_dim)))


def minimal_angle_cos(m_space: Subspace, n_space: Subspace) -> float:
    """Cosine of the minimal angle between two subspaces.

    This is sup |<x, y>| over unit vectors x in M, y in N, i.e. the
    largest singular value of B_M* B_N, clipped into [0, 1] against
    floating-point overshoot.  Either subspace being zero gives 0.
    """
    _operands(m_space, n_space)
    if m_space.dim == 0 or n_space.dim == 0:
        return 0.0
    s = np.linalg.svd(adjoint(m_space.basis) @ n_space.basis, compute_uv=False)
    return float(np.clip(s[0], 0.0, 1.0))


@dataclass(frozen=True)
class AngleEquivalences:
    """Independent verdicts of the three equivalent angle conditions.

    In finite dimension, c0(M, N) < 1, the sum M + N being direct, and
    M^perp + N^perp spanning the whole space are equivalent; each field is
    evaluated on its own so the equivalence itself is observable.
    """

    c0: float
    c0_lt_1: bool
    direct_sum_closed: bool
    complements_span: bool


def angle_equivalences(m_space: Subspace, n_space: Subspace,
                       tol: ToleranceConfig = DEFAULT_TOLERANCE) -> AngleEquivalences:
    _operands(m_space, n_space, tol)
    c0 = minimal_angle_cos(m_space, n_space)
    return AngleEquivalences(
        c0=c0,
        c0_lt_1=c0 < 1.0 - tol.angle_gap,
        direct_sum_closed=is_direct_sum(m_space, n_space, tol),
        complements_span=span_dim(m_space.perp(), n_space.perp(), tol) == m_space.ambient_dim,
    )


def orthogonal_projection(m_space: Subspace) -> Projection:
    """Orthogonal projection onto M."""
    _subspace(m_space, "m_space")
    return Projection(m_space.projector(), m_space, m_space.perp())


def oblique_projection(m_space: Subspace, n_space: Subspace,
                       tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Projection:
    """Projection onto M along N, for complementary M and N, solved on the
    core of the smaller side against the other's complement (one complete
    QR).  Raises :class:`ComplementError` unless M and N split the space,
    and TypeError for a ``tol`` that is no ToleranceConfig, such as None,
    which would leave the core untested.
    """
    _operands(m_space, n_space, tol)
    perps = ({"n_perp": n_space.perp()} if m_space.dim <= n_space.dim
             else {"m_perp": m_space.perp()})
    return _oblique(m_space, n_space, tol, **perps).projection(m_space, n_space)


def _core_solve(basis: np.ndarray, perp: np.ndarray, tol: ToleranceConfig | None,
                message: str = "not a complementary pair", complement=None,
                rhs: np.ndarray | None = None) -> np.ndarray:
    """C^-1 ``rhs`` for the core C = X^perp* B_M of ``basis`` B_M against
    ``perp`` X^perp; ``rhs`` defaults to X^perp*, so that B_M C^-1 X^perp*
    projects onto M along X.  A ``tol`` of None says the caller has found M
    and X complementary; otherwise a sine at or below the cutoff raises
    :class:`ComplementError` with ``message``, naming ``complement``, as do
    a core that is not square and a singular one.
    """
    perp_h = adjoint(perp)
    core = perp_h @ basis
    k = basis.shape[1]
    if perp.shape[1] != k or (tol is not None
                              and sine_cut(_singular_values(core), basis.shape[0], tol) != k):
        raise ComplementError(message, complement)
    try:
        return np.linalg.solve(core, perp_h if rhs is None else rhs)
    except np.linalg.LinAlgError as exc:
        raise ComplementError(message, complement) from exc


def _oblique(m_space: Subspace, n_space: Subspace, tol: ToleranceConfig | None, complement=None,
             *, m_perp: Subspace | None = None, n_perp: Subspace | None = None) -> "_Factors":
    """The projection onto M along N, solved on a square core of
    principal-angle sines rather than on the n x n join [B_M | B_N], and
    held as its rank-sized factors.

    With a basis of N^perp, P = B_M C^-1 N^perp* for the core
    C = N^perp* B_M: P fixes B_M and annihilates N.  With a basis of M^perp
    instead, P = I - B_N C^-1 M^perp* for C = M^perp* B_N, the complement of
    the projection onto N along M.  Given both, the smaller core serves:
    N^perp* B_M when dim M <= dim N.  :func:`_core_solve` tests and solves
    C, with ``tol`` and ``complement``.
    """
    _check_ambient(m_space, n_space)
    if n_perp is not None and (m_perp is None or m_space.dim <= n_space.dim):
        return _along(m_space, n_perp, tol, complement)
    onto_n = _along(n_space, m_perp, tol, complement)
    # for M = 0, I - B_N C^-1 M^perp* is I - I: pure rounding, not 0
    return onto_n.complement() if m_space.dim else _Factors.zero(m_space.ambient_dim)


def _along(m_space: Subspace, x_perp: Subspace, tol: ToleranceConfig | None,
           complement=None) -> "_Factors":
    """The projection B_M C^-1 X^perp* onto M along the subspace X with
    orthogonal complement ``x_perp``, for the core C = X^perp* B_M that
    :func:`_core_solve` tests and solves."""
    basis = m_space.basis
    return _Factors(basis, _core_solve(basis, x_perp.basis, tol, complement=complement), False)


@dataclass(frozen=True, eq=False)
class _Factors:
    """A projection held as its rank-sized factors: L R, or I - L R when
    ``flipped``, for L = ``left`` (n x k) and R = ``right`` (k x n) with
    R L = I.  Applied to a matrix of k or fewer columns or rows, each
    product keeps a side of the rank's size, where the formed n x n
    projection costs a full product; it is formed only when returned."""

    left: np.ndarray
    right: np.ndarray
    flipped: bool

    @classmethod
    def zero(cls, n: int) -> "_Factors":
        empty = np.zeros((n, 0), dtype=np.complex128)
        return cls(empty, adjoint(empty), False)

    def complement(self) -> "_Factors":
        """I - P, on the same factors."""
        return _Factors(self.left, self.right, not self.flipped)

    def times(self, x: np.ndarray) -> np.ndarray:
        """P x."""
        y = self.left @ (self.right @ x)
        return x - y if self.flipped else y

    def after(self, x: np.ndarray) -> np.ndarray:
        """x P."""
        y = (x @ self.left) @ self.right
        return x - y if self.flipped else y

    def norm(self) -> float:
        """||P||_F off the factors: ||L R||_F^2 = tr((L* L)(R R*)), and
        ||I - L R||_F^2 = n - 2 Re tr(R L) + ||L R||_F^2."""
        left, right = self.left, self.right
        square = np.vdot(right @ adjoint(right), adjoint(left) @ left).real
        if self.flipped:
            square += left.shape[0] - 2.0 * np.trace(right @ left).real
        return math.sqrt(max(square, 0.0))

    def certify(self, tol: ToleranceConfig, name: str) -> None:
        """Verify the solve of the core from its k x k residual R L - I,
        on the scale ||R|| ||L|| + ||I||: P^2 - P = L (R L - I) R up to sign,
        and P fixes L's columns up to L (R L - I)."""
        left, right = self.left, self.right
        k = left.shape[1]
        tol.verify(name, fro(right @ left - np.eye(k, dtype=np.complex128)),
                   fro(right) * fro(left) + math.sqrt(k))

    @cached_property
    def product(self) -> np.ndarray:
        """L R, formed once."""
        return self.left @ self.right

    def matrix(self) -> np.ndarray:
        x = self.product
        return np.eye(x.shape[0], dtype=np.complex128) - x if self.flipped else x

    def projection(self, range_: Subspace, nullspace: Subspace) -> Projection:
        """The Projection onto ``range_`` along ``nullspace``, formed, its
        screen certified from the k x k residual (:func:`_idempotent_within`)
        or else run in full."""
        matrix = self.matrix()
        if _idempotent_within(matrix, self.left, self.right):
            return Projection._trusted(matrix, range_, nullspace)
        return Projection(matrix, range_, nullspace)


def _idempotent_within(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> bool:
    """Whether the idempotency screen of :class:`Projection` passes on
    ``x``, the computed L R or I - L R for L = ``left`` (n x k) and
    R = ``right`` (k x n), certified from the k x k residual R L - I in place
    of the n x n product x x.

    (L R)^2 - L R = L (R L - I) R = (I - L R)^2 - (I - L R), so the exact
    product has a defect of at most ||L|| ||R L - I|| ||R||, and forming x
    moves it by at most d = delta (||L|| ||R|| + ||x||), which changes the
    defect by at most d (2 (||x|| + d) + d + 1).  The screen's own product
    x x rounds by delta ||x||^2 more.  delta = 16 eps n, the rank cutoff's
    rounding margin, covers the rounding of each product and norm, as in
    :func:`~minusord.linalg._spectral_within`.  A norm that may have
    overflowed or underflowed certifies nothing, nor does a bound that
    comes near the screen's; the caller then runs the screen in full.
    """
    k = left.shape[1]
    if k == 0:
        # x is exactly 0 or I
        return True
    norms = [math.sqrt(np.vdot(a, a).real) for a in (left, right, x)]
    if not all(_NORM_FLOOR <= norm < math.inf for norm in norms):
        return False
    nl, nr, nx = norms
    delta = RANK_SAFETY_FACTOR * _EPS * x.shape[0]
    s = nl * nr
    gap = fro(right @ left - np.eye(k, dtype=np.complex128))
    d = delta * (s + nx)
    bound = s * (gap + delta * (s + math.sqrt(k))) + d * (2.0 * (nx + d) + d + 1.0) + delta * nx ** 2
    return bound * (1.0 + delta) <= _SCREEN * (nx ** 2 + nx) * (1.0 - delta)


def _outside(x_perp: Subspace, m_space: Subspace, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> int:
    """dim M - dim(M cap X) for the subspace X with orthogonal complement
    ``x_perp``: the number of principal-angle sines X^perp* B_M above the cutoff."""
    sines = _singular_values(adjoint(x_perp.basis) @ m_space.basis)
    return sine_cut(sines, m_space.ambient_dim, tol)


def _departing(x_perp: Subspace, m_space: Subspace,
               tol: ToleranceConfig = DEFAULT_TOLERANCE) -> Subspace:
    """M ominus X for X with orthogonal complement ``x_perp``: B_M W[:, :k] for
    the economy SVD X^perp* B_M = U S W* with k sines above the cutoff."""
    _, sines, wh = np.linalg.svd(adjoint(x_perp.basis) @ m_space.basis, full_matrices=False)
    k = sine_cut(sines, m_space.ambient_dim, tol)
    return Subspace._trusted(m_space.basis @ adjoint(wh[:k]))


def _sines(m_space: Subspace, x_space: Subspace) -> np.ndarray:
    """B_M - B_X (B_X* B_M), whose singular values are the principal-angle
    sines of M against X, for when no basis of X^perp is at hand."""
    b_x = x_space.basis
    return m_space.basis - b_x @ (adjoint(b_x) @ m_space.basis)


def _sum_and_meet(x_space: Subspace, x_perp: Subspace, m_space: Subspace,
                  tol: ToleranceConfig = DEFAULT_TOLERANCE) -> tuple[Subspace, Subspace, Subspace]:
    """X + M, its orthogonal complement and X cap M, for X with orthogonal
    complement ``x_perp``, from one SVD of X^perp* B_M = U S W*.

    The sines in S above the cutoff of :func:`~minusord.linalg.sine_cut`
    count M's directions outside X; X^perp U splits into those directions,
    which extend B_X to an orthonormal basis of X + M, and the rest, which
    span (X + M)^perp.  The right singular vectors past them map B_M onto
    X cap M.
    """
    _check_ambient(x_perp, m_space)
    u, s, wh = np.linalg.svd(adjoint(x_perp.basis) @ m_space.basis)
    k = sine_cut(s, x_space.ambient_dim, tol)
    outside = x_perp.basis @ u
    return (Subspace._trusted(np.hstack([x_space.basis, outside[:, :k]])),
            Subspace._trusted(outside[:, k:]),
            Subspace._trusted(m_space.basis @ adjoint(wh[k:])))


def _meet(x_perp: Subspace, m_space: Subspace) -> Subspace:
    """X cap M for the subspace X with orthogonal complement ``x_perp``, once
    the caller has found X^perp* B_M of full row rank, so that the meet has
    dimension dim M - dim X^perp: B_M times the trailing columns of one
    complete QR of (X^perp* B_M)*, which span its null space, with no sine
    to cut."""
    _check_ambient(x_perp, m_space)
    q, _ = np.linalg.qr(adjoint(m_space.basis) @ x_perp.basis, mode="complete")
    return Subspace._trusted(m_space.basis @ q[:, x_perp.dim:])


def _join(x_space: Subspace, x_perp: Subspace, m_space: Subspace) -> Subspace:
    """X + M for X with orthogonal complement ``x_perp``, once the caller has
    found the sum direct: B_X extended by X^perp Q for the economy QR of
    X^perp* B_M, whose Q spans M's part outside X, with no sine to cut."""
    _check_ambient(x_perp, m_space)
    q, _ = np.linalg.qr(adjoint(x_perp.basis) @ m_space.basis)
    return Subspace._trusted(np.hstack([x_space.basis, x_perp.basis @ q]))
