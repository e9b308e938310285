"""Constructive consequences for sums A + B with A below A + B.

Everything here assumes the minus (or one-sided minus) relation between A
and A + B and turns it into concrete operators: the oblique/optimal
projection pair (P, Q) with A = P (A + B) = (A + B) Q, the projection-sum
idempotent E, the Fill-Fishkind expression for the Moore-Penrose inverse
of the sum, reflexive inverses of the sum with prescribed spaces, the
two-summand decomposition of such inverses, and inverse additivity under
the star, sharp and core orders.

Each construction enters through :func:`_checked`, which validates A and
B, holds them in the triple ``t`` of A against A + B with the caller's B
as its exact difference, and runs the construction's order check on it;
the triple factors A, A + B and B once each.  So ``t.b`` is the sum,
``t.fb`` its factor, and ``t.fd`` the factor of the summand B itself, not
of the rounded fl(A + B) - A; the constructions read every subspace and
pseudoinverse off these factors, and each builds only what it returns:
P and Q are built and verified apart, so the pseudoinverse builds both,
least squares P alone, and only :func:`build_split` forms E and runs its
checks.  Projectors onto
the factors' ranges and the factored pseudoinverses V_r S_r^-1 U_r* are
applied in turn, never formed as n x n matrices, and every oblique
projection is solved on a square core of sines read off the factors, never
on an n x n join, and held as its rank-sized factors, L R or I - L R
(:class:`~minusord.subspaces._Factors`): P and Q are applied factor by
factor, A - P (A + B) is checked as A - (A + B) + L (R (A + B)), and an
n x n P or Q is formed only where one is returned, by :func:`build_split`,
:func:`agreeing_split` and the weight of least squares.  The reflexive
inverses of the summands are Q_A A+ P_A and Q_B B+ P_B, the group and core
inverses Q A+ P, off the factors.  Once the ranks add,
R(A + B) = R(A) + R(B) and N(A + B) = N(A) cap N(B) (Marsaglia & Styan
1974), so every check reads them off the summands' factors: A + B's factor
knows the smaller summand's subspaces only to about
eps ||A + B|| / sigma_min.  Only the tests of M and N against them read
it, and the optimal split, whose complements N((A + B)*) and R((A + B)*)
are A + B's own.  A sum or meet that the verdict and those tests have
decided is not cut again: each is read off one complete QR of rank-sized
sines (:func:`~minusord.subspaces._meet`), and each core solved on it is
certified from its k x k residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ComplementError, GroupInvertibilityError
from .geninv import _core_inverse, _group_inverse, _group_invertible, _pinv, _require_group
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _finite,
    adjoint,
    as_pair,
    fro,
)
from .orders import _core, _left_minus, _minus, _require, _sharp, _star, _Triple, _triple
from .subspaces import (
    Factored,
    Projection,
    Subspace,
    _along,
    _Factors,
    _join,
    _meet,
    _oblique,
    _outside,
    _sum_and_meet,
)

__all__ = [
    "SplitWitness",
    "AgreeingSplit",
    "build_split",
    "fill_fishkind_pinv",
    "st_projections",
    "agreeing_split",
    "sum_reflexive_inverse",
    "werner_decomposition",
    "ordered_inverse_additivity",
    "INVERSE_KINDS",
]

INVERSE_KINDS = ("moore_penrose", "group", "core")

_NOT_LEFT_MINUS = "order fails: A is not left-minus-below A + B"


def _checked(A, B, tol: ToleranceConfig, order=_left_minus, message=_NOT_LEFT_MINUS,
             square: bool = False) -> _Triple:
    """The one entry of a construction on A + B: A and B validated (square
    when ``square`` is set), the triple of A against A + B with the
    caller's B as its exact difference, and the construction's order check
    on it, by default the left-minus order, whose verdict is the minus
    order's.  With ``order`` None the caller runs its own checks.  An
    A + B that overflows raises ValueError."""
    A, B = as_pair(A, B, square)
    t = _triple(A, _finite(A + B, "A + B"), tol, d=B)
    if order is not None:
        _require(order(t), message)
    return t


@dataclass(frozen=True, eq=False)
class SplitWitness:
    """Projection pair for A against A + B.

    ``p`` satisfies A = P (A + B); ``q`` satisfies A = (A + B) Q; ``e`` is
    the idempotent P_{R(A)} P + P_{R(B)} (I - P) with range R(A + B);
    ``optimal`` records whether ``e`` came out Hermitian, which happens
    exactly for the optimal choice of complements.
    """

    p: Projection
    q: Projection
    e: np.ndarray
    optimal: bool


def build_split(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE,
                m1: Subspace | None = None, n1: Subspace | None = None) -> SplitWitness:
    """Construct the (P, Q, E) split for A against A + B.

    P projects onto R(A) + M1 along R(B) + N1.  By default M1 is all of
    N(A*) cap N(B*) and N1 is zero, the choice that makes E Hermitian; a
    caller may pass any other pair of subspaces that still splits the
    codomain.  Q is built the same way on the adjoint side and transposed
    back, so A = (A + B) Q.
    """
    t = _checked(A, B, tol, _minus, "A is not minus-below A + B")
    p, q = (f.projection(onto, along) for f, onto, along in (_split_p(t, m1, n1), _split_q(t)))
    # E = P_R(A) P + P_R(B) (I - P), each projector applied as U (U* X)
    ua, ub = t.fa.range.basis, t.fd.range.basis
    ub_h = adjoint(ub)
    e = ua @ (adjoint(ua) @ p.matrix) + ub @ (ub_h - ub_h @ p.matrix)
    ne = fro(e)
    tol.verify("projection sum E is not idempotent", fro(e @ e - e), ne ** 2)
    # E maps into R(A) + R(B), which is R(A + B) when the ranks add, so an
    # idempotent E has range R(A + B) iff it fixes U_A and U_B
    for u in (ua, ub):
        tol.verify("projection sum E has the wrong range", fro(e @ u - u), ne)
    return SplitWitness(p=p, q=q, e=e, optimal=tol.within(fro(e - adjoint(e)), ne))


def _split_p(t: _Triple, m1=None, n1=None) -> tuple[_Factors, Subspace, Subspace]:
    """The P of the split off the checked triple, with its range and null
    space, verified to give A = P (A + B) off its factors."""
    A, fa, ft, fb, tol = t.a, t.fa, t.fb, t.fd, t.tol
    ra, rb = fa.range, fb.range
    if m1 is None and n1 is None:
        # onto R(A) + N(T*) along R(B), on the smaller core: against
        # R(B)^perp = N(B*), or against (R(A) + N(T*))^perp = R(T) cap N(A*), a
        # meet of dimension rank(B) once the ranks add; the check below
        # catches a bad core
        onto, along = Subspace._trusted(np.hstack([ra.basis, ft.conull.basis])), rb
        p = _oblique(onto, along, tol, m_perp=_meet(ra, ft.range), n_perp=fb.conull,
                     decided=True)
    else:
        onto = _sum_and_meet(ra, fa.conull, ft.conull if m1 is None else m1, tol)
        along = _sum_and_meet(rb, fb.conull, Subspace.zero(A.shape[0]) if n1 is None else n1, tol)
        p = _oblique(onto[0], along[0], tol, m_perp=onto[1], n_perp=along[1])
        onto, along = onto[0], along[0]
    tol.verify("split witness failed A = P (A + B)", fro(A - p.times(t.b)), p.norm() * fro(t.b))
    return p, onto, along


def _split_q(t: _Triple) -> tuple[_Factors, Subspace, Subspace]:
    """The Q of the optimal split, with its range and null space, verified
    to give A = (A + B) Q off its factors: Q* projects onto R(A*) + N(T)
    along R(B*), so Q projects onto N(B) along N(A) cap R(T*), a meet of
    dimension rank(B) once the ranks add, on the smaller core: against
    N(B)^perp = R(B*), or against R(A*) + N(T)."""
    A, fa, ft, fb, tol = t.a, t.fa, t.fb, t.fd, t.tol
    meet = _meet(fa.corange, ft.corange)
    meet_perp = Subspace._trusted(np.hstack([fa.corange.basis, ft.null.basis]))
    q = _oblique(fb.null, meet, tol, m_perp=fb.corange, n_perp=meet_perp, decided=True)
    tol.verify("split witness failed A = (A + B) Q", fro(A - q.after(t.b)),
               fro(t.b) * q.norm())
    return q, fb.null, meet


def fill_fishkind_pinv(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Moore-Penrose inverse of A + B assembled from the parts.

    Computes Q A+ P + (I - Q) B+ (I - P) with the optimal split and
    cross-checks it against the direct SVD route before returning.
    """
    t = _checked(A, B, tol)
    # A+ = V_A S_A^-1 U_A* and B+ likewise
    assembled = _assemble(_split_p(t)[0], _split_q(t)[0], t.fa._pinv_factors(),
                          t.fd._pinv_factors())
    oracle = t.fb.pinv()
    tol.verify("assembled pseudoinverse disagrees with the SVD route",
               fro(assembled - oracle), fro(oracle) ** 2 * fro(t.b))
    return assembled


def st_projections(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """The idempotents S = (P_{N(B)^perp} P_{N(A)})+ and
    T = (P_{N(A*)} P_{N(B*)^perp})+.

    Under the minus relation of A below A + B these recover the optimal
    split: I - S equals Q and I - T equals P.  Both are verified
    idempotent before returning.
    """
    t = _checked(A, B, tol, _minus, "precondition failure: ranges do not split the sum")
    # N(B)^perp = R(B*) and N(B*)^perp = R(B)
    idempotents = (_pinv(t.fd.corange.projector() @ t.fa.null.projector(), tol),
                   _pinv(t.fa.conull.projector() @ t.fd.range.projector(), tol))
    for mat, label in zip(idempotents, "ST"):
        tol.verify(f"{label} is not idempotent", fro(mat @ mat - mat), fro(mat) ** 2)
    return idempotents


@dataclass(frozen=True, eq=False)
class AgreeingSplit:
    """A split of A + B agreeing with prescribed complements.

    ``p`` projects onto R(A) along N1 = R(B) + M; ``q`` is the
    right-multiplication projection agreeing with N.  The four subspaces
    are the (canonical unless given) complements entering the two-summand
    formula: X_A keeps range ``n1s`` and null space ``n1``, X_B keeps
    ``n2s`` and ``n2``.
    """

    p: Projection
    q: Projection
    n1: Subspace
    n2: Subspace
    n1s: Subspace
    n2s: Subspace


def agreeing_split(A, B, range_complement: Subspace, kernel_complement: Subspace,
                   tol: ToleranceConfig = DEFAULT_TOLERANCE) -> AgreeingSplit:
    """Split A + B against a complement M of R(A + B) and a complement N
    of N(A + B).

    Canonical choices: N1 = R(B) + M, N2 = R(A) + M on the codomain side
    and N1* = N(B) cap N, N2* = N(A) cap N on the domain side.  The
    defining projection identities are verified before returning.
    """
    t = _checked(A, B, tol, _minus, "A is not minus-below A + B")
    (p, q), _, (_, qb) = _agreeing_split(t, range_complement, kernel_complement)
    # the split has found each sum direct and each meet of its dimension;
    # Q and Q_B project onto the meets N1* and N2*, held as their left factors
    fa, fb = t.fa, t.fd
    n1, n2 = (_join(f.range, f.conull, range_complement) for f in (fb, fa))
    n1s, n2s = (Subspace._trusted(f.left) for f in (q, qb))
    return AgreeingSplit(p=p.projection(fa.range, n1), q=q.projection(n1s, fa.null),
                         n1=n1, n2=n2, n1s=n1s, n2s=n2s)


def _agreeing_split(t: _Triple, range_complement, kernel_complement,
                    n1=None, n2=None, n1s=None, n2s=None
                    ) -> tuple[tuple[_Factors, _Factors], tuple[_Factors, _Factors],
                               tuple[_Factors, _Factors]]:
    """The factors of P and Q of :func:`agreeing_split` on the checked
    triple, with the projections (P_A, Q_A) and (P_B, Q_B) of the summands'
    reflexive inverses.  P and Q keep the canonical N1 and N1*; each
    complement given replaces the canonical one, which is then not built
    unless P or Q needs it.

    Once the ranks add and M and N pass their complement tests, the
    canonical sums R(B) + M and R(A) + M are direct and the meets
    N(B) cap N and N(A) cap N have dimensions rank(A) and rank(B), so each
    canonical projection is solved on a core the verdict has decided, with
    no sine to cut: P = U_A C^-1 W* for W = (R(B) + M)^perp, the meet of
    N(B*) and M^perp, and Q = B C^-1 V_A* for a basis B of N(B) cap N, the
    null space of V_B* B_N, and likewise P_B and Q_B.  Each one given is
    tested on its core, and its error names it or the slot it fills
    ("n1", ...).  Every core is certified from its k x k residual
    (:meth:`~minusord.subspaces._Factors.certify`); so P fixes U_A and P_B
    fixes U_B, while P annihilates U_B, and Q and Q_B the rows V_A* and
    V_B*, by construction.  What is left of the projection-sum identities,
    their action on B_M and B_N, is verified once."""
    fa, ft, fb, tol = t.fa, t.fb, t.fd, t.tol
    m, n = t.a.shape
    if range_complement.ambient_dim != m or kernel_complement.ambient_dim != n:
        raise ValueError("ambient mismatch")
    # a complement of X has X^perp's dimension and no sine against X at the cutoff
    for name, space, given, x_perp in (("M", "R(A + B)", range_complement, ft.conull),
                                       ("N", "N(A + B)", kernel_complement, ft.corange)):
        if given.dim != x_perp.dim or _outside(x_perp, given, tol) != given.dim:
            message = f"complement condition violated: {name} does not complement {space}"
            raise ComplementError(message, name)

    # P_A and P_B project onto R(A) and R(B) along N1 and N2
    p = _along(fa.range, _meet(range_complement, fb.conull), tol, "n1", decided=True)
    pa = p if n1 is None else _oblique(fa.range, n1, tol, "n1", m_perp=fa.conull)
    pb = (_along(fb.range, _meet(range_complement, fa.conull), tol, "n2", decided=True)
          if n2 is None else _oblique(fb.range, n2, tol, "n2", m_perp=fb.conull))
    # Q_A and Q_B project onto N1* and N2* along N(A) and N(B)
    q = _along(_meet(fb.corange, kernel_complement), fa.corange, tol, "n1s", decided=True)
    qa = q if n1s is None else _oblique(n1s, fa.null, tol, "n1s", n_perp=fa.corange)
    qb = (_along(_meet(fa.corange, kernel_complement), fb.corange, tol, "n2s", decided=True)
          if n2s is None else _oblique(n2s, fb.null, tol, "n2s", n_perp=fb.corange))
    # P_A P + P_B (I - P) projects onto R(A + B) along M iff, beside fixing
    # U_A and U_B, it annihilates B_M
    b_m = range_complement.basis
    pb_m = p.times(b_m)
    nx, norm_p = fro(b_m), p.norm()
    npx = norm_p * nx
    tol.verify("codomain projection identity failed for the given complements",
               fro(pa.times(pb_m) + pb.times(b_m - pb_m)),
               (norm_p if pa is p else pa.norm()) * npx + pb.norm() * (nx + npx) + nx)
    # Q Q_A + (I - Q) Q_B annihilates N(A) cap N(B), as Q_A and Q_B do; it
    # projects onto N along it iff, beside fixing the rows V_A* and V_B*,
    # it fixes B_N
    b_n = kernel_complement.basis
    qb_n = qb.times(b_n)
    ny, nq = fro(b_n), q.norm()
    nqy = nq * ny
    tol.verify("domain projection identity failed for the given complements",
               fro(q.times(qa.times(b_n) - qb_n) + qb_n - b_n),
               (nq if qa is q else qa.norm()) * nqy + qb.norm() * (ny + nqy) + ny)
    # each core once: P_A is P, and Q_A is Q, unless given
    for f in {id(f): f for f in (p, pa, pb, q, qa, qb)}.values():
        f.certify(tol, "projection core of the agreeing split failed R L = I")
    return (p, q), (pa, qa), (pb, qb)


def sum_reflexive_inverse(A, B, range_complement: Subspace, kernel_complement: Subspace,
                          tol: ToleranceConfig = DEFAULT_TOLERANCE,
                          n1: Subspace | None = None, n2: Subspace | None = None,
                          n1s: Subspace | None = None, n2s: Subspace | None = None) -> np.ndarray:
    """Reflexive inverse of A + B with null space ``range_complement`` and
    range ``kernel_complement``, assembled from reflexive inverses of the
    summands.

    Alternate admissible complements may be supplied through ``n1``,
    ``n2``, ``n1s``, ``n2s``; the agreeing split verifies the projection
    identities they must satisfy, and the output is provably independent
    of the choice.
    """
    t = _checked(A, B, tol, _minus, "A is not minus-below A + B")
    (p, q), *summands = _agreeing_split(t, range_complement, kernel_complement,
                                        n1, n2, n1s, n2s)
    return _assemble(p, q, *map(_summand_factors, (t.fa, t.fd), summands))


def _assemble(p: _Factors, q: _Factors, a_factors, b_factors) -> np.ndarray:
    """Q X_A P + (I - Q) X_B (I - P) for the projections P and Q of a split
    and inverses X = L R of the summands, given as their factors (L, R):
    applied factor by factor, each product keeps a side of the summand's
    or the projections' rank, and no n x n projection is formed."""
    (left_a, right_a), (left_b, right_b) = a_factors, b_factors
    return (q.times(left_a) @ p.after(right_a)
            + q.complement().times(left_b) @ p.complement().after(right_b))


def _summand_factors(f: Factored, projections: tuple[_Factors, _Factors]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Q V_r S_r^-1 and U_r* P for the factor of a summand X and the
    projections (P, Q): their product is X's reflexive inverse Q X+ P."""
    (p, q), (v, u_h) = projections, f._pinv_factors()
    return q.times(v), p.after(u_h)


def werner_decomposition(A, B, range_complement: Subspace, kernel_complement: Subspace,
                         tol: ToleranceConfig = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """The two summands whose sum is the prescribed reflexive inverse of
    A + B.

    Returns (X_A, X_B) where X_A is the reflexive inverse of A with range
    N(B) cap N and null space R(B) + M, and X_B the mirror image: Q_A A+ P_A
    and Q_B B+ P_B.  The compressed form Q X_A P of the first summand is
    checked against X_A before returning.
    """
    t = _checked(A, B, tol, _minus, "A is not minus-below A + B")
    (p, q), *summands = _agreeing_split(t, range_complement, kernel_complement)
    xa, xb = (left @ right for left, right in map(_summand_factors, (t.fa, t.fd), summands))

    compressed = p.after(q.times(xa))
    tol.verify("compressed first summand disagrees with the direct route",
               fro(compressed - xa), q.norm() * fro(xa) * p.norm())
    return xa, xb


def ordered_inverse_additivity(A, B, kind: str,
                               tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """Inverse additivity under the order matching ``kind``.

    kind = "moore_penrose" needs A star-below A + B and returns
    A+ + B+; "group" needs the sharp order and returns A# + B#; "core"
    needs the core order on the pair and on the adjoint pair and returns
    the sum of core inverses.  The sum is verified against the directly
    computed inverse of A + B.  The inverses of A, B and A + B are read
    off the three factors of the order check, B's being the factor of the
    caller's B itself: a factor of the rounded (A + B) - A would carry the
    rounding of A + B, about eps ||A||, and know B's subspaces only to
    eps ||A|| / sigma_min(B) when B is small beside A.
    """
    t = _checked(A, B, tol, None, square=kind in ("group", "core"))
    if kind not in INVERSE_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(INVERSE_KINDS)}")
    if kind == "moore_penrose":
        _require(_star(t), "required order fails: A is not star-below A + B")
        result = t.fa.pinv() + t.fd.pinv()
        oracle = t.fb.pinv()
    elif kind == "group":
        # the sharp check has found A and A + B group invertible, not B
        _require(_sharp(t), "required order fails: A is not sharp-below A + B")
        result = _group_inverse(_require_group(t.fd, tol)) + _group_inverse(t.fa)
        oracle = _group_inverse(t.fb)
    else:
        # one group-invertibility test of A serves both core checks
        if not _group_invertible(t.fa, tol):
            raise GroupInvertibilityError("A is not group invertible")
        _require(_core(t), "required order fails: A is not core-below A + B")
        _require(_core(t.mirror), "required order fails: A* is not core-below (A + B)*")
        result = _core_inverse(_require_group(t.fd, tol)) + _core_inverse(t.fa)
        oracle = _core_inverse(_require_group(t.fb, tol))

    tol.verify("inverse additivity failed the direct-route check",
               fro(result - oracle), fro(oracle) ** 2 * fro(t.b))
    return result
