"""Matrix partial orders: minus, star, sharp, core and their one-sided kin.

Every predicate returns an :class:`OrderReport` rather than a bare bool.
The report carries the primary verdict, the cross-characterizations that
restate it (so their agreement can be audited), witness projections, and
the ranks and boundary flags of decisions that fell near a cutoff.  A
report holds its triple (A, B, B - A), and the rules shared by every order
live in the report, not in each body: the ranks and the rank flags are
read off the triple, the flags of the cross-checks follow the rank flags,
and a witness exists only when the order holds.

Verdict first, explanation on demand: a predicate decides ``holds`` when
it is called, from the Gram, square and inclusion tests the verdict needs
and the factors those read, and leaves the ranks and the rank flags to a
later read.  The triple factors each of A, B and B - A on first read, so
each verdict computes only what decides it: the minus, left-minus,
right-minus and weak-minus orders share the verdict they reduce to in
finite dimension, rank subtractivity (Marsaglia & Styan 1974; Hartwig
1980), which their range sums and meets restate at its scale.  The ranks
of A and B come first: rank(B - A) >= 0, so rank(A) > rank(B) fails the
order and rank(A) = rank(B) leaves only B - A = 0, which its Frobenius
norm settles away from the cutoff, so B - A is factored only when
rank(A) < rank(B) or that norm lies near the cutoff.  The star, sharp
and core orders require the same rank additivity beside their
identities, so each implies minus at every scale, and each identity, such
as A*A = A*B, is one product with the difference, A*(B - A) = 0, tested
before the ranks, so a pair that fails it is decided with no SVD beyond
the group-invertibility tests of sharp and core, which come first; the
left star order tests its Gram identity before the inclusion, which
reads A's part outside R(B) at the pair's cutoff, that of B - A, with no
factor of B - A; and an inclusion of subspaces is settled from a
Frobenius norm before any SVD of its sines when the norm is far from the
bound.  The ranks, the
cross-characterizations (with the angle-margin flags they raise) and the
witnesses only restate that verdict, so each is computed on first read of
its field and cached, the witnesses apart from the verdicts: a caller
that reads only ``holds``, or a construction that reads only the
witnesses, pays for nothing else.  The deferred parts read the triple's
own copies of A and B and its factors, so a later change to the caller's
arrays does not reach them.  A deferred step that fails (say, the
idempotency screen of a witness :class:`~minusord.subspaces.Projection`)
raises its error on the first read of a field that needs it, not from the
predicate call.

Witness conventions: ``witness_p`` satisfies A = P B and ``witness_q``
satisfies A* = Q B*, both to the residual tolerance, and each is solved
on a core of principal-angle sines read off the factors.

Each public predicate validates A and B, holds them in a
:class:`_Triple`, which factors each of A, B and B - A at most once, on
first read, and runs one private body on it.  The constructions of
:mod:`minusord.sums` and :mod:`minusord.lsq` build the triple of A against
A + B through one entry, ``sums._checked``, with their summand B as the
exact difference, run the body of the order they need and read the sum
and every factor off the same triple.  Its cached ``mirror``, the triple
of A* against B* read off the adjoint factors with no further SVD, reads
every domain side and the right-sided orders; the two share the operands
whose factors they read, so all sides are read off one set of factors.

Every rank a verdict counts, but rank(A), is counted at one cutoff of
the pair, eps_rank max(sigma_1(A), sigma_1(B)), formed by
:func:`_pair_cutoff` and cached on the operands: rank subtractivity
(:func:`_subtracts`), the direct sum R(A) cap R(B - A) = 0
(:func:`_disjoint`), the inclusion R(A) in R(B), and the factor of B - A,
cut at the same scale.  The predicates of :mod:`minusord.additivity`
count the pair A, A + B by the same two rules at its cutoff, and
:func:`~minusord.lsq.solve_system` cuts each membership at the cutoff of
the pair [X | v].
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .exceptions import ComplementError, GroupInvertibilityError, OrderConditionError
from .geninv import _group_invertible, _reflexive
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _count,
    _near,
    _rank_cutoff,
    _singular_values,
    _spectral_within,
    adjoint,
    as_pair,
    fro,
)
from .subspaces import (
    Factored,
    Projection,
    Subspace,
    _certified,
    _departing,
    _projection,
    minimal_angle_cos,
)

__all__ = [
    "ORDER_NAMES",
    "RankData",
    "OrderReport",
    "minus_order",
    "left_minus_order",
    "right_minus_order",
    "star_order",
    "left_star_order",
    "right_star_order",
    "sharp_order",
    "core_order",
    "weak_minus_order",
    "order_predicate",
    "inner_inverse_witness",
]


@dataclass(frozen=True)
class RankData:
    rank_a: int
    rank_b: int
    rank_diff: int


@dataclass(frozen=True, eq=False)
class OrderReport:
    """The verdict of one order check and, on first read, its explanation.

    ``order_name`` and ``holds`` are set when the predicate returns.
    ``rank_data``, ``characterization_verdicts``, ``boundary_flags``,
    ``witness_p`` and ``witness_q`` are computed on first read and cached;
    the ranks, the witnesses and the verdicts have separate caches.  The
    ranks are those of the report's triple, deferred because a verdict
    decided by a failing identity factors nothing they count.
    ``boundary_flags`` is read with the verdicts: the triple's rank flags,
    then any flags the cross-checks add.  A witness exists only when the
    order holds: on a failing pair both are ``None`` and their makers never
    run.  Every value is the one the check would have computed at once.
    A deferred step that fails raises on the first read of a field that
    needs it, and again on every read.
    """

    order_name: str
    holds: bool
    _triple: _Triple = field(repr=False)
    # the cross-check verdicts, given a list to append extra flags to
    _explain: Callable[[list[str]], dict[str, bool]] = field(repr=False)
    _make_p: Callable[[], Projection | None] | None = field(default=None, repr=False)
    _make_q: Callable[[], Projection | None] | None = field(default=None, repr=False)

    @cached_property
    def rank_data(self) -> RankData:
        return self._triple.ranks()

    @cached_property
    def witness_p(self) -> Projection | None:
        return self._make_p() if self.holds and self._make_p else None

    @cached_property
    def witness_q(self) -> Projection | None:
        return self._make_q() if self.holds and self._make_q else None

    @cached_property
    def _explained(self) -> tuple[dict[str, bool], tuple[str, ...]]:
        extra = []
        verdicts = self._explain(extra)
        return verdicts, self._triple.flags() + tuple(extra)

    @property
    def characterization_verdicts(self) -> dict[str, bool]:
        return self._explained[0]

    @property
    def boundary_flags(self) -> tuple[str, ...]:
        return self._explained[1]


def _require(report: OrderReport, message: str) -> None:
    """Raise :class:`OrderConditionError` carrying ``report`` unless it holds."""
    if not report.holds:
        raise OrderConditionError(message, report)


@dataclass(frozen=True, eq=False)
class _Operands:
    """The operands A and B of an order check, the difference D = B - A
    and the tolerance, with the factor of each made on first read and
    cached: the one source that a triple and its mirror share, so no
    operand is factored twice.  D is cut at the operands' scale, so its
    factor is made after theirs."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    tol: ToleranceConfig

    @cached_property
    def fa(self) -> Factored:
        return Factored._of(self.a, self.tol)

    @cached_property
    def fb(self) -> Factored:
        return Factored._of(self.b, self.tol)

    @cached_property
    def fd(self) -> Factored:
        return Factored._of(self.d, self.tol, _scale(self.fa.s, self.fb.s))

    @cached_property
    def cutoff(self) -> float:
        """The pair's :func:`_pair_cutoff`, the cutoff D is cut at, known
        before D is factored: every rank count of the pair reads it."""
        return _pair_cutoff(self.fa.s, self.fb.s, self.b.shape, self.tol)

    @cached_property
    def identity_scale(self) -> float:
        """||A|| (||A|| + ||B||), the scale of the Gram and square
        identities, the same on the adjoint side: ||X*||_F = ||X||_F."""
        na = fro(self.a)
        return na * (na + fro(self.b))


@dataclass(frozen=True, eq=False)
class _Triple:
    """The operands A and B of an order check, the difference D = B - A
    and the tolerance, and one factor each of A, B and D, off which every
    subspace relation of the check is read.  The factors are those of the
    shared :class:`_Operands`, adjoint on the ``flipped`` side, each read
    on first need: a check whose product identity fails makes none.  What
    checks of one pair share is cached on first read, so the checks a
    construction runs on one triple make it once.  The ``mirror`` holds
    the operands, not its parent: a cycle would keep both alive until the
    cyclic garbage collector ran."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    tol: ToleranceConfig
    source: _Operands = field(repr=False)
    flipped: bool = False

    @cached_property
    def fa(self) -> Factored:
        return self._side(self.source.fa)

    @cached_property
    def fb(self) -> Factored:
        return self._side(self.source.fb)

    @cached_property
    def fd(self) -> Factored:
        return self._side(self.source.fd)

    def _side(self, f: Factored) -> Factored:
        """A factor of the operands, read on this triple's side."""
        return f.adjoint() if self.flipped else f

    def ranks(self) -> RankData:
        return RankData(self.fa.rank, self.fb.rank, self.fd.rank)

    @cached_property
    def mirror(self) -> "_Triple":
        """The triple of A* against B*, whose factors are the adjoints of
        this triple's, made on first read with no SVD."""
        return _Triple(adjoint(self.a), adjoint(self.b), adjoint(self.d), self.tol, self.source,
                       not self.flipped)

    @cached_property
    def outside_a(self) -> np.ndarray:
        """U_B^perp* U_A diag(sigma_A), the part of A outside R(B): the
        first rank(A) columns of :attr:`weighted`, made with no factor of
        B - A."""
        return _part(self.fb.conull, self.fa)

    @cached_property
    def weighted(self) -> np.ndarray:
        """U_B^perp* [U_A diag(sigma_A) | U_D diag(sigma_D)], the parts of A
        and B - A outside R(B): the sines of R(A) and R(B - A) beyond R(B),
        the only rows of U_B* [U_A | U_D] any check reads, each weighted by
        its direction's singular value.  A computed singular subspace
        resolves a summand far smaller than the other only to about the
        rounding over its gap (Wedin 1972), so a small direction's sine may
        be rounding; its singular value times its sine is what it adds to a
        residual such as A - P B.  A's part is :attr:`outside_a`, shared
        with :meth:`inside`."""
        return np.hstack([self.outside_a, _part(self.fb.conull, self.fd)])

    @cached_property
    def spans(self) -> bool:
        """R(A) + R(B - A) = R(B) on the codomain side; ``mirror.spans`` is
        the domain side.  B = A + (B - A) puts R(B) inside R(A) + R(B - A)
        for every pair, so the sum spans R(B) exactly when both ranges lie
        in R(B): no singular value of :attr:`weighted` lies above the cutoff
        of B - A.  Whether the sum is direct is left to :func:`_direct`."""
        return _spectral_within(self.weighted, self.fd.cutoff)

    @cached_property
    def left_witness(self) -> Projection | None:
        """The projection onto R(A) along R(B - A) + N(B*)."""
        return _split_witness(self.fa, self.fd, self.fb.conull)

    def agree(self, x: np.ndarray) -> bool:
        """Whether two products of A with A or B agree, given as their
        difference ``x``, a product of A with D, on the scale
        ||A|| (||A|| + ||B||) of the Gram and square identities, computed
        once for both sides: A*A = A*B is A*D = 0, one n x n product where
        the two sides take two."""
        return self.tol.within(fro(x), self.source.identity_scale)

    def inside(self) -> bool:
        """Whether A's columns lie in R(B), the inclusion in A = P B and in
        rank [B | A] = rank(B): no singular value of :attr:`outside_a`, the
        part of A outside R(B), lies above the pair's cutoff
        eps_rank max(sigma_1(A), sigma_1(B)), the cutoff of B - A, so
        B - A is not factored.  The part's Frobenius norm settles the
        verdict when it lies far from the cutoff
        (:func:`~minusord.linalg._spectral_within`)."""
        return _spectral_within(self.outside_a, self.source.cutoff)

    def flags(self) -> tuple[str, ...]:
        """The boundary flags of the three rank decisions, off each factor's cutoff."""
        factors = zip((self.fa, self.fb, self.fd), ("A", "B", "B-A"))
        return tuple(f"rank({label}) within 10x of cutoff" for f, label in factors if f.near)


def _additive(t: _Triple) -> bool:
    """rank(A) + rank(B - A) = rank(B), read off the triple's factors: the
    verdict of the minus family, and a conjunct of star, sharp and core
    after their identities.  Each of those is the minus order plus an
    orthogonality or commutation condition (Mitra, Bhimasankaram & Malik
    2010), so each implies minus by construction; the identities alone
    cannot keep that, since for A far smaller than B their residual of
    about ||A||^2 falls under the scale ||A|| (||A|| + ||B||).  The ranks
    of A and B come first (:func:`_subtracts`), and B - A is factored
    only when rank(A) < rank(B) or its norm lies near the cutoff."""
    return _subtracts(t.fa, t.fb.s, t.source.cutoff, t.d, lambda: t.fd.s)


def _subtracts(fa: Factored, sb: np.ndarray, cutoff: float, d: np.ndarray, sd) -> bool:
    """rank(A) + rank(D) = rank(B) for B = A + D, rank(D) and rank(B)
    counted at the pair's ``cutoff`` (:func:`_pair_cutoff`), else a D of
    norm eps ||A|| would count in D and not in B; decided from rank(A) and
    rank(B) first: rank(D) >= 0, so rank(A) > rank(B) fails, and
    rank(A) = rank(B) holds iff D vanishes at the cutoff, which its
    Frobenius norm settles when far from it
    (:func:`~minusord.linalg._spectral_within`).  Only rank(A) < rank(B),
    or a norm near the cutoff, reads ``sd()``, the singular values of D."""
    rank_b = _count(sb, cutoff)
    if fa.rank < rank_b:
        return fa.rank + _count(sd(), cutoff) == rank_b
    return fa.rank == rank_b and _spectral_within(d, cutoff, sd)


def _disjoint(fa: Factored, fd: Factored, cutoff: float) -> bool:
    """R(A) cap R(D) = 0 for B = A + D: rank(A) + rank(D) = rank [A | D], the
    last split as rank(A) plus the rank of D's part outside R(A), U_A^perp*
    U_D diag(sigma_D) (Marsaglia & Styan, 1974), each count but the first
    at the pair's ``cutoff``, as :func:`_subtracts` counts."""
    part = _singular_values(_part(fa.conull, fd))
    return fa.rank + _count(fd.s, cutoff) == _count(fa.s, cutoff) + _count(part, cutoff)


def _part(x: Subspace, f: Factored) -> np.ndarray:
    """X* U_r diag(sigma_r) for the factor ``f`` of rank r: the part of its
    matrix in the subspace X, each direction weighted by its singular value."""
    r = f.rank
    return adjoint(x.basis) @ f.u[:, :r] * f.s[:r]


def _pair_cutoff(sa: np.ndarray, sb: np.ndarray, shape, tol: ToleranceConfig) -> float:
    """The cutoff of every rank count of a pair of singular values ``sa``
    and ``sb`` of matrices of the given shape: the rank cutoff at
    :func:`_scale` of the two."""
    return _rank_cutoff(sb, shape, tol, _scale(sa, sb))


def _scale(sa: np.ndarray, sb: np.ndarray) -> float:
    """max(sigma_1(A), sigma_1(B)) from their singular values: forming
    B - A rounds by eps times it, so B - A is cut at this scale."""
    return max(float(sa[0]) if sa.size else 0.0, float(sb[0]) if sb.size else 0.0)


def _triple(A, B, tol, d=None) -> _Triple:
    """The triple of operands already validated, which factors each of A, B
    and B - A once, on first read; the rank of B - A is cut at the
    operands' scale.  A caller that holds the difference exactly passes it
    as ``d``, which is factored in place of the rounded B - A: a
    construction on A + B passes its summand.  The triple holds copies of
    A, B and a given ``d``: validation may hand back the caller's own
    arrays, and the factors and the deferred parts of a report read the
    operands later; the factors are new arrays."""
    source = _Operands(A.copy(), B.copy(), B - A if d is None else d.copy(), tol)
    return _Triple(source.a, source.b, source.d, tol, source)


def _direct(t: _Triple) -> bool:
    """Whether R(A) cap R(B - A) = 0, counted by :func:`_disjoint`."""
    return _disjoint(t.fa, t.fd, t.source.cutoff)


def _split_witness(fa: Factored, fd: Factored, leftover: Subspace) -> Projection | None:
    """The projection onto R(A) along R(B - A) + ``leftover``, for R(A) and
    R(B - A) already found disjoint; ``None`` if its core is not square or
    is singular."""
    try:
        along = Subspace._trusted(np.hstack([fd.range.basis, leftover.basis]))
        return _projection(fa.range, along, None, m_perp=fa.conull, decided=True)
    except ComplementError:
        return None


def _orthogonal_witness(f: Factored) -> Projection:
    """The orthogonal projection U_r U_r* onto R(X), along N(X*)."""
    u = f.range.basis
    return _certified(f.range.projector(), u, adjoint(u), f.range, f.conull)


def _group_witness(f: Factored) -> Projection | None:
    """The projection onto R(X) along N(X) for a square X already found
    group invertible; ``None`` when the solve finds the core singular."""
    try:
        return _projection(f.range, f.null, None, m_perp=f.conull, n_perp=f.corange,
                           decided=True)
    except ComplementError:
        return None


def _angle_margin_ok(ra: Subspace, rd: Subspace, tol, flags) -> bool:
    margin = 1.0 - minimal_angle_cos(ra, rd)
    if _near([margin], tol.angle_gap):
        flags.append("minimal angle within 10x of the gap")
    return margin > tol.angle_gap


def _projection_ok(t: _Triple, holds: bool) -> bool:
    """Whether A = P B with R(A) inside R(B), both read off the factors, for
    P the triple's ``left_witness``, built only when the order ``holds``;
    the inclusion is tested only when the witness passes."""
    p = t.left_witness if holds else None
    return (p is not None and t.tol.within(fro(t.a - p.matrix @ t.b), fro(p.matrix) * fro(t.b))
            and t.inside())


def _minus(t: _Triple) -> OrderReport:
    """The minus-order report: the verdict is rank subtractivity, which the
    range (R(A) + R(B - A) spans R(B) on both sides, each direction weighed
    by its singular value, :attr:`_Triple.spans`), angle, kernel and
    projection characterizations restate.  When it holds, the orthogonal complements
    of R(A) + R(B - A) and R(A*) + R(B* - A*) are N(B*) and N(B), so the
    witnesses, and the projection characterization's P, are the
    ``left_witness`` of the triple and of its mirror."""
    holds = _additive(t)

    def explain(flags):
        fa, fd = t.fa, t.fd
        spans = t.spans and t.mirror.spans
        # The angle route restates disjointness as a minimal-angle margin;
        # the span part of the condition is still required.
        angle_ok = (spans and _angle_margin_ok(fa.range, fd.range, t.tol, flags)
                    and _angle_margin_ok(fa.corange, fd.corange, t.tol, flags))
        return {
            "ranges": holds and spans,
            "ranks": holds,
            "angles": angle_ok,
            # N(A) + N(B - A) is the whole domain iff R(A*) cap R(B* - A*) = 0,
            # and likewise on the codomain side
            "kernels": _direct(t) and _direct(t.mirror),
            "projection": _projection_ok(t, holds),
        }

    return OrderReport("minus", holds, t, explain, lambda: t.left_witness,
                       lambda: t.mirror.left_witness)


def minus_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Minus order A <=- B: R(B) splits as R(A) plus R(B - A) on both sides.

    The verdict is rank subtractivity, rank(B) = rank(A) + rank(B - A); the
    range, rank, angle, kernel and projection characterizations restate it.
    """
    return _minus(_triple(*as_pair(A, B), tol))


def _left_minus(t: _Triple) -> OrderReport:
    """The left-minus report: the verdict is rank subtractivity, and the
    ranges hold when the ranks add and R(A) + R(B - A) spans R(B).  The
    witness, along R(B - A) + N(B*), is built only when the ranks add, so
    a dimension match on an unordered pair never reaches its core solve."""
    holds = _additive(t)
    return OrderReport("left_minus", holds, t,
                       lambda _: {"ranges": holds and t.spans,
                                  "projection": _projection_ok(t, holds)},
                       lambda: t.left_witness)


def left_minus_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Left minus order: R(B) = R(A) direct-plus R(B - A) (codomain side only).

    The verdict is the minus order's rank subtractivity, which the codomain
    sum R(A) + R(B - A) = R(B) restates.  The witness projects onto R(A)
    along R(B - A) + N(B*).
    """
    return _left_minus(_triple(*as_pair(A, B), tol))


def _mirrored(name, left_order, A, B, tol, verdict=None) -> OrderReport:
    """The report of the left-sided body ``left_order`` on the mirror of
    the triple of A against B, reported as the right-sided order ``name``:
    its left witness becomes the right one.  A ``verdict`` alike on both
    sides decides on the triple itself, deferring the mirror and the left
    report, which is built once; the ranks and rank flags, alike on both
    sides, are read off the triple."""
    t = _triple(*as_pair(A, B), tol)
    mirrored = cache(lambda: left_order(t.mirror))
    holds = mirrored().holds if verdict is None else verdict(t)
    return OrderReport(name, holds, t, lambda flags: mirrored()._explain(flags),
                       _make_q=lambda: mirrored().witness_p)


def right_minus_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Right minus order: the left condition on the adjoints, decided with no adjoint."""
    return _mirrored("right_minus", _left_minus, A, B, tol, _additive)


def star_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Star order: A*A = A*B and AA* = BA*, with rank(A) + rank(B - A) = rank(B).

    Cross-check: R(B) splits orthogonally as R(A) + R(B - A) on both
    sides.  Witnesses are the orthogonal projections onto R(A), R(A*).
    """
    return _star(_triple(*as_pair(A, B), tol))


def _star(t: _Triple) -> OrderReport:
    """The star-order report: the Gram identities, one product each, are
    tested before the ranks, which need the three factors."""
    A, D = t.a, t.d
    gram_left = t.agree(adjoint(A) @ D)
    gram_right = t.agree(D @ adjoint(A))
    holds = gram_left and gram_right and _additive(t)

    def explain(_):
        ortho = _orthogonal_join(t) and _orthogonal_join(t.mirror)
        return {"gram_left": gram_left, "gram_right": gram_right, "orthogonal_ranges": ortho}

    return OrderReport("star", holds, t, explain, lambda: _orthogonal_witness(t.fa),
                       lambda: _orthogonal_witness(t.mirror.fa))


def _orthogonal_join(t: _Triple) -> bool:
    """Whether R(B) = R(A) + R(B - A) with orthogonal summands: the ranks
    add, both ranges lie in R(B) (:attr:`_Triple.spans`) and B - A lies in
    N(A*): no singular value of its part inside R(A), U_A* U_D diag(sigma_D),
    lies above the cutoff of B - A, the rule of :attr:`_Triple.spans`."""
    return _additive(t) and t.spans and _spectral_within(_part(t.fa.range, t.fd), t.fd.cutoff)


def left_star_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Left star order: A*A = A*B together with R(A) inside R(B).

    Equivalent to R(B) = R(A) + R(B - A) with the summands orthogonal;
    that reformulation is recorded as the cross-check verdict.
    """
    return _left_star(_triple(*as_pair(A, B), tol))


def _left_star(t: _Triple) -> OrderReport:
    """The left-star report: the Gram identity is tested first, the
    inclusion only when it holds, and the orthogonal split, which restates
    the verdict, on first read of the explanation."""
    gram = t.agree(adjoint(t.a) @ t.d)
    inclusion = cache(t.inside)
    holds = gram and inclusion()

    return OrderReport("left_star", holds, t,
                       lambda _: {"gram_left": gram, "range_inclusion": inclusion(),
                                  "orthogonal_split": _orthogonal_join(t)},
                       lambda: _orthogonal_witness(t.fa))


def right_star_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Right star order: the left-star condition applied to the adjoints."""
    return _mirrored("right_star", _left_star, A, B, tol)


def sharp_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Sharp order on group-invertible matrices: A^2 = BA = AB, with
    rank(A) + rank(B - A) = rank(B)."""
    return _sharp(_triple(*as_pair(A, B, square=True), tol))


def _sharp(t: _Triple) -> OrderReport:
    """The sharp-order report; raises unless A and B are group invertible."""
    A, D = t.a, t.d
    for f, label in ((t.fa, "A"), (t.fb, "B")):
        if not _group_invertible(f, t.tol):
            raise GroupInvertibilityError(f"{label} is not group invertible")

    # A^2 = BA and A^2 = AB are DA = 0 and AD = 0, tested before the ranks
    left_id = t.agree(D @ A)
    right_id = t.agree(A @ D)
    holds = left_id and right_id and _additive(t)
    return OrderReport("sharp", holds, t,
                       lambda _: {"square_equals_ba": left_id, "square_equals_ab": right_id},
                       lambda: _group_witness(t.fa), lambda: _group_witness(t.mirror.fa))


def core_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Core order on group-invertible A: A*A = A*B and A^2 = BA, with
    rank(A) + rank(B - A) = rank(B)."""
    t = _triple(*as_pair(A, B, square=True), tol)
    if not _group_invertible(t.fa, tol):
        raise GroupInvertibilityError("A is not group invertible")
    return _core(t)


def _core(t: _Triple) -> OrderReport:
    """The core-order report, for A (and so A*) found group invertible;
    the identities are tested before the ranks."""
    A, D = t.a, t.d
    gram = t.agree(adjoint(A) @ D)
    square = t.agree(D @ A)
    holds = gram and square and _additive(t)
    return OrderReport("core", holds, t, lambda _: {"gram_left": gram, "square_equals_ba": square},
                       lambda: _orthogonal_witness(t.fa), lambda: _group_witness(t.mirror.fa))


def weak_minus_order(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrderReport:
    """Weak minus order: R(A) meets R(B - A) trivially, and likewise for
    the adjoints.

    In finite dimension this coincides with the minus order, whose rank
    subtractivity is the verdict and whose witnesses, the ``left_witness``
    of the triple and of its mirror, it returns; the intersection conditions
    stay as characterizations, counted as the verdict counts (:func:`_direct`),
    so a break of the coincidence shows as a disagreement.
    """
    t = _triple(*as_pair(A, B), tol)
    holds = _additive(t)
    return OrderReport("weak_minus", holds, t,
                       lambda _: {"left_intersection_trivial": _direct(t),
                                  "right_intersection_trivial": _direct(t.mirror)},
                       lambda: t.left_witness, lambda: t.mirror.left_witness)


_PREDICATES = {
    "minus": minus_order,
    "left_minus": left_minus_order,
    "right_minus": right_minus_order,
    "star": star_order,
    "left_star": left_star_order,
    "right_star": right_star_order,
    "sharp": sharp_order,
    "core": core_order,
    "weak_minus": weak_minus_order,
}
ORDER_NAMES = tuple(_PREDICATES)


def order_predicate(name: str):
    """Look up an order predicate by name (hyphens and underscores both work)."""
    key = name.replace("-", "_")
    try:
        return _PREDICATES[key]
    except KeyError:
        raise ValueError(f"unknown order {name!r}; expected one of {', '.join(ORDER_NAMES)}") from None


def inner_inverse_witness(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> np.ndarray:
    """An inner inverse of A adapted to A <=(left-minus) B.

    Inverts A on M, the orthogonal complement of N(B - A) cap N(A) inside
    N(B - A), back onto that slice of the domain and annihilates R(B - A)
    plus the orthogonal leftover of R(B), which forces X A = X B and
    (A - B) X = 0.  Raises :class:`OrderConditionError` when the left
    minus order fails.
    """
    t = _triple(*as_pair(A, B), tol)
    _require(_left_minus(t), "order does not hold")
    A, B, fa, fb, fd = t.a, t.b, t.fa, t.fb, t.fd
    # M = N(B - A) ominus N(A) complements N(A), and R(B - A) + N(B*)
    # complements R(A), as rank additivity implies; a bad core raises
    # ComplementError or fails the checks below
    along = Subspace._trusted(np.hstack([fd.range.basis, fb.conull.basis]))
    witness = _reflexive(fa, _departing(fa.corange, fd.null, tol), along, decided=True)

    na, nx = fro(A), fro(witness)
    scale = nx * (na + fro(B))
    tol.verify("inner inverse failed A X A = A", fro(A @ witness @ A - A), na * na * nx)
    tol.verify("inner inverse failed X A = X B", fro(witness @ A - witness @ B), scale)
    tol.verify("inner inverse failed (A - B) X = 0", fro((A - B) @ witness), scale)
    return witness
