"""Range additivity of matrix sums and its kernel-side characterizations.

The central fact: R(A + B) = R(A) + R(B) holds exactly when rank(A) and
the rank of B's part outside R(A) add to rank(A + B); under disjoint ranges
it is further equivalent to the null spaces of A and B jointly spanning the
domain.  Each predicate here evaluates its side of such an equivalence
independently, so the equivalences themselves stay observable in tests.

Every subspace relation is counted as the minus verdict counts, on one
factor each of A and B: the kernels' on their adjoints, since N(A) + N(B)
is the domain exactly when R(A*) and R(B*) meet trivially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    _singular_values,
    adjoint,
    as_pair,
    fro,
)
from .orders import _disjoint, _pair_cutoff, _split_witness, _subtracts
from .subspaces import Factored, Projection, _sum_and_meet

__all__ = [
    "DisjointRangeAdditivity",
    "KernelCharacterization",
    "is_range_additive",
    "disjoint_range_additivity",
    "kernel_characterization",
]


def is_range_additive(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether R(A + B) = R(A) + R(B), read off A's factor by :func:`_ranges_add`."""
    A, B = as_pair(A, B)
    fa, total = Factored._of(A, tol), _singular_values(A + B)
    return _ranges_add(fa, B, total, _pair_cutoff(fa.s, total, A.shape, tol))


def _ranges_add(fa: Factored, x, total, cutoff: float) -> bool:
    """Whether R(A + B) = R(A) + R(x), R(x) = R(B): the ranks of A and of U_A^perp* x
    add to rank(A + B), of singular values ``total`` (Marsaglia & Styan, 1974),
    as the minus verdict counts them, at the ``cutoff`` of the pair A, A + B,
    rank(A) against rank(A + B) first (:func:`~minusord.orders._subtracts`):
    U_A^perp* x takes singular values only when rank(A) < rank(A + B) or its
    norm lies near the cutoff."""
    part = adjoint(fa.conull.basis) @ x
    return _subtracts(fa, total, cutoff, part, lambda: _singular_values(part))


@dataclass(frozen=True)
class DisjointRangeAdditivity:
    """Joint verdicts for the disjoint-range additivity equivalence.

    ``additive`` records whether R(A + B) is the direct sum of R(A) and
    R(B), ``ranges_disjoint`` whether they meet trivially and
    ``kernels_span`` whether N(A) + N(B) is the domain, all counted as the
    minus verdict counts.  Under ``ranges_disjoint``, ``additive`` is
    equivalent to ``kernels_span`` but in the cutoff band, a summand about
    1e13 times smaller than the other, where rounding decides each count.
    """

    ranges_disjoint: bool
    additive: bool
    kernels_span: bool


def disjoint_range_additivity(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> DisjointRangeAdditivity:
    A, B = as_pair(A, B)
    fa, fb = Factored._of(A, tol), Factored._of(B, tol)
    total = _singular_values(A + B)
    cutoff = _pair_cutoff(fa.s, total, A.shape, tol)
    # all counted as the minus order counts A <= A + B
    return DisjointRangeAdditivity(
        ranges_disjoint=_disjoint(fa, fb, cutoff),
        additive=_subtracts(fa, total, cutoff, B, lambda: fb.s),
        kernels_span=_disjoint(fa.adjoint(), fb.adjoint(), cutoff))


@dataclass(frozen=True, eq=False)
class KernelCharacterization:
    """Verdicts of the four-way range/kernel equivalence.

    Conditions evaluated, in order: the adjoint ranges split directly;
    a projection witness Q with A* = Q (A* + B*) exists (built when the
    split holds, ``None`` otherwise); the kernels of A and B span the
    domain; the ranges add, read off dim(R(A) + R(B)), which holds R(A + B).
    The first and third are one count of R(A*) cap R(B*) = 0, as the minus
    verdict counts; the witness is checked on its own residual.  The first
    three imply the fourth but in the 1e13 cutoff band; the converse needs
    disjoint adjoint ranges.
    """

    adjoint_ranges_direct_closed: bool
    witness_q: Projection | None
    kernels_span: bool
    range_additive: bool


def kernel_characterization(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> KernelCharacterization:
    A, B = as_pair(A, B)
    fa, fb = Factored._of(A, tol), Factored._of(B, tol)
    total = _singular_values(A + B)
    cutoff = _pair_cutoff(fa.s, total, A.shape, tol)
    direct = _disjoint(fa.adjoint(), fb.adjoint(), cutoff)

    witness = None
    if direct:
        # along R(B*) + (R(A*) + R(B*))^perp, the last from the sines against N(A)
        candidate = _split_witness(fa.adjoint(), fb.adjoint(),
                                   _sum_and_meet(fa.corange, fa.null, fb.corange, tol)[1])
        if candidate is not None:
            residual = fro(adjoint(A) - candidate.matrix @ (adjoint(A) + adjoint(B)))
            if tol.within(residual, fro(candidate.matrix) * (fro(A) + fro(B))):
                witness = candidate

    return KernelCharacterization(
        adjoint_ranges_direct_closed=direct,
        witness_q=witness,
        kernels_span=direct,
        range_additive=_ranges_add(fa, fb.u[:, :fb.rank] * fb.s[:fb.rank], total, cutoff),
    )
