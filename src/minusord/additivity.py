"""Range additivity of matrix sums and its kernel-side characterizations.

The central fact: R(A + B) = R(A) + R(B) holds exactly when R(A) is
contained in R(A + B), and under disjoint ranges it is further equivalent
to the null spaces of A and B jointly spanning the domain.  Each predicate
here evaluates its side of such an equivalence independently, so the
equivalences themselves stay observable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ComplementError
from .linalg import (
    DEFAULT_TOLERANCE,
    ToleranceConfig,
    adjoint,
    as_pair,
    fro,
    range_contains,
)
from .subspaces import (
    Factored,
    Projection,
    oblique_projection,
    range_basis,
    span_dim,
    subspace_equal,
    subspace_sum,
)

__all__ = [
    "DisjointRangeAdditivity",
    "KernelCharacterization",
    "is_range_additive",
    "disjoint_range_additivity",
    "kernel_characterization",
]


def is_range_additive(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether R(A + B) = R(A) + R(B).

    Equivalent to R(A) being contained in R(A + B), which is what is
    tested: rank([A + B | A]) == rank(A + B).
    """
    A, B = as_pair(A, B)
    return range_contains(A + B, A, tol)


@dataclass(frozen=True)
class DisjointRangeAdditivity:
    """Joint verdicts for the disjoint-range additivity equivalence.

    ``additive`` records whether R(A + B) is the direct sum of R(A) and
    R(B); under ``ranges_disjoint`` it is equivalent to ``kernels_span``.
    """

    ranges_disjoint: bool
    additive: bool
    kernels_span: bool


def disjoint_range_additivity(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> DisjointRangeAdditivity:
    A, B = as_pair(A, B)
    fa, fb = Factored.of(A, tol), Factored.of(B, tol)
    joined = subspace_sum(fa.range, fb.range, tol)
    disjoint = joined.dim == fa.rank + fb.rank
    additive = disjoint and subspace_equal(range_basis(A + B, tol), joined, tol)
    spans = span_dim(fa.null, fb.null, tol) == A.shape[1]
    return DisjointRangeAdditivity(ranges_disjoint=disjoint, additive=additive, kernels_span=spans)


@dataclass(frozen=True, eq=False)
class KernelCharacterization:
    """Independent verdicts of the four-way range/kernel equivalence.

    Conditions evaluated, in order: the adjoint ranges split directly;
    a projection witness Q with A* = Q (A* + B*) exists (built when the
    split holds, ``None`` otherwise); the kernels of A and B span the
    domain; the ranges add.  The first three are mutually equivalent and
    imply the fourth; the converse needs disjoint adjoint ranges.
    """

    adjoint_ranges_direct_closed: bool
    witness_q: Projection | None
    kernels_span: bool
    range_additive: bool


def kernel_characterization(A, B, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> KernelCharacterization:
    A, B = as_pair(A, B)
    fa, fb = Factored.of(A, tol), Factored.of(B, tol)
    ras, rbs = fa.corange, fb.corange
    joined = subspace_sum(ras, rbs, tol)
    direct = joined.dim == ras.dim + rbs.dim

    witness = None
    if direct:
        rest = joined.perp()
        complement = subspace_sum(rbs, rest, tol)
        try:
            candidate = oblique_projection(ras, complement, tol)
        except ComplementError:
            candidate = None
        if candidate is not None:
            residual = fro(adjoint(A) - candidate.matrix @ (adjoint(A) + adjoint(B)))
            if tol.within(residual, 1.0 + fro(A) + fro(B)):
                witness = candidate

    spans = span_dim(fa.null, fb.null, tol) == A.shape[1]
    additive = is_range_additive(A, B, tol)
    return KernelCharacterization(
        adjoint_ranges_direct_closed=direct,
        witness_q=witness,
        kernels_span=spans,
        range_additive=additive,
    )
