"""SVD counts of the public calls, which are deterministic for fixed inputs.

Each matrix that enters a call is factored once, and a test that needs
only a dimension asks for singular values alone; these bounds catch a
change that factors an operand again, re-runs an order check inside a
construction, or computes singular vectors that nothing reads.  Each call
has three bounds: on all SVDs, on those that compute singular vectors, and
on those of a matrix with a dimension of at least 9, i.e. of the operands'
size.  The order checks read their subspace relations off the factors of
A, B and B - A, so beyond those factors only matrices of the ranks' size
are factored; the third bound keeps work from drifting back to n-sized
joined bases while the total stays flat.  Group invertibility and range
additivity are read off the same factors, so the modules that build on
them name none of the set operations of two arbitrary subspaces.  Nor
do ``orders``, ``sums``, ``additivity`` and ``lsq`` call an SVD or a solve
inline: every sine read and every oblique projection of a construction is
a private helper of ``subspaces``, the reflexive inverses of a sum's
summands are Q A+ P off the factors and the split's projections, every
other reflexive inverse is Q A+ P applied off A's factor by
``geninv._reflexive``, and the decoupled least-squares stack is a
``geninv._pinv``.  Nor does ``geninv`` solve inline: the package's only
solve is the core solve of ``subspaces``.  The set operations
themselves read principal-angle sines too, never the rank of joined
bases: a sum, meet or relative complement makes one SVD of the sines,
after a complete QR (not an SVD) for the complement, and a dimension test
takes singular values alone.  Nor do the order checks rank the joined
[B | A]: R(A) lies in R(B) when the part of A outside R(B), a matrix of
the ranks' size, vanishes at the cutoff of B - A.

A fourth bound counts the calls of ``linalg.as_matrix``: operands are
validated once, at the public entry point, and the arrays derived from
them (factors, the bases cut from them, products and joins of such bases)
are not validated again.  What remains is the entry point's own
validation and that of each ``Projection`` the call builds whose
idempotency screen runs in full; the projections the package builds,
witnesses included, have it certified from their cores and are not
validated.

A construction's triple factors A + B alone at the operands' size and
reads A and the caller's B off its rank-sized core, so the rows that
build it make one n-sized SVD; a summand whose part outside A + B's
bases exceeds a tenth of its own cutoff, such as a B far smaller than A,
is factored in full instead, with no core factored for it, and no
construction factors B again.  The bounds hold on failure paths too: a
construction whose order check fails builds the report it raises from
the factors that check made, so on the unordered row only A + B and the
cores of A and B, which a full-rank sum leaves at the operands' size,
are factored with singular vectors, once each, and on the outside row,
whose sum has the rank of A alone, A + B, A and B.

No call solves an n x n system: each projection, witness and reflexive
inverse is solved on its square core of principal-angle sines, a matrix
of the ranks' size, and the decoupled least-squares stack has as many
rows as the summands' ranks, not twice the operands' columns.  So the
solves of every row and the SVDs of the stack are counted by shape too.
Each construction of a sum builds only what it returns: only
``build_split`` forms the projection sum E and its SplitWitness, the
pseudoinverse builds the split's P and Q, and least squares P alone, so
its one solve is P's core.  ``solve_system`` tests a in R(A) and b in R(B)
on its triple's factors, and ``is_range_additive`` and
``kernel_characterization`` read range additivity off A's factor, by the
minus verdict's count of rank(A + B) against rank(A) and the part of B
outside R(A), rank(A) against rank(A + B) first, so the part takes
singular values only when rank(A) < rank(A + B) or its Frobenius norm
lies near the cutoff; none ranks a joined [X | v] or [A + B | A].  The
kernel entries of ``kernel_characterization`` are one such count on the
adjoint factors, so R(A*) + R(B*) is factored only for the witness, when
direct.
The agreeing split behind the reflexive inverses of a sum tests M and N
on their sines alone and verifies its two projection-sum identities by
their action on B_M and B_N, so its solves are those of its own
projections.  The canonical complements, which M and N being complements
settles, take no SVD: the orthogonal complements of the sums R(B) + M and
R(A) + M and the meets N(B) cap N and N(A) cap N are each read off one
complete QR of rank-sized sines, their cores are solved untested, and
each core is certified from its k x k residual.  The optimal split takes
the meet N(A) cap R(T*) behind Q, and its mirror behind P, the same way.

An order report computes its cross-check verdicts and witnesses on first
read.  Every row that checks an order reads its report in full, so its
bounds count the whole explanation; the constructions read only the
witnesses of their check.  The ``_holds`` rows read the verdict alone:
they pay for the Gram, square and inclusion tests of the verdict and the
factors those read, and make no solve, and no boundary flag is derived
until the explanation is read.  The triple factors A, B and B - A on
first read, and the star, sharp and core verdicts test their product
identities before the ranks, so on a pair that fails an identity the
star orders make no SVD, core factors A alone and sharp A and B, for
their group-invertibility tests, of which a square factor of full rank
needs no SVD of its sines: those ``_unordered_holds`` rows are exact.
Reading such a report in full afterwards factors A, B and B - A once
each.  A verdict computes only what decides it: the minus, left-minus,
right-minus and weak-minus orders are decided by rank subtractivity and
never test whether R(A) + R(B - A) spans R(B) or form the adjoint
mirror.  The ranks of A and B come first, and B - A is factored only
when rank(A) < rank(B): rank(A) > rank(B) fails the order, and equal
ranks leave only B - A = 0, which its Frobenius norm settles away from
the cutoff, so against 2A or a rank-one B those verdicts factor A and B
alone, and range additivity of (A, A) factors A and takes the values of
2A (the exact ``RANKS_DECIDE`` rows).  The inclusion R(A) in R(B) of
the left and right star orders reads A's part outside R(B) at the
pair's cutoff, which is that of B - A, so it never factors B - A, and
an inclusion whose sines lie far below or above their bound in
Frobenius norm is settled without an SVD of them.  Their explanations
test that span once per side, on the sines beyond R(B) alone:
B = A + (B - A) puts R(B) inside the sum for every pair, so no rank of
the sines is taken.

One spy, :func:`spy`, takes the counts; ``scripts/bench_calls.py`` prints
them through it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import minusord
from minusord import linalg, orders, subspaces, sums
from minusord.additivity import (disjoint_range_additivity, is_range_additive,
                                 kernel_characterization)
from minusord.exceptions import OrderConditionError
from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair
from minusord.geninv import core_inverse, group_inverse, pinv
from minusord.lsq import decoupled_lss, solve_system
from minusord.mmio import format_matrix, parse_matrix
from minusord.orders import (core_order, inner_inverse_witness, left_minus_order,
                             left_star_order, minus_order, right_minus_order, right_star_order,
                             sharp_order, star_order, weak_minus_order)
from minusord.subspaces import (Subspace, intersect, oblique_projection, ominus, span_dim,
                                subspace_sum)
from minusord.sums import (agreeing_split, build_split, fill_fishkind_pinv,
                           ordered_inverse_additivity, sum_reflexive_inverse,
                           werner_decomposition)

from conftest import factor_first

A, B = minus_pair(3, 9, 9, 3, 3)
SA, SB = star_pair(3, 9, 9, 3, 3)
HA, HB = sharp_pair(3, 9, 3, 3)
CA, CB = core_pair(3, 9, 3, 3)
_rng = np.random.default_rng(5)
C = _rng.standard_normal(9) + 0j
# complements of R(A + B) and N(A + B), which have dimensions 6 and 3
M = Subspace.from_span(_rng.standard_normal((9, 3)) + 1j * _rng.standard_normal((9, 3)))
N = Subspace.from_span(_rng.standard_normal((9, 6)) + 1j * _rng.standard_normal((9, 6)))
# a full-rank perturbation, which fails the left minus order against A
G = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
X = _rng.standard_normal(9) + 0j
# a 6-dimensional subspace that meets M in one direction
MEETS = Subspace.from_span(np.hstack([M.basis[:, :1], N.basis[:, :5]]))
# the canonical complements, passed back in as given ones
_SPLIT = agreeing_split(A, B, M, N)


def _set_operation(op, n_space=MEETS):
    """``op`` on M and ``n_space``, whose bases the Subspace constructor
    validates."""
    return lambda: op(Subspace(M.basis), Subspace(n_space.basis))


def _read(report):
    """``report`` with every deferred field read: a row that checks an
    order counts the whole report, not only the verdict."""
    report.characterization_verdicts, report.witness_p, report.witness_q, report.boundary_flags
    return report


def _unordered_pinv(a=A, b=G):
    try:
        fill_fishkind_pinv(a, b)
    except OrderConditionError as exc:
        assert _read(exc.report).order_name == "left_minus"
    else:
        raise AssertionError("the order check passed an unordered pair")


# A scaled to ||A|| / ||B|| = 1e4, which A + B's bases know B too poorly for
LA = A * (1e4 * np.linalg.norm(B) / np.linalg.norm(A))


# name: (call, bound on all SVDs, on SVDs with singular vectors, on n-sized SVDs,
#        on as_matrix calls)
CALLS = {
    "minus_order": (lambda: _read(minus_order(A, A + B)), 7, 3, 3, 2),
    "left_minus_order": (lambda: _read(left_minus_order(A, A + B)), 3, 3, 3, 2),
    "right_minus_order": (lambda: _read(right_minus_order(A, A + B)), 3, 3, 3, 2),
    "left_star_order": (lambda: _read(left_star_order(SA, SA + SB)), 3, 3, 3, 2),
    "right_star_order": (lambda: _read(right_star_order(SA, SA + SB)), 3, 3, 3, 2),
    "core_order": (lambda: _read(core_order(CA, CA + CB)), 4, 3, 3, 2),
    "weak_minus_order": (lambda: _read(weak_minus_order(A, A + B)), 5, 3, 3, 2),
    "star_order": (lambda: _read(star_order(SA, SA + SB)), 3, 3, 3, 2),
    "sharp_order": (lambda: _read(sharp_order(HA, HA + HB)), 5, 3, 3, 2),
    "inner_inverse_witness": (lambda: inner_inverse_witness(A, A + B), 4, 4, 3, 2),
    "group_inverse": (lambda: group_inverse(HA), 2, 1, 1, 1),
    "core_inverse": (lambda: core_inverse(CA), 2, 1, 1, 1),
    # the constructions read the witnesses of their order check, never its
    # cross-check verdicts
    # the meet that Q's core is solved against is a complete QR of the
    # rank-sized sines, so the split adds no SVD to the three factors
    "build_split": (lambda: build_split(A, B), 3, 3, 1, 2),
    "fill_fishkind_pinv": (lambda: fill_fishkind_pinv(A, B), 3, 3, 1, 2),
    # the full-rank sum leaves no sines beyond R(A + B), so the left-minus
    # report, read in full, adds no SVD to the three factors
    "fill_fishkind_pinv_unordered": (_unordered_pinv, 3, 3, 3, 2),
    # B far smaller than A lies outside A + B's bases by more than a tenth
    # of its own cutoff, so B is factored in full
    "fill_fishkind_pinv_lopsided": (lambda: fill_fishkind_pinv(LA, B), 3, 3, 2, 2),
    # the sum SA of A and SA - A has the rank of A alone, and both summands
    # lie outside its bases, so each is factored in full
    "fill_fishkind_pinv_outside": (lambda: _unordered_pinv(A, SA - A), 3, 3, 3, 2),
    # least squares builds the split's P alone, whose screen its rank-sized
    # core certifies, and the memberships of solve_system are read off its
    # triple's factors of A and B
    "decoupled_lss": (lambda: decoupled_lss(A, B, C), 4, 4, 2, 2),
    "solve_system": (lambda: solve_system(A, B, A @ X, B @ X), 3, 3, 1, 2),
    # B's inverse is read off the triple's factor of the caller's B, so
    # A + B is factored once, A and B on its core, and B is not validated
    # again
    "additivity_moore_penrose":
        (lambda: ordered_inverse_additivity(SA, SB, "moore_penrose"), 3, 3, 1, 2),
    "additivity_group": (lambda: ordered_inverse_additivity(HA, HB, "group"), 6, 3, 1, 2),
    "additivity_core": (lambda: ordered_inverse_additivity(CA, CB, "core"), 6, 3, 1, 2),
    # A with vectors; the part of B outside R(A) and A + B by values alone
    "is_range_additive": (lambda: is_range_additive(A, B), 3, 1, 3, 2),
    "disjoint_range_additivity": (lambda: disjoint_range_additivity(A, B), 5, 2, 3, 2),
    "kernel_characterization": (lambda: kernel_characterization(A, B), 6, 3, 3, 2),
    # adjoint ranges that meet: no witness, so the sum of R(A*) and R(B*)
    # is not factored
    "kernel_characterization_not_direct": (lambda: kernel_characterization(A, G), 5, 2, 5, 2),
    # M and N are tested on their sines, and the cores of the four canonical
    # complements, which that test and the verdict decide, are built from
    # complete QRs of rank-sized sines: 3 SVDs with vectors, 2 without
    "agreeing_split": (lambda: agreeing_split(A, B, M, N), 5, 3, 1, 2),
    "sum_reflexive_inverse": (lambda: sum_reflexive_inverse(A, B, M, N), 5, 3, 1, 2),
    # given complements replace the canonical ones inside the one split,
    # and each is tested on its core
    "sum_reflexive_inverse_alternates":
        (lambda: sum_reflexive_inverse(A, B, M, N, n1=_SPLIT.n1, n2=_SPLIT.n2,
                                       n1s=_SPLIT.n1s, n2s=_SPLIT.n2s), 9, 3, 1, 2),
    "werner_decomposition": (lambda: werner_decomposition(A, B, M, N), 5, 3, 1, 2),
    # the set operations of two subspaces: a sum, meet or relative
    # complement is one SVD of the sines, the complement coming from a
    # complete QR of an orthonormal basis, and a dimension test reads the
    # sines' values alone; an oblique projection tests and solves the core
    # of its smaller side, of rank size
    "subspace_sum": (_set_operation(subspace_sum), 1, 1, 0, 2),
    "intersect": (_set_operation(intersect), 1, 1, 0, 2),
    "ominus": (_set_operation(ominus), 1, 1, 0, 2),
    "span_dim": (_set_operation(span_dim), 1, 0, 1, 2),
    "oblique_projection": (_set_operation(oblique_projection, N), 1, 0, 0, 2),
}

#: The predicates read for their verdict alone, as a caller that asks only
#: whether the order holds: the cross-checks and witnesses are never
#: computed, so no solve runs.
VERDICT_ONLY = {
    "minus_order_holds": (lambda: minus_order(A, A + B).holds, 3, 3, 3, 2),
    "left_minus_order_holds": (lambda: left_minus_order(A, A + B).holds, 3, 3, 3, 2),
    "right_minus_order_holds": (lambda: right_minus_order(A, A + B).holds, 3, 3, 3, 2),
    "star_order_holds": (lambda: star_order(SA, SA + SB).holds, 3, 3, 3, 2),
    "left_star_order_holds": (lambda: left_star_order(SA, SA + SB).holds, 2, 2, 2, 2),
    "right_star_order_holds": (lambda: right_star_order(SA, SA + SB).holds, 2, 2, 2, 2),
    "sharp_order_holds": (lambda: sharp_order(HA, HA + HB).holds, 5, 3, 3, 2),
    "core_order_holds": (lambda: core_order(CA, CA + CB).holds, 4, 3, 3, 2),
    "weak_minus_order_holds": (lambda: weak_minus_order(A, A + B).holds, 3, 3, 3, 2),
    # the ranks of A, A + G and G do not add: the three factors decide
    "minus_order_unordered_holds": (lambda: minus_order(A, A + G).holds, 3, 3, 3, 2),
    "left_minus_order_unordered_holds": (lambda: left_minus_order(A, A + G).holds, 3, 3, 3, 2),
    "right_minus_order_unordered_holds": (lambda: right_minus_order(A, A + G).holds, 3, 3, 3, 2),
    "weak_minus_order_unordered_holds": (lambda: weak_minus_order(A, A + G).holds, 3, 3, 3, 2),
}
CALLS.update(VERDICT_ONLY)

#: The verdicts of pairs whose product identity fails, read alone.  The
#: identities are tested before any factor is made, so the star orders
#: make no SVD, core factors A alone for its group-invertibility test, and
#: sharp A and B for theirs, taking the sines of A alone: A + G is square
#: of full rank.  The counts are exact, so these rows have their own test
#: in place of :func:`test_svd_count_bound`, which asks for at least one SVD.
IDENTITY_FAILS = {
    "star_order_unordered_holds": (lambda: star_order(SA, SA + G).holds, 0, 0, 0, 2),
    "left_star_order_unordered_holds": (lambda: left_star_order(SA, SA + G).holds, 0, 0, 0, 2),
    "right_star_order_unordered_holds": (lambda: right_star_order(SA, SA + G).holds, 0, 0, 0, 2),
    "core_order_unordered_holds": (lambda: core_order(CA, CA + G).holds, 2, 1, 1, 2),
    "sharp_order_unordered_holds": (lambda: sharp_order(HA, HA + G).holds, 3, 2, 2, 2),
}
CALLS.update(IDENTITY_FAILS)

# a rank-one B, which ranks under A
ONE = np.outer(_rng.standard_normal(9), _rng.standard_normal(9)) + 0j

#: The verdicts that the ranks of A and B decide, read alone, with the
#: verdict each gives: against 2A or a rank-one B the minus family fails
#: on A's and B's factors, and B - A is never factored; range additivity
#: of (A, A), whose sum 2A ranks as A, holds on A's factor and the values
#: of 2A, its part of B outside R(A) settled by its Frobenius norm.  The
#: counts are exact.
RANKS_DECIDE = {
    **{f"{name}_order_{label}_holds": (lambda order=order, b=b: order(A, b).holds, 2, 2, 2, 2)
       for name, order in (("minus", minus_order), ("left_minus", left_minus_order),
                           ("right_minus", right_minus_order), ("weak_minus", weak_minus_order))
       for label, b in (("double", 2.0 * A), ("rank_one", ONE))},
    "is_range_additive_equal": (lambda: is_range_additive(A, A), 2, 1, 2, 2),
}
RANKS_DECIDE_VERDICTS = {name: name == "is_range_additive_equal" for name in RANKS_DECIDE}
CALLS.update(RANKS_DECIDE)

#: The Matrix Market writer on G and the reader on G's text: no SVD and
#: no solve, the writer validating its matrix once and the reader, which
#: leaves that to the call its matrix enters, nothing.  The counts are
#: exact, so these rows have their own test in place of
#: :func:`test_svd_count_bound` and :func:`test_validation_count_bound`,
#: which ask for at least one.
_G_TEXT = format_matrix(G)
MATRIX_MARKET = {
    "format_matrix": (lambda: format_matrix(G), 0, 0, 0, 1),
    "parse_matrix": (lambda: parse_matrix(_G_TEXT), 0, 0, 0, 0),
}
CALLS.update(MATRIX_MARKET)


def spy(call):
    """Run ``call`` once; return its SVDs, each as (with singular vectors,
    shape), the shapes of the matrices its ``np.linalg.solve`` calls factor
    and the labels of its ``as_matrix`` calls.

    ``np.linalg.svd`` and ``np.linalg.solve`` are patched, and
    ``as_matrix`` in every package module that imports it, the way
    perfbench/tracing.py patches the package from outside; all are
    restored when the call returns or raises.
    """
    real_svd, real_solve, real_check = np.linalg.svd, np.linalg.solve, linalg.as_matrix
    modules = [importlib.import_module(f"minusord.{info.name}")
               for info in pkgutil.iter_modules(minusord.__path__)]
    modules = [m for m in modules if getattr(m, "as_matrix", None) is real_check]
    svds, solves, labels = [], [], []

    def counting_svd(a, *args, **kwargs):
        svds.append((kwargs.get("compute_uv", True), np.shape(a)))
        return real_svd(a, *args, **kwargs)

    def counting_solve(a, *args, **kwargs):
        solves.append(np.shape(a))
        return real_solve(a, *args, **kwargs)

    def counting_check(a, label="matrix"):
        labels.append(label)
        return real_check(a, label)

    np.linalg.svd, np.linalg.solve = counting_svd, counting_solve
    for module in modules:
        module.as_matrix = counting_check
    try:
        call()
    finally:
        np.linalg.svd, np.linalg.solve = real_svd, real_solve
        for module in modules:
            module.as_matrix = real_check
    return svds, solves, labels


def _sized(shape) -> bool:
    """Whether a factored matrix has a dimension of the operands' size."""
    return max(shape) >= 9


@pytest.mark.parametrize("name", sorted(CALLS.keys() - IDENTITY_FAILS.keys()
                                         - MATRIX_MARKET.keys()))
def test_svd_count_bound(name):
    call, bound, vectors_bound, sized_bound, _ = CALLS[name]
    calls = spy(call)[0]
    assert 0 < len(calls) <= bound
    assert sum(vectors for vectors, _ in calls) <= vectors_bound
    assert sum(_sized(shape) for _, shape in calls) <= sized_bound


@pytest.mark.parametrize("name", sorted(VERDICT_ONLY))
def test_verdict_only_solves_nothing(name):
    assert spy(VERDICT_ONLY[name][0])[1] == []


@pytest.mark.parametrize("name", sorted(IDENTITY_FAILS))
def test_failing_identity_decides_before_the_factors(name, monkeypatch):
    # the Gram and square identities are one product each, so a pair that
    # fails one is decided with no factor beyond the group-invertibility
    # tests, no solve and no boundary flag
    call, svds, vectors, sized, _ = IDENTITY_FAILS[name]
    flags = _near_thresholds(monkeypatch)
    seen, solved, _ = spy(call)
    assert (len(seen), sum(v for v, _ in seen), sum(_sized(s) for _, s in seen)) == (
        svds, vectors, sized)
    assert solved == [] and flags == []
    assert call() is False


@pytest.mark.parametrize("name", sorted(RANKS_DECIDE))
def test_ranks_decide_before_the_difference(name, monkeypatch):
    # rank(A) >= rank(B) decides the verdict on the factors of A and B, so
    # B - A, or the part of B outside R(A), takes no SVD, and no solve runs
    # and no boundary flag is derived
    call, svds, vectors, sized, _ = RANKS_DECIDE[name]
    flags = _near_thresholds(monkeypatch)
    seen, solved, _ = spy(call)
    assert (len(seen), sum(v for v, _ in seen), sum(_sized(s) for _, s in seen)) == (
        svds, vectors, sized)
    assert solved == [] and flags == []
    assert call() is RANKS_DECIDE_VERDICTS[name]


@pytest.mark.parametrize("name", sorted(MATRIX_MARKET))
def test_matrix_market_factors_nothing(name):
    call, svds, vectors, sized, checks = MATRIX_MARKET[name]
    seen, solved, labels = spy(call)
    assert (len(seen), sum(v for v, _ in seen), sum(_sized(s) for _, s in seen)) == (
        svds, vectors, sized)
    assert solved == [] and len(labels) == checks


#: The full-read row and the gate pair (A, B) of each order in IDENTITY_FAILS,
#: and of the minus order against 2A, which the ranks of A and B decide.
_UNORDERED = {"minus_order": (minus_order, A, 2.0 * A),
              "star_order": (star_order, SA, SA + G),
              "left_star_order": (left_star_order, SA, SA + G),
              "right_star_order": (right_star_order, SA, SA + G),
              "core_order": (core_order, CA, CA + G),
              "sharp_order": (sharp_order, HA, HA + G)}


@pytest.mark.parametrize("row", sorted(_UNORDERED))
def test_failing_identity_read_in_full_factors_each_operand_once(row, monkeypatch):
    # reading the report after its verdict makes the factors the verdict
    # skipped, within the order's full-read row, and factors A, B and
    # B - A once each, whichever side reads them: the arrays factored are
    # A, B and B - A, matched one for one (B - A = A against 2A).  The
    # SVDs are compared with the same read on a triple factored first
    predicate, a, b = _UNORDERED[row]
    factored, real = [], subspaces.Factored._of

    def recording(x, tol, scale=None):
        factored.append(x)
        return real(x, tol, scale)

    def verdict_then_read():
        report = predicate(a, b)
        assert not report.holds
        _read(report).rank_data

    monkeypatch.setattr(subspaces.Factored, "_of", staticmethod(recording))
    seen = spy(verdict_then_read)[0]
    _, bound, vectors_bound, _, _ = CALLS[row]
    assert len(seen) <= bound
    assert sum(vectors for vectors, _ in seen) <= vectors_bound
    unmatched = [a, b, b - a]
    for x in factored:
        unmatched.pop(next(i for i, y in enumerate(unmatched) if np.array_equal(x, y)))
    assert unmatched == []
    factor_first(monkeypatch)
    assert sorted(spy(verdict_then_read)[0]) == sorted(seen)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_constructions_solve_rank_sized_cores(name):
    # each projection, witness and reflexive inverse is solved on its core
    # of sines, never on an n x n join
    solves = spy(CALLS[name][0])[1]
    assert not [shape for shape in solves if _sized(shape)], solves


def test_decoupled_stack_has_the_summands_rank():
    # [A* W A; B* W B] is factored as the rank-sized K, not as its 2n rows
    svds = spy(CALLS["decoupled_lss"][0])[0]
    assert max(shape[0] for _, shape in svds) <= A.shape[0]


#: Pairs of each inverse kind with ||A|| / ||B|| = 1e4, and the public route
#: of their inverses.
LOPSIDED = {"moore_penrose": (SA, SB, pinv), "group": (HA, HB, group_inverse),
            "core": (CA, CB, core_inverse)}


@pytest.mark.parametrize("kind", sorted(LOPSIDED))
def test_lopsided_summand_is_factored_in_full(kind, monkeypatch):
    # A + B's bases know B only to about eps ||A + B|| / sigma_min(B), so B's
    # part outside them exceeds a tenth of B's own cutoff and B takes the
    # fallback, a factor of its own, while A is read off the core: two
    # n-sized SVDs, of A + B and of B, and the sum keeps the accuracy of the
    # public route
    a, b, inverse = LOPSIDED[kind]
    a = a * (1e4 * np.linalg.norm(b) / np.linalg.norm(a))
    factored, real = [], subspaces.Factored._of

    def recording(x, tol, scale=None):
        factored.append(x)
        return real(x, tol, scale)

    monkeypatch.setattr(subspaces.Factored, "_of", staticmethod(recording))
    svds = spy(lambda: ordered_inverse_additivity(a, b, kind))[0]
    assert sum(_sized(shape) for _, shape in svds) == 2
    assert [np.array_equal(x, y) for x, y in zip(factored, (a + b, b))] == [True, True]
    assert len(factored) == 2
    monkeypatch.undo()
    out = ordered_inverse_additivity(a, b, kind)
    expected = inverse(a) + inverse(b)
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


def _forbidden(what):
    def fail(*args):
        raise AssertionError(f"reached {what}")
    return fail


@pytest.mark.parametrize("name", sorted(n for n in VERDICT_ONLY if "minus" in n))
def test_minus_family_verdict_is_the_ranks(name, monkeypatch):
    # the four minus-family verdicts are rank subtractivity, read off the
    # three factors: no range sum, direct sum or adjoint mirror
    monkeypatch.setattr(orders, "_direct", _forbidden("_direct"))
    for cached in ("spans", "weighted", "mirror"):
        monkeypatch.setattr(orders._Triple, cached, property(_forbidden(cached)))
    assert VERDICT_ONLY[name][0]() is ("unordered" not in name)


def _near_thresholds(monkeypatch):
    """The thresholds of every call of the one boundary rule, ``_near``,
    from here on, in every module that names it."""
    calls, real = [], linalg._near

    def counting(values, threshold):
        calls.append(threshold)
        return real(values, threshold)

    for module in (linalg, subspaces, orders):
        monkeypatch.setattr(module, "_near", counting)
    return calls


@pytest.mark.parametrize("name", sorted(VERDICT_ONLY))
def test_verdict_only_derives_no_flag(name, monkeypatch):
    # the boundary flags are derived from each factor's cutoff when the
    # explanation is read, never for a verdict alone
    calls = _near_thresholds(monkeypatch)
    VERDICT_ONLY[name][0]()
    assert calls == []


@pytest.mark.parametrize("order", [minus_order, right_minus_order])
def test_reading_flags_derives_them(order, monkeypatch):
    # the triple's three factors, or the adjoint factors of its mirror for
    # a right-sided order, are flagged at the cutoffs their ranks were cut at
    t = orders._triple(A, A + B, linalg.DEFAULT_TOLERANCE)
    report = order(A, A + B)
    calls = _near_thresholds(monkeypatch)
    assert report.boundary_flags == ()
    assert set(calls) >= {f.cutoff for f in (t.fa, t.fb, t.fd)}


@pytest.mark.parametrize("name", ["build_split", "fill_fishkind_pinv",
                                  "fill_fishkind_pinv_unordered", "decoupled_lss",
                                  "sum_reflexive_inverse"])
def test_constructions_build_no_mirror(name, monkeypatch):
    # a construction reads every domain-side subspace off the factors, so
    # it never forms the adjoints of A and A + B
    monkeypatch.setattr(orders._Triple, "mirror", property(_forbidden("mirror")))
    CALLS[name][0]()


#: The solves of the agreeing split's rows: one per projection, P, Q, P_B
#: and Q_B, and P_A and Q_A when given complements replace N1 and N1*.
AGREEING_SOLVES = {"agreeing_split": 4, "sum_reflexive_inverse": 4, "werner_decomposition": 4,
                   "sum_reflexive_inverse_alternates": 6}


@pytest.mark.parametrize("name", sorted(AGREEING_SOLVES))
def test_agreeing_split_solves_only_its_projections(name):
    # M and N are tested on their sines, and each identity is verified by
    # its action on the summands' bases: no projection onto R(A + B) or
    # along N(A + B) is solved to compare against
    assert len(spy(CALLS[name][0])[1]) <= AGREEING_SOLVES[name]


def test_constructions_build_only_what_they_return(monkeypatch):
    # only build_split forms E and its SplitWitness: the pseudoinverse
    # builds P and Q, and least squares P alone, solving its core only
    monkeypatch.setattr(sums, "SplitWitness", _forbidden("SplitWitness"))
    fill_fishkind_pinv(A, B)
    decoupled_lss(A, B, C)
    assert len(spy(CALLS["decoupled_lss"][0])[1]) <= 1


@pytest.mark.parametrize("name", sorted(CALLS.keys() - MATRIX_MARKET.keys()))
def test_validation_count_bound(name):
    call, bound = CALLS[name][0], CALLS[name][4]
    seen = spy(call)[2]
    assert 0 < len(seen) <= bound, seen


SOURCES = Path(__file__).resolve().parents[1] / "src" / "minusord"

#: The public set operations of two arbitrary subspaces, ``range_basis`` and
#: the complement SVD ``perp``: each factors a matrix again, where the
#: modules below read the same relations off the operands' factors.
SET_OPERATIONS = {"subspace_sum", "span_dim", "intersect", "ominus", "is_direct_sum",
                  "subspace_equal", "range_basis", "oblique_projection", "perp"}


def _named(module):
    """The identifiers a package module names: imports, names and
    attribute reads such as ``.perp()``."""
    named = set()
    for node in ast.walk(ast.parse((SOURCES / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    return named


@pytest.mark.parametrize("module", ["orders", "sums", "geninv", "additivity", "lsq"])
def test_set_operations_not_used_inside(module):
    # every subspace relation in these modules is read off the operands'
    # factors; none of the joined-basis routes is named
    assert not _named(module) & SET_OPERATIONS


def test_orders_rank_no_joined_operands():
    # R(A) in R(B) is read off the factors of A and B; no order check ranks
    # the joined [B | A], nor does solve_system rank [A | a] or [B | b], nor
    # does range additivity rank [A + B | A].  No order check judges
    # unweighted sines at the subspace-equality threshold or at scale one,
    # or builds the basis of a sum of ranges, nor does range additivity
    # count the kernels' sines at scale one
    assert not _named("orders") & {"_rank", "_range_contains", "subspace_atol", "_sum_and_meet",
                                   "_outside"}
    assert not _named("lsq") & {"_rank", "_range_contains"}
    assert not _named("additivity") & {"_rank", "_range_contains", "_outside"}


def test_one_module_holds_the_rank_tolerance():
    # every rank and membership cutoff is built by linalg's one cutoff rule,
    # so no other module reads the relative tolerance behind it
    modules = [info.name for info in pkgutil.iter_modules(minusord.__path__)]
    assert [m for m in modules if m != "linalg" and "effective_rank_rtol" in _named(m)] == []


def test_one_rule_cuts_a_pair():
    # every rank count of a pair reads the cutoff of orders._pair_cutoff,
    # so no other module forms the pair's scale, and within orders no other
    # function forms a rank cutoff; the full-count fork of the rank-first
    # count is gone
    modules = [info.name for info in pkgutil.iter_modules(minusord.__path__)]
    assert [m for m in modules if m != "orders" and "_scale" in _named(m)] == []
    cutting = [m for m in modules if "_rank_cutoff" in _named(m)]
    assert cutting == ["linalg", "orders", "subspaces"]
    tree = ast.parse((SOURCES / "orders.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions
            if any(isinstance(n, ast.Name) and n.id == "_rank_cutoff" for n in ast.walk(f))
            ] == ["_pair_cutoff"]
    assert [m for m in modules
            if "_ranks_add" in _named(m) or "_ranks_add" in (SOURCES / f"{m}.py").read_text()] == []


def test_set_operations_rank_no_joined_bases():
    # every relation of two subspaces is judged on principal-angle sines;
    # the rank cutoff of a joined basis [B_M | B_N] is used nowhere
    assert "_rank" not in _named("subspaces")


@pytest.mark.parametrize("module, factorizations", [
    ("orders", {"solve", "svd"}),
    ("sums", {"solve", "svd"}),
    ("additivity", {"solve", "svd"}),
    ("lsq", {"solve", "svd"}),
    ("geninv", {"solve"}),
])
def test_factorizations_not_inlined(module, factorizations):
    # every solve goes through the one core solve of subspaces, and every
    # SVD of the modules above geninv through geninv and the private sine
    # reads of subspaces, which read each subspace off the factors
    assert not _named(module) & factorizations
