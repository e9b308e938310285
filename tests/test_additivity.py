import numpy as np
import pytest

from minusord.additivity import (
    DisjointRangeAdditivity,
    KernelCharacterization,
    disjoint_range_additivity,
    is_range_additive,
    kernel_characterization,
)
from minusord.exceptions import ComplementError
from minusord.generate import minus_pair
from minusord import additivity
from minusord.linalg import (DEFAULT_TOLERANCE, _count, _rank_cutoff, _singular_values, adjoint,
                             as_pair, fro)
from minusord.orders import _pair_cutoff, minus_order
from minusord.subspaces import Factored, range_basis, subspace_equal

from conftest import cgauss
from joined_basis import oblique_projection, range_additive, span_dim, subspace_sum
from lopsided import CUTOFF_BAND, KINDS, LOPSIDED_SCALES, SEEDS, SIDES, lopsided


def test_is_range_additive_diagonal():
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 2.0, 0.0]).astype(complex)
    assert is_range_additive(a, b)
    # overlapping ranges with cancellation lose the sum range
    assert not is_range_additive(a, -a)


def test_range_additive_shapes_must_match():
    with pytest.raises(ValueError):
        is_range_additive(np.eye(2), np.eye(3))


def test_disjoint_ranges_imply_additivity(rng):
    for k in range(20):
        a, b = minus_pair(rng, 7, 6, 2, 3)
        res = disjoint_range_additivity(a, b)
        assert res.ranges_disjoint
        assert res.additive
        assert res.kernels_span


def test_shared_range_direction_blocks_additivity(rng):
    u = cgauss(rng, 5, 1)
    a = u @ cgauss(rng, 1, 4)
    b = (-u) @ cgauss(rng, 1, 4)
    res = disjoint_range_additivity(a, b)
    assert not res.ranges_disjoint


def test_kernel_characterization_witness(rng):
    for k in range(20):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        res = kernel_characterization(a, b)
        assert res.range_additive
        assert res.adjoint_ranges_direct_closed
        assert res.kernels_span
        q = res.witness_q
        assert q is not None
        # Q reproduces A* from (A+B)*: the defining property of the witness
        assert np.allclose(q.matrix @ adjoint(a + b), adjoint(a), atol=1e-8)


def test_kernel_characterization_degenerate(rng):
    u = cgauss(rng, 5, 1)
    a = u @ cgauss(rng, 1, 5)
    res = kernel_characterization(a, -a)
    assert not res.range_additive
    assert res.witness_q is None


# --- oracle: the joined-basis routes ---
#
# The references below decide the same facts with the joined-basis set
# operations of ``joined_basis`` (sums of joined bases, orthogonal
# complements, an oblique projection), the way these predicates did before
# they read every relation off the factors of A and B.

def _reference_disjoint(A, B, tol=DEFAULT_TOLERANCE):
    A, B = as_pair(A, B)
    fa, fb = Factored.of(A, tol), Factored.of(B, tol)
    joined = subspace_sum(fa.range, fb.range, tol)
    disjoint = joined.dim == fa.rank + fb.rank
    additive = disjoint and subspace_equal(range_basis(A + B, tol), joined, tol)
    spans = span_dim(fa.null, fb.null, tol) == A.shape[1]
    return DisjointRangeAdditivity(ranges_disjoint=disjoint, additive=additive, kernels_span=spans)


def _reference_kernel(A, B, tol=DEFAULT_TOLERANCE):
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
            if tol.within(residual, fro(candidate.matrix) * (fro(A) + fro(B))):
                witness = candidate

    spans = span_dim(fa.null, fb.null, tol) == A.shape[1]
    additive = range_additive(A, B, tol)
    return KernelCharacterization(
        adjoint_ranges_direct_closed=direct,
        witness_q=witness,
        kernels_span=spans,
        range_additive=additive,
    )


def _low_rank(rng, m, n, r):
    return cgauss(rng, m, r) @ cgauss(rng, r, n)


def _oracle_pair(kind, seed, m, n):
    """A seeded pair of one of the kinds the oracle mix covers."""
    rng = np.random.default_rng(seed)
    r = max(1, min(m, n) // 3)
    if kind == "ordered":
        return minus_pair(seed, m, n, r, r)
    if kind == "ratio":
        # ordered, with A 1e4 times larger than B
        a, b = minus_pair(seed, m, n, r, r)
        return a * (1e4 * fro(b) / fro(a)), b
    if kind == "noise":
        return _low_rank(rng, m, n, r), _low_rank(rng, m, n, r + 1)
    if kind == "doubled":
        a = _low_rank(rng, m, n, r)
        return a, a
    if kind == "rank_one":
        return _low_rank(rng, m, n, 1), _low_rank(rng, m, n, 1)
    if kind == "shared":
        # one column direction and one row direction in common
        u, v = cgauss(rng, m, 1), cgauss(rng, 1, n)
        return u @ cgauss(rng, 1, n) + cgauss(rng, m, 1) @ v, u @ cgauss(rng, 1, n)
    if kind == "cancelling":
        a = _low_rank(rng, m, n, r)
        return a, -a
    if kind == "near":
        # ranges and coranges a small but resolved angle apart
        u, w = cgauss(rng, m, 1), cgauss(rng, m, 1)
        v, z = cgauss(rng, 1, n), cgauss(rng, 1, n)
        return u @ v, (u + 1e-6 * w) @ (v + 1e-6 * z)
    # zero: a zero summand on either side, and both zero
    a = _low_rank(rng, m, n, r)
    return [(0 * a, a), (a, 0 * a), (0 * a, 0 * a)][seed % 3]


ORACLE_KINDS = ("ordered", "ratio", "noise", "doubled", "rank_one", "shared",
                "cancelling", "near", "zero")
ORACLE_SHAPES = ((4, 4), (6, 5), (5, 8), (16, 12), (48, 40))
ORACLE_SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


def _oracle_mix():
    for kind in ORACLE_KINDS:
        for (m, n) in ORACLE_SHAPES:
            for seed in range(3):
                a, b = _oracle_pair(kind, 100 * seed + m + n, m, n)
                for c in ORACLE_SCALES:
                    yield kind, f"{kind} {m}x{n} seed {seed} scale {c:g}", c * a, c * b


# On the near pairs R(A) and R(B) lie 1e-6 apart, so sigma_2(A + B) is
# about 1e-12 sigma_1: above the rank cutoff, yet R(A + B) comes out of its
# SVD accurate only to about eps / 1e-12, beyond the equality threshold of
# subspace_equal.  The reference then calls the sum not additive although
# rank(A + B) = rank(A) + rank(B) under the same cutoff and
# is_range_additive holds; the rank read keeps that equivalence (see
# test_additive_iff_disjoint_and_range_additive).  The kernel witness there
# projects with norm about 1e6; its residual is judged against
# (1 + ||A|| + ||B||)(1 + ||Q||), which covers the rounding of both routes,
# so both keep it.
RANK_RESOLVED_ONLY = "near"


def test_disjoint_range_additivity_matches_joined_bases():
    for kind, label, a, b in _oracle_mix():
        got, ref = disjoint_range_additivity(a, b), _reference_disjoint(a, b)
        assert got.ranges_disjoint == ref.ranges_disjoint, label
        assert got.kernels_span == ref.kernels_span, label
        if kind != RANK_RESOLVED_ONLY:
            assert got.additive == ref.additive, label


def test_additive_iff_disjoint_and_range_additive():
    # under disjoint ranges, R(A + B) = R(A) + R(B) directly iff R(A) lies
    # in R(A + B), which is_range_additive tests on its own
    for kind, label, a, b in _oracle_mix():
        got = disjoint_range_additivity(a, b)
        assert got.additive == (got.ranges_disjoint and is_range_additive(a, b)), label


def _range_band_pairs():
    """Summands B = E outside R(A), with two singular values about the
    cutoff of A, so the Frobenius norm of U_A^perp* E lies in the window
    that leaves :func:`~minusord.linalg._spectral_within` open, at scales
    1 and 1e+-12."""
    rng = np.random.default_rng(14)
    for m, n in ((9, 9), (12, 7)):
        a = minus_pair(rng, m, n, 2, 2)[0]
        u, s, vh = np.linalg.svd(a)
        cutoff = _rank_cutoff(s, a.shape, DEFAULT_TOLERANCE)
        for ratio in (0.8, 0.95, 1.05, 1.25):
            e = (u[:, 2:4] * (ratio * cutoff)) @ vh[2:4]
            for scale in (1.0, 1e-12, 1e12):
                yield scale * a, scale * e


def test_rank_first_range_additivity_is_the_full_count(monkeypatch):
    # rank(A) > rank(A + B) fails and rank(A) = rank(A + B) asks only
    # whether B's part outside R(A) vanishes, so the verdict is the full
    # count of that part's rank; the part takes singular values beside
    # those of A + B on a band pair, and none for (A, A), whose part lies
    # far under the cutoff
    tol, seen = DEFAULT_TOLERANCE, []

    def counting(x):
        seen.append(x.shape)
        return _singular_values(x)

    def verdict(a, b):
        seen.clear()
        a, b = as_pair(a, b)
        fa = Factored._of(a, tol)
        part = _singular_values(adjoint(fa.conull.basis) @ b)
        with monkeypatch.context() as patch:
            patch.setattr(additivity, "_singular_values", counting)
            got = is_range_additive(a, b)
        total = _singular_values(a + b)
        cutoff = _pair_cutoff(fa.s, total, a.shape, tol)
        assert got == (fa.rank + _count(part, cutoff) == _count(total, cutoff))
        return got

    for _, _, a, b in _oracle_mix():
        verdict(a, b)
    for a, b in _range_band_pairs():
        verdict(a, b)
        assert len(seen) == 2
        assert verdict(a, a) and len(seen) == 1


def test_kernel_characterization_matches_joined_bases():
    for kind, label, a, b in _oracle_mix():
        got, ref = kernel_characterization(a, b), _reference_kernel(a, b)
        assert got.adjoint_ranges_direct_closed == ref.adjoint_ranges_direct_closed, label
        assert got.kernels_span == ref.kernels_span, label
        assert got.range_additive == ref.range_additive, label
        assert is_range_additive(a, b) == ref.range_additive, label
        assert (got.witness_q is None) == (ref.witness_q is None), label
        if kind == RANK_RESOLVED_ONLY:
            # R(A*) and R(B*) are 1e-6 apart but meet trivially: Q exists
            assert got.witness_q is not None, label
        if got.witness_q is not None and ref.witness_q is not None:
            # the projection onto R(A*) along R(B*) + (R(A*) + R(B*))^perp is unique
            diff = fro(got.witness_q.matrix - ref.witness_q.matrix)
            assert diff <= 1e-8 * (1.0 + fro(ref.witness_q.matrix)), label


# Every reading of range additivity counts by the minus verdict's one rule:
# rank(A) plus the rank of a part of B, against rank(A + B), the last two
# counted at max(sigma_1(A), sigma_1(A + B)), so a summand below the rounding
# of A + B counts in neither.  R(A + B) is the direct sum of R(A) and R(B)
# when that part is B itself, which is A being minus-below A + B; the two
# readings of R(A + B) = R(A) + R(B) take B's part outside R(A).  The kernel
# side counts the same way on the adjoint factors.
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("c", LOPSIDED_SCALES)
def test_disjoint_additivity_is_the_minus_verdict_at_lopsided_scales(side, c):
    for seed in SEEDS:
        for kind, draw in KINDS.items():
            a, b = lopsided(draw(seed), side, c)
            label = f"{kind} pair, {side} scaled by {c:g}, seed {seed}"
            got = disjoint_range_additivity(a, b)
            kernel = kernel_characterization(a, b)
            assert got.additive == minus_order(a, a + b).holds, label
            range_additive = is_range_additive(a, b)
            assert range_additive == kernel.range_additive, label
            assert not got.additive or range_additive, label
            assert got.additive == (got.ranges_disjoint and range_additive), label
            # the kernel entries are one count, and the witness exists with it
            assert kernel.kernels_span == kernel.adjoint_ranges_direct_closed, label
            assert kernel.kernels_span == got.kernels_span, label
            assert (kernel.witness_q is not None) == kernel.kernels_span, label
            # under disjoint ranges, additivity is the kernels' spanning, and
            # the adjoint ranges' direct sum implies range additivity, except
            # at 1e13, where a summand sits in the cutoff band of the sum
            if c not in CUTOFF_BAND:
                assert not got.ranges_disjoint or got.additive == got.kernels_span, label
                assert not kernel.adjoint_ranges_direct_closed or kernel.range_additive, label


def test_disjoint_additivity_is_the_minus_verdict_on_the_oracle_mix():
    for kind, label, a, b in _oracle_mix():
        assert disjoint_range_additivity(a, b).additive == minus_order(a, a + b).holds, label
