"""The order checks read their subspace facts off the factors of A, B and
B - A.  This file keeps the earlier implementations, built on the
joined-basis set operations of ``joined_basis`` (sums, orthogonal
complements and direct-sum tests on orthonormalized joined bases), as
references and replays seeded pairs through both: the verdicts,
rank bookkeeping and boundary flags must be identical and the witnesses
must agree to 1e-12 relative, times ||A|| / ||B - A|| when that exceeds
one.  That factor is the precision lost in forming B - A: R(B - A) is
known only to it, and the minus-order witness now projects along
R(B - A) + N(B*) where the reference took R(B - A) plus the complement of
R(A) + R(B - A), subspaces that differ by that much.  Both sides cut
the rank of B - A at max(sigma_1(A), sigma_1(B)), the rounding of forming
it.  The projection verdict's inclusion R(A) in R(B) is read off the
factors by the package and ranked on the joined [B | A] by the reference.
The package decides the minus family by rank subtractivity alone, while
the references still decide by their joins and intersections, so the
replay also checks that the two routes reach the same verdict.

The pairs cover ordered pairs, generic perturbations a + noise, doubling
2a, rank-one B, near misses a + b + 1e-9 noise, the trivial pairs (a, a)
and (0, a + b), and star-ordered pairs; square and rectangular shapes from
4x4 to 48x40; scales 1e-12 to 1e12; and ordered pairs with ||A|| / ||B||
up to 1e4.
"""

import numpy as np
import pytest

from minusord.generate import minus_pair, star_pair
from minusord.linalg import DEFAULT_TOLERANCE, fro, numerical_rank
from minusord.orders import (left_minus_order, left_star_order, minus_order, star_order,
                             weak_minus_order)
from minusord.subspaces import Factored, minimal_angle_cos, subspace_equal
from minusord.exceptions import ComplementError

from conftest import cgauss
from joined_basis import oblique_projection, span_dim, subspace_sum

TOL = DEFAULT_TOLERANCE


# --- reference implementations on joined bases ---

def _ref_triple(A, B, tol):
    fa, fb = Factored.of(A, tol), Factored.of(B, tol)
    # B - A is cut at max(sigma_1(A), sigma_1(B)), the rounding of forming it
    scale = max(np.max(f.s, initial=0.0) for f in (fa, fb))
    factors = (fa, fb, Factored._of(B - A, tol, scale))
    flags = [f"rank({label}) within 10x of cutoff"
             for f, label in zip(factors, ("A", "B", "B-A")) if f.near]
    return factors, tuple(f.rank for f in factors), flags


def _ref_split_holds(part, rest, whole, tol):
    joined = subspace_sum(part, rest, tol)
    return joined.dim == part.dim + rest.dim and subspace_equal(joined, whole, tol)


def _ref_angle_margin_ok(ra, rd, tol, flags):
    margin = 1.0 - minimal_angle_cos(ra, rd)
    if tol.angle_gap / 10.0 < margin < tol.angle_gap * 10.0:
        flags.append("minimal angle within 10x of the gap")
    return margin > tol.angle_gap


def _ref_witness(ra, complement, tol):
    try:
        return oblique_projection(ra, complement, tol)
    except ComplementError:
        return None


def _ref_projection_ok(A, B, witness_p, fb, tol):
    return (witness_p is not None
            and tol.within(fro(A - witness_p.matrix @ B), fro(witness_p.matrix) * fro(B))
            and numerical_rank(np.hstack([B, A]), tol) == fb.rank)


def ref_minus(A, B, tol=TOL):
    (fa, fb, fd), ranks, flags = _ref_triple(A, B, tol)
    ra, rd, rb = fa.range, fd.range, fb.range
    ras, rds, rbs = fa.corange, fd.corange, fb.corange
    down = subspace_sum(ra, rd, tol)
    down_s = subspace_sum(ras, rds, tol)
    spans_left = subspace_equal(down, rb, tol)
    spans_right = subspace_equal(down_s, rbs, tol)
    left_holds = spans_left and down.dim == ra.dim + rd.dim
    holds = left_holds and spans_right and down_s.dim == ras.dim + rds.dim
    angle_ok = (spans_left and spans_right
                and _ref_angle_margin_ok(ra, rd, tol, flags)
                and _ref_angle_margin_ok(ras, rds, tol, flags))
    m, n = A.shape
    kernels_ok = (span_dim(fa.null, fd.null, tol) == n
                  and span_dim(fa.conull, fd.conull, tol) == m)
    witness_p = _ref_witness(ra, subspace_sum(rd, down.perp(), tol), tol)
    projection_ok = _ref_projection_ok(A, B, witness_p, fb, tol)
    witness_q = None
    if holds:
        witness_q = _ref_witness(ras, subspace_sum(rds, down_s.perp(), tol), tol)
    verdicts = {"ranges": holds, "ranks": ranks[0] + ranks[2] == ranks[1], "angles": angle_ok,
                "kernels": kernels_ok, "projection": projection_ok}
    return holds, verdicts, ranks, tuple(flags), witness_p if holds else None, witness_q


def ref_left_minus(A, B, tol=TOL):
    (fa, fb, fd), ranks, flags = _ref_triple(A, B, tol)
    holds = _ref_split_holds(fa.range, fd.range, fb.range, tol)
    witness_p = _ref_witness(fa.range, subspace_sum(fd.range, fb.conull, tol), tol)
    verdicts = {"ranges": holds, "projection": _ref_projection_ok(A, B, witness_p, fb, tol)}
    return holds, verdicts, ranks, tuple(flags), witness_p if holds else None, None


def ref_weak_minus(A, B, tol=TOL):
    (fa, _, fd), ranks, flags = _ref_triple(A, B, tol)
    ra, rd = fa.range, fd.range
    ras, rds = fa.corange, fd.corange
    down, down_s = subspace_sum(ra, rd, tol), subspace_sum(ras, rds, tol)
    left_trivial = down.dim == ra.dim + rd.dim
    right_trivial = down_s.dim == ras.dim + rds.dim
    holds = left_trivial and right_trivial
    witness_p = witness_q = None
    if holds:
        witness_p = _ref_witness(ra, subspace_sum(rd, down.perp(), tol), tol)
        witness_q = _ref_witness(ras, subspace_sum(rds, down_s.perp(), tol), tol)
    verdicts = {"left_intersection_trivial": left_trivial,
                "right_intersection_trivial": right_trivial}
    return holds, verdicts, ranks, tuple(flags), witness_p, witness_q


def ref_orthogonal_split(ra, rd, rb, tol=TOL):
    if not _ref_split_holds(ra, rd, rb, tol):
        return False
    return minimal_angle_cos(ra, rd) <= tol.subspace_atol(ra.ambient_dim)


def ref_star_cross_checks(A, B, tol=TOL):
    """The orthogonal-split verdicts of star (both sides) and left star."""
    fa, fb, fd = _ref_triple(A, B, tol)[0]
    left = ref_orthogonal_split(fa.range, fd.range, fb.range, tol)
    right = left and ref_orthogonal_split(fa.corange, fd.corange, fb.corange, tol)
    return right, left


# --- seeded pairs ---

SHAPES = [(4, 4), (5, 5), (6, 4), (4, 6), (9, 9), (12, 7), (7, 12), (20, 20), (48, 40), (40, 48)]
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
KINDS = ("ordered", "noise", "double", "rank_one", "near", "same", "zero_below", "star",
         "lopsided")


def _pair(rng, kind, m, n):
    k = min(m, n)
    r1 = int(rng.integers(1, max(2, k // 3) + 1))
    r2 = int(rng.integers(1, max(2, k - r1 - 1) + 1)) if k - r1 > 1 else 0
    if kind == "star":
        a, b = star_pair(rng, m, n, r1, max(r2, 1) if r1 + max(r2, 1) <= k else 0)
        return a, a + b
    a, b = minus_pair(rng, m, n, r1, r2)
    if kind == "ordered":
        return a, a + b
    if kind == "noise":
        return a, a + cgauss(rng, m, n)
    if kind == "double":
        return a, 2.0 * a
    if kind == "rank_one":
        return a, cgauss(rng, m, 1) @ cgauss(rng, 1, n)
    if kind == "near":
        return a, a + b + 1e-9 * cgauss(rng, m, n)
    if kind == "same":
        return a, a
    if kind == "zero_below":
        return np.zeros((m, n), dtype=np.complex128), a + b
    # ordered with ||A|| / ||B - A|| between 1 and 1e4
    ratio = 10.0 ** rng.uniform(0.0, 4.0)
    b = b * (fro(a) / (ratio * fro(b))) if fro(b) else b
    return a, a + b


def _pairs(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = SHAPES[k % len(SHAPES)]
        kind = KINDS[(k // len(SHAPES)) % len(KINDS)]
        scale = SCALES[int(rng.integers(len(SCALES)))]
        a, b = _pair(rng, kind, m, n)
        yield kind, scale * a, scale * b


def _same_witness(got, ref, slack):
    if ref is None:
        return got is None
    if got is None:
        return False
    return fro(got.matrix - ref.matrix) <= 1e-12 * slack * max(fro(ref.matrix), 1.0)


def _assert_same(report, ref, label, slack):
    holds, verdicts, ranks, flags, witness_p, witness_q = ref
    assert report.holds == holds, label
    assert report.characterization_verdicts == verdicts, label
    r = report.rank_data
    assert (r.rank_a, r.rank_b, r.rank_diff) == ranks, label
    assert report.boundary_flags == flags, label
    assert _same_witness(report.witness_p, witness_p, slack), label
    assert _same_witness(report.witness_q, witness_q, slack), label


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minus_family_matches_joined_basis_reference(seed):
    for kind, a, b in _pairs(seed, 180):
        label = (kind, a.shape, float(np.abs(a).max()))
        slack = max(1.0, fro(a) / fro(b - a)) if fro(b - a) else 1.0
        _assert_same(minus_order(a, b), ref_minus(a, b), ("minus",) + label, slack)
        _assert_same(left_minus_order(a, b), ref_left_minus(a, b), ("left_minus",) + label, slack)
        _assert_same(weak_minus_order(a, b), ref_weak_minus(a, b), ("weak_minus",) + label, slack)


@pytest.mark.parametrize("seed", [4, 5])
def test_star_cross_checks_match_joined_basis_reference(seed):
    for kind, a, b in _pairs(seed, 180):
        both, left = ref_star_cross_checks(a, b)
        label = (kind, a.shape, float(np.abs(a).max()))
        assert star_order(a, b).characterization_verdicts["orthogonal_ranges"] == both, label
        assert left_star_order(a, b).characterization_verdicts["orthogonal_split"] == left, label


def test_pairs_cover_both_verdicts():
    holds = [minus_order(a, b).holds for _, a, b in _pairs(1, 180)]
    assert 0.25 < sum(holds) / len(holds) < 0.75
