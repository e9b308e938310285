import ast
import gc
import inspect
import weakref

import numpy as np
import pytest

from minusord import orders
from minusord.exceptions import GroupInvertibilityError, OrderConditionError
from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair
from minusord.linalg import (DEFAULT_TOLERANCE, ToleranceConfig, _count, _rank_cutoff,
                             _singular_values, adjoint, as_pair, fro)
from minusord.sums import build_split, fill_fishkind_pinv
from minusord.orders import (
    ORDER_NAMES,
    core_order,
    inner_inverse_witness,
    left_minus_order,
    left_star_order,
    minus_order,
    order_predicate,
    right_minus_order,
    right_star_order,
    sharp_order,
    star_order,
    weak_minus_order,
)

from conftest import cgauss, factor_first
from lopsided import SIDES, lopsided
from test_order_oracle import _pairs as oracle_pairs


def diag(*entries):
    return np.diag(np.array(entries, dtype=complex))


# --- minus ---

def test_minus_order_diagonal():
    rep = minus_order(diag(1, 0, 0), diag(1, 2, 0))
    assert rep.holds
    assert rep.rank_data.rank_a == 1
    assert rep.rank_data.rank_b == 2
    assert rep.rank_data.rank_diff == 1
    assert all(rep.characterization_verdicts.values())


def test_minus_order_fails_on_scaling():
    # 2A has the same range as A, so the rank split cannot happen
    a = diag(1, 0)
    rep = minus_order(a, 2 * a)
    assert not rep.holds
    assert not rep.characterization_verdicts["ranks"]
    assert rep.witness_p is None


def test_minus_reflexive_and_zero():
    a = diag(3, 1, 0)
    assert minus_order(a, a).holds
    assert minus_order(np.zeros((3, 3)), a).holds


def test_minus_witnesses_reproduce(rng):
    for k in range(25):
        a, b = minus_pair(rng, 7, 5, 2, 2)
        s = a + b
        rep = minus_order(a, s)
        assert rep.holds
        p, q = rep.witness_p, rep.witness_q
        assert np.allclose(p.matrix @ s, a, atol=1e-8 * np.linalg.norm(s))
        # the domain-side witness does the same for the adjoints
        assert np.allclose(q.matrix @ adjoint(s), adjoint(a),
                           atol=1e-8 * np.linalg.norm(s))
        assert np.allclose(p.matrix @ p.matrix, p.matrix, atol=1e-9)


def test_minus_characterizations_agree(rng):
    # on well-separated instances all five verdicts coincide with holds
    for k in range(40):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        cases = [(a, a + b), (a + b, a), (a, a + cgauss(rng, 6, 6))]
        for x, y in cases:
            rep = minus_order(x, y)
            if rep.boundary_flags:
                continue
            assert all(v == rep.holds for v in rep.characterization_verdicts.values()), rep


def test_minus_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        minus_order(np.eye(2), np.eye(3))


# --- left / right minus ---

def test_left_minus_vs_minus(rng):
    # in finite dimension one-sided and two-sided conditions coincide
    for k in range(25):
        a, b = minus_pair(rng, 6, 5, 2, 2)
        x, y = a, a + b
        assert left_minus_order(x, y).holds == minus_order(x, y).holds
        z = cgauss(rng, 6, 5)
        assert left_minus_order(a, z).holds == minus_order(a, z).holds


def test_left_minus_witness(rng):
    a, b = minus_pair(rng, 6, 5, 2, 2)
    rep = left_minus_order(a, a + b)
    assert rep.holds
    assert np.allclose(rep.witness_p.matrix @ (a + b), a, atol=1e-8)
    assert rep.witness_q is None


def test_right_minus_mirrors_left(rng):
    for k in range(10):
        a, b = minus_pair(rng, 5, 6, 2, 2)
        rep = right_minus_order(a, a + b)
        assert rep.holds == left_minus_order(adjoint(a), adjoint(a + b)).holds
        # the witness acts on the right: A = B Q ... recorded as witness_q
        assert rep.witness_p is None
        q = rep.witness_q
        assert np.allclose((a + b) @ adjoint(q.matrix), a, atol=1e-8)


# --- star ---

def test_star_order_diagonal():
    rep = star_order(diag(1, 0), diag(1, 2))
    assert rep.holds
    assert rep.characterization_verdicts == {
        "gram_left": True, "gram_right": True, "orthogonal_ranges": True,
    }
    # orthogonal witnesses
    assert rep.witness_p.is_hermitian()
    assert rep.witness_q.is_hermitian()


def test_star_requires_orthogonality(rng):
    # a minus pair built from gaussian factors is almost never a star pair
    hits = 0
    for k in range(20):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        rep = star_order(a, a + b)
        assert minus_order(a, a + b).holds
        hits += rep.holds
    assert hits == 0


def test_star_pairs_hold(rng):
    for k in range(25):
        a, b = star_pair(rng, 6, 5, 2, 2)
        rep = star_order(a, a + b)
        assert rep.holds
        assert rep.characterization_verdicts["orthogonal_ranges"]
        assert np.allclose(rep.witness_p.matrix @ (a + b), a, atol=1e-8)


def test_star_implies_minus(rng):
    for k in range(25):
        a, b = star_pair(rng, 7, 4, 1, 2)
        assert minus_order(a, a + b).holds


def test_left_and_right_star(rng):
    for k in range(15):
        a, b = star_pair(rng, 6, 5, 2, 2)
        s = a + b
        left = left_star_order(a, s)
        right = right_star_order(a, s)
        assert left.holds and right.holds
        assert left.characterization_verdicts["orthogonal_split"]
        assert left.witness_p.is_hermitian()
        assert np.allclose(s @ adjoint(right.witness_q.matrix), a, atol=1e-8)


def test_left_star_alone():
    # left star without right star: orthogonal column split, oblique row split
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    assert left_star_order(a, b).holds
    assert not right_star_order(a, b).holds
    assert not star_order(a, b).holds
    assert minus_order(a, b).holds


# --- sharp ---

def test_sharp_order_diagonal():
    rep = sharp_order(diag(1, 0, 0), diag(1, 2, 0))
    assert rep.holds
    assert rep.characterization_verdicts == {
        "square_equals_ba": True, "square_equals_ab": True,
    }


def test_sharp_pairs_hold(rng):
    for k in range(25):
        a, b = sharp_pair(rng, 6, 2, 2)
        s = a + b
        rep = sharp_order(a, s)
        assert rep.holds
        # commuting projection witnesses recover A from both sides
        assert np.allclose(rep.witness_p.matrix @ s, a, atol=1e-7)
        assert np.allclose(s @ rep.witness_p.matrix, a, atol=1e-7)


def test_sharp_implies_minus(rng):
    for k in range(25):
        a, b = sharp_pair(rng, 5, 1, 2)
        assert minus_order(a, a + b).holds


def test_sharp_needs_group_invertible():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(GroupInvertibilityError):
        sharp_order(nil, np.eye(2))
    with pytest.raises(GroupInvertibilityError):
        sharp_order(np.eye(2), nil)


def test_sharp_needs_square():
    with pytest.raises(ValueError):
        sharp_order(np.ones((2, 3)), np.ones((2, 3)))


# --- core ---

def test_core_order_diagonal():
    rep = core_order(diag(1, 0, 0), diag(1, 2, 0))
    assert rep.holds
    assert rep.witness_p.is_hermitian()


def test_core_pairs_hold(rng):
    for k in range(25):
        a, b = core_pair(rng, 6, 2, 2)
        rep = core_order(a, a + b)
        assert rep.holds
        assert np.allclose(rep.witness_p.matrix @ (a + b), a, atol=1e-7)


def test_core_implies_minus(rng):
    for k in range(25):
        a, b = core_pair(rng, 6, 2, 2)
        assert minus_order(a, a + b).holds
        assert left_star_order(a, a + b).holds


def test_core_without_star():
    # non-normal A: core and left star hold, star does not
    a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    b = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    assert core_order(a, b).holds
    assert left_star_order(a, b).holds
    assert not star_order(a, b).holds
    assert minus_order(a, b).holds


def test_core_needs_group_invertible_a_only():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(GroupInvertibilityError):
        core_order(nil, np.eye(2))
    # B may be anything square
    rep = core_order(diag(1, 0), diag(1, 0) + nil)
    assert isinstance(rep.holds, bool)


# --- the hierarchy at lopsided norms ---

@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12])
def test_tiny_unrelated_diagonal_fails_every_order(eps):
    # rank(A) + rank(B - A) = 1 + 3 is not rank(B) = 2, so minus fails; the
    # identities of star, sharp and core leave a residual of about eps^2,
    # which fell under their scale eps (eps + sqrt 2) below eps = 1e-9
    a, b = diag(eps, 0, 0, 0), diag(0, 1, 1, 0)
    for name in MINUS_FAMILY_SIDES:
        assert not order_predicate(name)(a, b).holds, name
    for order in (star_order, sharp_order, core_order):
        report = order(a, b)
        assert not report.holds, order.__name__
        assert report.rank_data == orders.RankData(1, 2, 3)


@pytest.mark.parametrize("delta", [1e-16, 1e-18, 1e-20])
def test_tiny_unrelated_b_fails_every_order(delta):
    # rank(B) = 2 at B's own scale is rank(A) + rank(B - A), but B lies
    # under the rounding of forming B - A, which cuts it to rank 1; at
    # that common scale rank(B) is 0, the rank the report gives, and the
    # ranks do not add
    a, b = diag(1, 0, 0, 0), diag(0, delta, delta, 0)
    for name in (*MINUS_FAMILY_SIDES, "star", "sharp", "core"):
        report = order_predicate(name)(a, b)
        assert not report.holds, name
        assert report.rank_data == orders.RankData(1, 0, 1)


def test_reported_rank_of_b_is_the_count_the_verdict_made():
    # B's third direction, 1e-6, lies under the pair's cutoff at the scale
    # 1e9 of A: the verdict counts rank(B) = 2 = 1 + rank(B - A), so the
    # report gives that rank, and its witnesses and the inner inverse read
    # N(B*) past it, where B's own cutoff would leave them no complement
    a = np.array([[1.0, -1e9, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    b = diag(1, 1, 1e-6)
    for name, sides in MINUS_FAMILY_SIDES.items():
        report = order_predicate(name)(a, b)
        assert report.holds and report.rank_data == orders.RankData(1, 2, 1), name
        for side, w, x, y in (("p", report.witness_p, a, b),
                              ("q", report.witness_q, adjoint(a), adjoint(b))):
            if side in sides:
                assert fro(x - w.matrix @ y) <= 1e-14 * fro(w.matrix) * fro(y), (name, side)
    x = inner_inverse_witness(a, b)
    assert fro(a @ x @ a - a) <= 1e-12 * fro(a) ** 2 * fro(x)


@pytest.mark.parametrize("seed", range(3))
def test_negligible_b_of_twice_the_rank_fails_the_minus_family(seed):
    # the pair above in general position: when rank(B) was cut at B's own
    # scale, its ranks added and the witnesses failed A = P B
    rng = np.random.default_rng(seed)
    a = cgauss(rng, 5, 1) @ cgauss(rng, 1, 5)
    b = 1e-18 * cgauss(rng, 5, 2) @ cgauss(rng, 2, 5)
    for name in MINUS_FAMILY_SIDES:
        assert not order_predicate(name)(a, b).holds, name


def _orthogonal_blocks(seed, ratio):
    """Two rank-2 blocks of C^6 with orthogonal column and row spaces,
    ||A|| / ||B|| = ratio: A* B = 0 and B A* = 0, but B - A has rank 4."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(cgauss(rng, 6, 6))[0] for _ in range(2))
    a = u[:, :2] @ cgauss(rng, 2, 2) @ adjoint(v[:, :2])
    b = u[:, 2:4] @ cgauss(rng, 2, 2) @ adjoint(v[:, 2:4])
    return a * (ratio * np.linalg.norm(b) / np.linalg.norm(a)), b


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ratio", [1e-10, 1e-12])
def test_tiny_orthogonal_block_is_not_star_below(seed, ratio):
    # the Gram identities hold to about ||A||^2, under their scale: star
    # held while minus failed
    a, b = _orthogonal_blocks(seed, ratio)
    assert not minus_order(a, b).holds
    assert not star_order(a, b).holds


# --- weak minus ---

def test_weak_minus_matches_minus(rng):
    for k in range(25):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        for x, y in ((a, a + b), (a, a + cgauss(rng, 6, 6))):
            wm = weak_minus_order(x, y)
            mn = minus_order(x, y)
            if wm.boundary_flags or mn.boundary_flags:
                continue
            assert wm.holds == mn.holds
            if wm.holds:
                assert np.allclose(wm.witness_p.matrix @ y, x, atol=1e-8)


# --- one verdict for the minus family ---

def _close_rank_one_pairs():
    """A = c u1 v1* below B = A + u2 v2* in C^5, with v1 orthogonal to v2
    and u2 at angle s from u1: the ranks add exactly, while B's factor
    knows its subspaces only to about eps ||B|| / sigma_min(B)."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(cgauss(rng, 5, 5))[0] for _ in range(2))
        for s in (1e-7, 1e-5, 1e-3):
            u2 = np.cos(s) * u[:, 0] + np.sin(s) * u[:, 1]
            for c in (1e-6, 1.0, 1e6):
                a = c * np.outer(u[:, 0], v[:, 0].conj())
                yield pytest.param(a, a + np.outer(u2, v[:, 1].conj()), id=f"{seed}-{s:g}-{c:g}")


#: The witnesses each order of the minus family reports: P with A = P B,
#: Q with A* = Q B*.
MINUS_FAMILY_SIDES = {"minus": "pq", "left_minus": "p", "right_minus": "q", "weak_minus": "pq"}


@pytest.mark.parametrize("a, b", _close_rank_one_pairs())
def test_minus_family_decides_alike_on_close_ranges(a, b):
    # the four orders are one fact in finite dimension, rank subtractivity,
    # so they decide alike even where the joins of B's subspaces cannot
    # tell; a report that holds has each of its witnesses
    for name, sides in MINUS_FAMILY_SIDES.items():
        report = order_predicate(name)(a, b)
        assert report.holds, name
        for side in sides:
            witness = getattr(report, f"witness_{side}")
            x, y = (a, b) if side == "p" else (adjoint(a), adjoint(b))
            assert witness is not None, (name, side)
            assert DEFAULT_TOLERANCE.within(fro(x - witness.matrix @ y),
                                            fro(witness.matrix) * fro(y)), (name, side)


# --- plumbing ---

def test_order_names_lookup():
    assert len(ORDER_NAMES) == 9
    for name in ORDER_NAMES:
        assert order_predicate(name) is order_predicate(name.replace("_", "-"))
    with pytest.raises(ValueError):
        order_predicate("total")


def test_boundary_flags_surface():
    # second singular value sits just above the default cutoff
    rtol = ToleranceConfig().effective_rank_rtol((2, 2))
    a = diag(1, 3 * rtol)
    rep = minus_order(a, a)
    assert any("within 10x" in f for f in rep.boundary_flags)


# --- inner inverse from the order ---

def test_inner_inverse_frozen():
    # A = diag(1,0,0), B = diag(1,2,0): direct solve gives X = diag(1,0,0)
    a = diag(1, 0, 0)
    b = diag(1, 2, 0)
    x = inner_inverse_witness(a, b)
    assert np.allclose(x, diag(1, 0, 0))


def test_inner_inverse_random(rng):
    for k in range(25):
        a, d = minus_pair(rng, 7, 5, 2, 2)
        b = a + d
        x = inner_inverse_witness(a, b)
        assert np.allclose(a @ x @ a, a, atol=1e-8)
        assert np.allclose(x @ a, x @ b, atol=1e-8)
        assert np.allclose((a - b) @ x, 0, atol=1e-8)


def test_inner_inverse_of_zero(rng):
    # 0 is left-minus-below every B, and the zero matrix is its inner
    # inverse: no part of N(B) lies outside N(0), the whole domain
    a, d = minus_pair(rng, 7, 5, 2, 2)
    x = inner_inverse_witness(0 * a, a + d)
    assert x.shape == (5, 7)
    assert not np.any(x)


def test_inner_inverse_requires_order(rng):
    a = cgauss(rng, 4, 4)
    b = cgauss(rng, 4, 4)
    with pytest.raises(OrderConditionError) as err:
        inner_inverse_witness(a, b)
    assert err.value.report is not None
    assert not err.value.report.holds


# --- verdict first, explanation on demand ---

#: The count gate's 9x9 pairs (A, A + B), each checked by the predicates
#: it is ordered for, and A against A + G for G of full rank, which fails.
_PAIRS = {"minus": minus_pair(3, 9, 9, 3, 3), "star": star_pair(3, 9, 9, 3, 3),
          "sharp": sharp_pair(3, 9, 3, 3), "core": core_pair(3, 9, 3, 3)}
_G = cgauss(np.random.default_rng(5), 9, 9)
LAZY_CASES = [pytest.param(name, a, second, id=f"{name}-{kind}")
              for name in ORDER_NAMES
              for a, b in [_PAIRS.get(name, _PAIRS["star" if "star" in name else "minus"])]
              for second, kind in ((a + b, "ordered"), (a + _G, "unordered"))]

WITNESSES_FIRST = ("witness_p", "witness_q", "characterization_verdicts", "boundary_flags")
VERDICTS_FIRST = tuple(reversed(WITNESSES_FIRST))


def _projection_bytes(p):
    if p is None:
        return None
    return tuple(x.tobytes() for x in (p.matrix, p.range.basis, p.nullspace.basis))


def _fields(report, order=WITNESSES_FIRST):
    """Every field of ``report``, its deferred parts read in ``order``, with
    each witness as the bytes of its matrix and of its two bases."""
    read = {name: getattr(report, name) for name in order}
    return (report.order_name, report.holds, report.rank_data,
            dict(read["characterization_verdicts"]), tuple(read["boundary_flags"]),
            _projection_bytes(read["witness_p"]), _projection_bytes(read["witness_q"]))


@pytest.mark.parametrize("name, a, b", LAZY_CASES)
def test_read_order_does_not_change_a_report(name, a, b):
    predicate = order_predicate(name)
    report = predicate(a, b)
    assert _fields(report, WITNESSES_FIRST) == _fields(predicate(a, b), VERDICTS_FIRST)
    # a second read returns the cached parts themselves
    assert report.witness_p is report.witness_p
    assert report.characterization_verdicts is report.characterization_verdicts


@pytest.mark.parametrize("name, a, b", LAZY_CASES)
def test_deferred_parts_ignore_later_changes_to_the_operands(name, a, b):
    expected = _fields(order_predicate(name)(a, b))
    a, b = a.astype(np.complex128), b.astype(np.complex128)  # arrays the predicate may keep
    report = order_predicate(name)(a, b)
    a[:] = 0
    b[:] = 1
    assert _fields(report) == expected


@pytest.mark.parametrize("name", ORDER_NAMES)
def test_a_failing_order_has_no_witness_and_the_triples_ranks(name):
    # A against A + G for G unrelated and of full rank; A + G is then
    # invertible, so sharp and core see group-invertible operands
    predicate = order_predicate(name)
    a = _PAIRS.get(name, _PAIRS["star" if "star" in name else "minus"])[0]
    b = a + _G
    witnesses_first = predicate(a, b)
    assert not witnesses_first.holds
    assert (witnesses_first.witness_p, witnesses_first.witness_q) == (None, None)
    witnesses_first.characterization_verdicts
    assert (witnesses_first.witness_p, witnesses_first.witness_q) == (None, None)
    explanation_first = predicate(a, b)
    explanation_first.boundary_flags
    assert (explanation_first.witness_p, explanation_first.witness_q) == (None, None)
    assert explanation_first.rank_data == orders._triple(*as_pair(a, b), DEFAULT_TOLERANCE).ranks()


def test_every_order_report_is_built_in_one_constructor():
    # every order body is one call of orders._order; only _mirrored, which
    # reports a left-sided body on the mirror as its right-sided order,
    # builds its own
    tree = ast.parse(inspect.getsource(orders))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "OrderReport"]
    builders = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if any(node is call for call in calls)}
    assert len(calls) == 2 and builders == {"_order", "_mirrored"}


@pytest.mark.parametrize("call, predicate", [
    pytest.param(lambda a: build_split(a, _G), minus_order, id="build_split"),
    pytest.param(lambda a: fill_fishkind_pinv(a, _G), left_minus_order, id="fill_fishkind_pinv"),
    pytest.param(lambda a: inner_inverse_witness(a, a + _G), left_minus_order,
                 id="inner_inverse_witness"),
])
def test_raised_report_read_later_equals_one_read_at_once(call, predicate):
    a = _PAIRS["minus"][0]
    with pytest.raises(OrderConditionError) as err:
        call(a)
    assert _fields(err.value.report) == _fields(predicate(a, a + _G))


def test_deferred_error_surfaces_on_first_read(monkeypatch):
    # a witness whose idempotency screen fails raised from the predicate
    # before; now the verdict returns and each read that needs the witness
    # raises the same error
    def unscreenable(*args, **kwargs):
        raise ValueError("matrix is not idempotent")

    a, b = _PAIRS["minus"]
    monkeypatch.setattr(orders, "_oblique", unscreenable)
    report = minus_order(a, a + b)
    assert report.holds and report.rank_data.rank_a == 3
    for name in ("witness_p", "witness_q", "characterization_verdicts", "boundary_flags"):
        with pytest.raises(ValueError, match="not idempotent"):
            getattr(report, name)
    monkeypatch.undo()
    assert report.witness_p is not None  # nothing failed was cached


# --- factors made on first need ---

def _outcome(predicate, a, b):
    """The verdict and ranks of ``predicate`` on (a, b), or the text of the
    GroupInvertibilityError it raises."""
    try:
        report = predicate(a, b)
    except GroupInvertibilityError as exc:
        return str(exc)
    return report.holds, report.rank_data


def _first_need_pairs():
    """The order oracle's corpus, then A against A + noise, 2A, a rank-one
    B and A itself, as in the decide-small workload, at scales 1, 1e+-6
    and 1e+-12, A group invertible where square, then the band pairs."""
    for _, a, b in oracle_pairs(1, 180):
        yield a, b
    rng = np.random.default_rng(11)
    for m, n in ((6, 6), (9, 9), (12, 7)):
        a = sharp_pair(rng, m, 2, 2)[0] if m == n else minus_pair(rng, m, n, 2, 2)[0]
        for b in (a + cgauss(rng, m, n), 2.0 * a, cgauss(rng, m, 1) @ cgauss(rng, 1, n), a):
            for scale in (1.0, 1e-6, 1e6, 1e-12, 1e12):
                yield scale * a, scale * b
    yield from _band_pairs()


def _band_pairs():
    """Pairs of one rank whose difference E = B - A, inside R(A) and
    R(A*), has two singular values about the pair's cutoff, so its
    Frobenius norm lies in the window that leaves
    :func:`~minusord.linalg._spectral_within` open, at scales 1 and
    1e+-12, A group invertible where square."""
    rng = np.random.default_rng(12)
    for m, n in ((9, 9), (12, 7)):
        a = sharp_pair(rng, m, 2, 2)[0] if m == n else minus_pair(rng, m, n, 2, 2)[0]
        u, s, vh = np.linalg.svd(a)
        cutoff = _rank_cutoff(s, a.shape, DEFAULT_TOLERANCE)
        for ratio in (0.8, 0.95, 1.05, 1.25):
            b = a + (u[:, :2] * (ratio * cutoff)) @ vh[:2]
            for scale in (1.0, 1e-12, 1e12):
                yield scale * a, scale * b


def test_verdicts_and_ranks_do_not_depend_on_when_the_factors_are_made(monkeypatch):
    # the star, sharp and core identities are tested before any factor is
    # made, the minus family's ranks of A and B before B - A, and the ranks
    # are read later, yet every verdict, every rank and every
    # group-invertibility error is that of a triple factored first
    cases = [(order_predicate(name), a, b) for a, b in _first_need_pairs()
             for name in ORDER_NAMES if a.shape[0] == a.shape[1] or name not in ("sharp", "core")]
    lazy = [_outcome(*case) for case in cases]
    factor_first(monkeypatch)
    assert [_outcome(*case) for case in cases] == lazy


def _rank_first_is_the_full_count(a, b) -> bool:
    """Assert that the rank-first verdict of rank subtractivity, and the
    inclusion R(A) in R(B) at the pair's cutoff, are the full counts on
    the factors of A, B and B - A, on both sides of the triple of (a, b);
    return whether those verdicts factored B - A."""
    t = orders._triple(*as_pair(a, b), DEFAULT_TOLERANCE)
    sides = (t, t.mirror)
    verdicts = [orders._additive(x) for x in sides] + [x.inside() for x in sides]
    factored = "fd" in vars(t.source)
    full = [x.fa.rank + x.fd.rank == _count(x.fb.s, x.source.cutoff) for x in sides]
    full += [bool(np.all(_singular_values(x.outside_a) <= x.fd.cutoff)) for x in sides]
    assert verdicts == full
    return factored


def test_rank_first_verdicts_are_the_full_count():
    # rank(A) > rank(B) fails and rank(A) = rank(B) asks only whether
    # B - A vanishes, so each verdict is the count it skips; equal operands
    # are decided on A's and B's factors, while a band pair's difference,
    # whose norm leaves the Frobenius test open, falls back to its factor
    for a, b in _first_need_pairs():
        _rank_first_is_the_full_count(a, b)
    band = list(_band_pairs())
    assert not any(_rank_first_is_the_full_count(a, a) for a, _ in band)
    assert all(_rank_first_is_the_full_count(a, b) for a, b in band)


@pytest.mark.parametrize("predicate", [sharp_order, core_order])
def test_group_invertibility_is_tested_before_the_identities(predicate):
    # A nilpotent, B = A + G: both identities fail, and the group test,
    # which runs first, still raises
    a = diag(0, 0, 0, 1)
    a[0, 1] = 1
    b = a + cgauss(np.random.default_rng(2), 4, 4)
    t = orders._triple(*as_pair(a, b), DEFAULT_TOLERANCE)
    assert not t.agree(t.d @ t.a) and not t.agree(adjoint(t.a) @ t.d)
    with pytest.raises(GroupInvertibilityError, match="A is not group invertible"):
        predicate(a, b)


# --- one triple, one set of factors for both sides ---

def _both_sided_pairs():
    """minus and star pairs (A, A + B) at every scale, then the tiny
    unrelated diagonals and the lopsided orthogonal blocks above."""
    for kind, draw in (("minus", minus_pair), ("star", star_pair)):
        for seed in range(2):
            a, b = draw(seed, 6, 5, 2, 2)
            for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
                yield pytest.param(scale * a, scale * (a + b), id=f"{kind}-{seed}-{scale:g}")
    for eps in (1e-9, 1e-10, 1e-11, 1e-12):
        yield pytest.param(diag(eps, 0, 0, 0), diag(0, 1, 1, 0), id=f"diagonal-{eps:g}")
    for seed in range(3):
        for ratio in (1e-10, 1e-12):
            yield pytest.param(*_orthogonal_blocks(seed, ratio), id=f"blocks-{seed}-{ratio:g}")


@pytest.mark.parametrize("a, b", _both_sided_pairs())
def test_minus_is_left_and_right_minus_on_one_set_of_factors(a, b):
    # the right-sided orders run on the mirror of the triple, read off the
    # adjoint factors, so the two-sided check and its halves decide alike
    # and share the witness bit for bit
    minus, right = minus_order(a, b), right_minus_order(a, b)
    assert minus.holds == (left_minus_order(a, b).holds and right.holds)
    if minus.holds:
        assert _projection_bytes(right.witness_q) == _projection_bytes(minus.witness_q)


def test_a_triple_and_its_mirror_share_one_set_of_factors():
    # the mirror reads the factors of the operands it shares with its
    # parent as adjoints, made once and cached, so each subspace read off
    # them is one object
    a, b = _PAIRS["minus"]
    t = orders._triple(*as_pair(a, a + b), DEFAULT_TOLERANCE)
    mirror = t.mirror
    assert mirror.source is t.source and mirror.mirror.fa is t.fa
    assert mirror.fa is mirror.fa and mirror.fa.range is mirror.fa.range
    assert all(m.u is f.v and m.v is f.u for m, f in zip((mirror.fa, mirror.fb, mirror.fd),
                                                         (t.fa, t.fb, t.fd)))


def test_a_triple_and_its_mirror_form_no_cycle():
    # a reference cycle would keep a triple, its mirror and every array they
    # cache alive until the cyclic garbage collector ran
    a, b = _PAIRS["minus"]
    gc.disable()
    try:
        t = orders._triple(*as_pair(a, a + b), DEFAULT_TOLERANCE)
        t.mirror.spans, t.spans
        _fields(orders._minus(t))
        triple = weakref.ref(t)
        del t
        assert triple() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("seed", range(3))
def test_lopsided_minus_pairs_keep_their_projection(seed, side):
    # R(B)'s computed basis resolves the small summand's directions only to
    # about the rounding over its gap, so every range relation weighs a
    # direction by its singular value: each characterization of the minus
    # and star families then agrees with a verdict that holds
    cases = [(minus_pair, (minus_order, left_minus_order, right_minus_order, weak_minus_order)),
             (star_pair, (minus_order, star_order, left_star_order, right_star_order))]
    for pair, predicates in cases:
        for scale in (1e-8, 1e8, 1e-10, 1e10, 1e-12, 1e12):
            a, b = lopsided(pair(seed, 9, 7, 3, 2), side, scale)
            for order in predicates:
                report = order(a, a + b)
                assert report.holds, (report.order_name, scale)
                verdicts = report.characterization_verdicts
                assert all(verdicts.values()), (report.order_name, scale, verdicts)
    # further out, every field of the minus family's reports is read
    # without raising; from 1e15 on, where a summand lies under the cutoff
    # band of the sum, the direct-sum entries count as the verdict counts
    direct = {"minus": ("kernels",),
              "weak_minus": ("left_intersection_trivial", "right_intersection_trivial")}
    for exponent in range(13, 18):
        for scale in (10.0 ** -exponent, 10.0 ** exponent):
            a, b = lopsided(minus_pair(seed, 9, 7, 3, 2), side, scale)
            for order in (minus_order, left_minus_order, right_minus_order, weak_minus_order):
                report = order(a, a + b)
                verdicts = _fields(report)[3]
                if exponent >= 15:
                    for entry in direct.get(report.order_name, ()):
                        assert verdicts[entry] == report.holds, (entry, scale)
