import numpy as np
import pytest

from minusord.exceptions import (ComplementError, GroupInvertibilityError, OrderConditionError,
                                 VerificationError)
from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair
from minusord.orders import _triple, core_order, sharp_order, star_order
from minusord.geninv import core_inverse, group_inverse, pinv, reflexive_inverse
from minusord import subspaces, sums
from minusord.linalg import DEFAULT_TOLERANCE, adjoint, fro
from minusord.lsq import decoupled_lss
from minusord.subspaces import Factored, Subspace, intersect, null_basis, range_basis, subspace_sum
from minusord.sums import (
    INVERSE_KINDS,
    agreeing_split,
    build_split,
    fill_fishkind_pinv,
    ordered_inverse_additivity,
    st_projections,
    sum_reflexive_inverse,
    werner_decomposition,
)

from conftest import cgauss, same_bits


def random_complements(rng, total, m, n, r):
    """Complements of R(A+B) and N(A+B) for an m x n sum of rank r."""
    del total
    return (Subspace.from_span(cgauss(rng, m, m - r)),
            Subspace.from_span(cgauss(rng, n, r)))


# --- split witnesses ---

def test_build_split_defaults_are_optimal(rng):
    for k in range(20):
        a, b = minus_pair(rng, 7, 5, 2, 2)
        s = a + b
        split = build_split(a, b)
        assert split.optimal
        assert np.allclose(split.p.matrix @ s, a, atol=1e-8)
        assert np.allclose(s @ split.q.matrix, a, atol=1e-8)
        e = split.e
        assert np.allclose(e @ e, e, atol=1e-8)
        assert np.allclose(e, adjoint(e), atol=1e-8)
        # E carries the range of the sum
        assert range_basis(e).dim == range_basis(s).dim


def test_build_split_perturbed_complement_not_optimal(rng):
    # move one leftover direction toward R(B): E stops being Hermitian
    for k in range(10):
        a, b = minus_pair(rng, 7, 4, 2, 1)
        leftover = intersect(null_basis(adjoint(a)), null_basis(adjoint(b)))
        assert leftover.dim >= 1
        bump = range_basis(b).basis[:, :1]
        tilted = np.hstack([leftover.basis[:, :1] + 0.5 * bump, leftover.basis[:, 1:]])
        split = build_split(a, b, m1=Subspace.from_span(tilted))
        assert not split.optimal
        assert np.allclose(split.p.matrix @ (a + b), a, atol=1e-8)


def test_build_split_requires_minus(rng):
    a = cgauss(rng, 5, 5)
    b = cgauss(rng, 5, 5)
    with pytest.raises(OrderConditionError):
        build_split(a, b)


# --- pseudoinverse of a sum ---

def test_fill_fishkind_matches_pinv(rng):
    for k in range(25):
        a, b = minus_pair(rng, 6, 5, 2, 2)
        direct = np.linalg.pinv(a + b)
        assert np.allclose(fill_fishkind_pinv(a, b), direct, atol=1e-8)


def test_fill_fishkind_formula_parts(rng):
    a, b = minus_pair(rng, 6, 6, 2, 3)
    split = build_split(a, b)
    lhs = fill_fishkind_pinv(a, b)
    n = a.shape[1]
    recomposed = (split.q.matrix @ pinv(a) @ split.p.matrix
                  + (np.eye(n) - split.q.matrix) @ pinv(b)
                  @ (np.eye(a.shape[0]) - split.p.matrix))
    assert np.allclose(lhs, recomposed, atol=1e-8)


def test_st_projections_recover_split(rng):
    for k in range(10):
        a, b = minus_pair(rng, 6, 5, 2, 2)
        s, t = st_projections(a, b)
        split = build_split(a, b)
        n, m = a.shape[1], a.shape[0]
        assert np.allclose(np.eye(n) - s, split.q.matrix, atol=1e-8)
        assert np.allclose(np.eye(m) - t, split.p.matrix, atol=1e-8)


def test_st_projections_frozen():
    # disjoint diagonal ranks: S and T are the complementary coordinate masks
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    s, t = st_projections(a, b)
    assert np.allclose(s, np.diag([0.0, 1.0]))
    assert np.allclose(t, np.diag([0.0, 1.0]))


# --- prescribed-range reflexive inverses of sums ---

def test_agreeing_split_identities(rng):
    for k in range(15):
        a, b = minus_pair(rng, 7, 6, 2, 3)
        s = a + b
        m_comp, n_comp = random_complements(rng, s, 7, 6, 5)
        split = agreeing_split(a, b, m_comp, n_comp)
        p, q = split.p.matrix, split.q.matrix
        assert np.allclose(p @ s, a, atol=1e-8)
        assert np.allclose(s @ q, a, atol=1e-8)
        # canonical complements contain what the formula needs
        assert split.n1.dim == 7 - 2  # R(B) + M complements R(A)
        assert split.n2s.dim >= 1


def test_agreeing_split_reads_its_meets_off_the_split(rng, monkeypatch):
    # N1* = N(B) cap N and N2* = N(A) cap N are the ranges of Q and Q_B,
    # so the four meets of the split are all it builds
    made, calls = sums._meet, []

    def counting(*args):
        calls.append(args)
        return made(*args)

    monkeypatch.setattr(sums, "_meet", counting)
    a, b = minus_pair(rng, 7, 6, 2, 3)
    m_comp, n_comp = random_complements(rng, a + b, 7, 6, 5)
    split = agreeing_split(a, b, m_comp, n_comp)
    assert len(calls) == 4
    for got, summand in ((split.n1s, b), (split.n2s, a)):
        assert same_bits(got.basis, made(Factored.of(summand).corange, n_comp).basis)


def test_sum_reflexive_inverse_matches_direct(rng):
    for k in range(20):
        a, b = minus_pair(rng, 7, 6, 2, 3)
        s = a + b
        m_comp, n_comp = random_complements(rng, s, 7, 6, 5)
        x = sum_reflexive_inverse(a, b, m_comp, n_comp)
        direct = reflexive_inverse(s, n_comp, m_comp)
        assert np.allclose(x, direct, atol=1e-7 * (1 + fro(direct)))


def test_werner_decomposition_sums(rng):
    for k in range(15):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        s = a + b
        m_comp, n_comp = random_complements(rng, s, 6, 6, 4)
        xa, xb = werner_decomposition(a, b, m_comp, n_comp)
        x = sum_reflexive_inverse(a, b, m_comp, n_comp)
        assert np.allclose(xa + xb, x, atol=1e-7 * (1 + fro(x)))
        # each part is a reflexive inverse of its summand
        assert np.allclose(a @ xa @ a, a, atol=1e-7 * (1 + fro(a)))
        assert np.allclose(xa @ a @ xa, xa, atol=1e-7 * (1 + fro(xa)))
        assert np.allclose(b @ xb @ b, b, atol=1e-7 * (1 + fro(b)))


def test_sum_reflexive_alternate_complements_agree(rng):
    # the assembled inverse does not depend on the admissible choices
    for k in range(10):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        s = a + b
        m_comp, n_comp = random_complements(rng, s, 6, 6, 4)
        base = sum_reflexive_inverse(a, b, m_comp, n_comp)
        # any complement of R(A) may replace the canonical N1
        alt_n1 = range_basis(a).perp()
        again = sum_reflexive_inverse(a, b, m_comp, n_comp, n1=alt_n1)
        assert np.allclose(base, again, atol=1e-7 * (1 + fro(base)))


def test_sum_reflexive_rejects_bad_complement(rng):
    a, b = minus_pair(rng, 6, 5, 2, 2)
    s = a + b
    inside = range_basis(s)  # not a complement of R(A+B)
    good_n = Subspace.from_span(cgauss(rng, 5, 4))
    with pytest.raises(ComplementError):
        sum_reflexive_inverse(a, b, inside, good_n)


CODOMAIN = "complement condition violated: M does not complement R(A + B)"
DOMAIN = "complement condition violated: N does not complement N(A + B)"


@pytest.mark.parametrize("bad, message", [
    ("m_meets_range", CODOMAIN),
    ("m_too_small", CODOMAIN),
    ("n_meets_kernel", DOMAIN),
    ("n1_meets_range_a", "not a complementary pair"),
    ("n2_meets_range_b", "not a complementary pair"),
    ("n1s_meets_kernel_a", "not a complementary pair"),
    ("n2s_meets_kernel_b", "not a complementary pair"),
])
def test_sum_reflexive_complement_messages(bad, message):
    # each complement is tested once; every failing test keeps its message
    # and names the complement it rejected, the one ``bad`` starts with
    rng = np.random.default_rng(31)
    a, b = minus_pair(rng, 6, 5, 2, 2)
    s = a + b
    m_comp, n_comp = random_complements(rng, s, 6, 5, 4)

    def meeting(space, dim):
        """A subspace of the given dimension through one direction of ``space``."""
        return Subspace.from_span(np.hstack([space.basis[:, :1],
                                             cgauss(rng, space.ambient_dim, dim - 1)]))

    given = {}
    if bad == "m_meets_range":
        m_comp = meeting(range_basis(s), 2)
    elif bad == "m_too_small":
        m_comp = Subspace.from_span(cgauss(rng, 6, 1))
    elif bad == "n_meets_kernel":
        n_comp = meeting(null_basis(s), 4)
    elif bad == "n1_meets_range_a":
        given["n1"] = meeting(range_basis(a), 4)
    elif bad == "n2_meets_range_b":
        given["n2"] = meeting(range_basis(b), 4)
    elif bad == "n1s_meets_kernel_a":
        given["n1s"] = meeting(null_basis(a), 2)
    else:
        given["n2s"] = meeting(null_basis(b), 2)
    with pytest.raises(ComplementError) as info:
        sum_reflexive_inverse(a, b, m_comp, n_comp, **given)
    assert str(info.value) == message
    complement = bad.split("_")[0]
    assert info.value.complement == {"m": "M", "n": "N"}.get(complement, complement)


@pytest.mark.parametrize("slot, dim, message", [
    ("n2", 4, "codomain projection identity failed for the given complements"),
    ("n2s", 2, "domain projection identity failed for the given complements"),
])
def test_inadmissible_alternate_complements_fail_their_identity(slot, dim, message):
    # a complement of R(B) that does not hold M, or of N(B) that does not
    # lie in N, passes its own test but breaks the projection-sum identity,
    # which its action on the summands' bases catches
    rng = np.random.default_rng(31)
    a, b = minus_pair(rng, 6, 5, 2, 2)
    m_comp, n_comp = random_complements(rng, a + b, 6, 5, 4)
    stray = Subspace.from_span(cgauss(rng, {"n2": 6, "n2s": 5}[slot], dim))
    with pytest.raises(VerificationError) as info:
        sum_reflexive_inverse(a, b, m_comp, n_comp, **{slot: stray})
    assert info.value.check == message


def test_alternate_complements_of_another_space_are_rejected(rng):
    a, b = minus_pair(rng, 6, 5, 2, 2)
    m_comp, n_comp = random_complements(rng, a + b, 6, 5, 4)
    stranger = Subspace.from_span(cgauss(rng, 7, 4))
    for call in (lambda: build_split(a, b, m1=stranger),
                 lambda: sum_reflexive_inverse(a, b, m_comp, n_comp, n1=stranger),
                 lambda: sum_reflexive_inverse(a, b, m_comp, n_comp, n2s=stranger)):
        with pytest.raises(ValueError, match="^ambient mismatch$"):
            call()


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 1e3, 1e6])
def test_constructions_of_lopsided_pairs(ratio):
    # each construction reads R(A) and R(B) off the summands' own factors
    # and applies its projections through their rank-sized factors, so it
    # keeps its accuracy against the dense route when A alone is scaled far
    # from B, on either side
    for seed in range(30):
        a, b = minus_pair(seed, 9, 9, 3, 3)
        a = a * (ratio * fro(b) / fro(a))
        rng = np.random.default_rng(seed)
        c = cgauss(rng, 9, 1)[:, 0]
        # R(A + B) and N(A + B) have dimensions 6 and 3 in C^9
        m_comp, n_comp = random_complements(rng, None, 9, 9, 6)
        direct = pinv(a + b)
        assert fro(fill_fishkind_pinv(a, b) - direct) <= 1e-7 * fro(direct), seed
        solved = direct @ c
        result = decoupled_lss(a, b, c)
        for x in (result.x_joint, result.x_system):
            assert fro(x - solved) <= 1e-7 * fro(solved), seed
        expected = reflexive_inverse(a + b, n_comp, m_comp)
        got = sum_reflexive_inverse(a, b, m_comp, n_comp)
        assert fro(got - expected) <= 1e-7 * fro(expected), seed


@pytest.mark.parametrize("slot", [None, "n1", "n2", "n1s", "n2s"])
def test_corrupted_decided_cores_are_raised(slot, monkeypatch):
    # the agreeing split solves the cores of P, P_B, Q and Q_B (the slots
    # n1, n2, n1s and n2s) untested, on complements its checks have
    # decided; a solution off by 1e-4 relative, in every core (None) or in
    # one, is caught before a result is returned
    real = subspaces._core_solve

    def corrupted(*args, decided=False, **kwargs):
        solved = real(*args, decided=decided, **kwargs)
        hit = decided and slot in (None, kwargs.get("complement"))
        return solved * (1.0 + 1e-4) if hit else solved

    monkeypatch.setattr(subspaces, "_core_solve", corrupted)
    rng = np.random.default_rng(41)
    a, b = minus_pair(rng, 9, 9, 3, 3)
    m_comp, n_comp = random_complements(rng, None, 9, 9, 6)
    for call in (sum_reflexive_inverse, werner_decomposition):
        with pytest.raises((ValueError, VerificationError)):
            call(a, b, m_comp, n_comp)


def test_sum_reflexive_requires_minus(rng):
    a = cgauss(rng, 4, 4)
    b = cgauss(rng, 4, 4)
    with pytest.raises(OrderConditionError):
        sum_reflexive_inverse(a, b, Subspace.zero(4), Subspace.full(4))


# --- inverse additivity per kind ---

def test_additivity_moore_penrose(rng):
    for k in range(15):
        a, b = star_pair(rng, 6, 5, 2, 2)
        out = ordered_inverse_additivity(a, b, "moore_penrose")
        assert np.allclose(out, pinv(a) + pinv(b))
        assert np.allclose(out, pinv(a + b), atol=1e-9 * (1 + fro(out)))


def test_additivity_group(rng):
    for k in range(15):
        a, b = sharp_pair(rng, 6, 2, 2)
        out = ordered_inverse_additivity(a, b, "group")
        assert np.allclose(out, group_inverse(a) + group_inverse(b), atol=1e-9)
        assert np.allclose(out, group_inverse(a + b), atol=1e-8 * (1 + fro(out)))


def test_additivity_core(rng):
    for k in range(15):
        a, b = core_pair(rng, 6, 2, 2)
        out = ordered_inverse_additivity(a, b, "core")
        assert np.allclose(out, core_inverse(a) + core_inverse(b), atol=1e-9)
        assert np.allclose(out, core_inverse(a + b), atol=1e-8 * (1 + fro(out)))


PUBLIC_ROUTES = {
    "moore_penrose": (star_pair, pinv),
    "group": (sharp_pair, group_inverse),
    "core": (core_pair, core_inverse),
}


@pytest.mark.parametrize("ratio", [None, 1e4])
@pytest.mark.parametrize("kind", INVERSE_KINDS)
def test_additivity_matches_public_route(kind, ratio):
    # the sum read off the order check's factors equals the sum of the
    # public inverses, each of which factors its operand afresh
    draw, inverse = PUBLIC_ROUTES[kind]
    rng = np.random.default_rng(11)
    for k in range(10):
        a, b = draw(rng, 7, 7, 2, 3) if kind == "moore_penrose" else draw(rng, 7, 2, 3)
        if ratio is not None:
            # scaling A keeps every order of the pair; at ||A|| / ||B|| = 1e4
            # the rounding of A + B left in (A + B) - A costs B's inverse read
            # off that difference about 1e-11 relative, above this bound
            a = a * (ratio * fro(b) / fro(a))
        out = ordered_inverse_additivity(a, b, kind)
        expected = inverse(a) + inverse(b)
        assert fro(out - expected) <= 1e-12 * fro(expected)


@pytest.mark.parametrize("ratio", [1e-6, 1e6])
@pytest.mark.parametrize("kind", INVERSE_KINDS)
def test_additivity_of_lopsided_pairs(kind, ratio):
    # B's inverse is read off the triple's factor of B itself, not of the
    # rounded (A + B) - A: the sum keeps its accuracy when A alone is
    # scaled far from B, on either side
    draw, inverse = PUBLIC_ROUTES[kind]
    for seed in range(30):
        a, b = draw(seed, 9, 9, 3, 3) if kind == "moore_penrose" else draw(seed, 9, 3, 3)
        a = a * (ratio * fro(b) / fro(a))
        out = ordered_inverse_additivity(a, b, kind)
        direct = inverse(a + b)
        assert fro(out - direct) <= 1e-7 * fro(direct), seed


def test_construction_triple_factors_the_callers_b():
    # fl(A + B) - A carries the rounding of A + B, about eps ||A||
    a, b = minus_pair(4, 9, 9, 3, 3)
    a = a * (1e6 * fro(b) / fro(a))
    t = _triple(a, a + b, DEFAULT_TOLERANCE, d=b)
    assert np.array_equal(t.fd.s, np.linalg.svd(b)[1])
    assert not np.array_equal(_triple(a, a + b, DEFAULT_TOLERANCE).fd.s, t.fd.s)
    assert t.fd.rank == 3


def _raised(call):
    with pytest.raises(Exception) as err:
        call()
    return err.value


def _same_report(report, public):
    assert (report.order_name, report.holds) == (public.order_name, public.holds)
    assert report.characterization_verdicts == public.characterization_verdicts
    assert report.rank_data == public.rank_data
    assert report.boundary_flags == public.boundary_flags


def test_additivity_failures_keep_type_message_and_report(rng):
    a, b = minus_pair(rng, 5, 5, 2, 2)
    err = _raised(lambda: ordered_inverse_additivity(a, b, "moore_penrose"))
    assert type(err) is OrderConditionError
    assert str(err) == "required order fails: A is not star-below A + B"
    _same_report(err.report, star_order(a, a + b))

    s, t = sharp_pair(rng, 5, 2, 2)
    other = cgauss(rng, 5, 5)
    err = _raised(lambda: ordered_inverse_additivity(s, other, "group"))
    assert type(err) is OrderConditionError
    assert str(err) == "required order fails: A is not sharp-below A + B"
    _same_report(err.report, sharp_order(s, s + other))

    err = _raised(lambda: ordered_inverse_additivity(s, other, "core"))
    assert type(err) is OrderConditionError
    assert str(err) == "required order fails: A is not core-below A + B"
    _same_report(err.report, core_order(s, s + other))

    # sharp needs A and then A + B group invertible, before any identity
    nilpotent = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    err = _raised(lambda: ordered_inverse_additivity(nilpotent, np.eye(3), "group"))
    assert type(err) is GroupInvertibilityError
    assert str(err) == "A is not group invertible"
    err = _raised(lambda: ordered_inverse_additivity(np.zeros((3, 3)), nilpotent, "group"))
    assert type(err) is GroupInvertibilityError
    assert str(err) == "B is not group invertible"

    # A = [[1, 1], [0, 0]] is core-below A + B = [[1, 1], [0, 1]], but A* is
    # not core-below (A + B)*: only the adjoint-side check fails
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert core_order(a, a + b).holds
    err = _raised(lambda: ordered_inverse_additivity(a, b, "core"))
    assert type(err) is OrderConditionError
    assert str(err) == "required order fails: A* is not core-below (A + B)*"
    _same_report(err.report, core_order(adjoint(a), adjoint(a + b)))


def test_additivity_rejects_wrong_order(rng):
    # a minus pair is generally not star ordered
    a, b = minus_pair(rng, 5, 5, 2, 2)
    with pytest.raises(OrderConditionError) as err:
        ordered_inverse_additivity(a, b, "moore_penrose")
    assert err.value.report is not None


def test_additivity_unknown_kind(rng):
    a, b = star_pair(rng, 4, 4, 1, 1)
    assert set(INVERSE_KINDS) == {"moore_penrose", "group", "core"}
    with pytest.raises(ValueError):
        ordered_inverse_additivity(a, b, "drazin")
