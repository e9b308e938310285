"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS line (pytest reports FAILED otherwise).

Run with ``pytest tests/test_acceptance.py -v``.  Every test draws its
instances from fixed seeds, so the gate is reproducible bit for bit.
"""

import json

import numpy as np

from minusord.additivity import is_range_additive
from minusord.cli import main
from minusord.exceptions import GroupInvertibilityError
from minusord.generate import core_pair, minus_chain, minus_pair, sharp_pair, star_pair
from minusord.geninv import core_inverse, group_inverse, pinv, reflexive_inverse
from minusord.linalg import adjoint, effective_condition, fro
from minusord.lsq import decoupled_lss
from minusord.mmio import format_matrix, parse_matrix, read_matrix, write_matrix
from minusord.orders import (
    ORDER_NAMES,
    core_order,
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
from minusord.subspaces import (
    Subspace,
    intersect,
    null_basis,
    oblique_projection,
    range_basis,
    subspace_equal,
)
from minusord.sums import (
    build_split,
    fill_fishkind_pinv,
    ordered_inverse_additivity,
    sum_reflexive_inverse,
    werner_decomposition,
)


def announce(number, name):
    print(f"criterion {number:02d} ({name}): PASS")


def cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def mixed_pair_stream(rng, count):
    """Instances of varied shapes, alternating satisfying and failing."""
    shapes = [(5, 4, 1, 2), (6, 5, 2, 2), (6, 6, 2, 3), (7, 5, 2, 2), (4, 4, 1, 1)]
    for k in range(count):
        m, n, r1, r2 = shapes[k % len(shapes)]
        a, b = minus_pair(rng, m, n, r1, r2)
        if k % 2 == 0:
            # satisfying: ordered pair, reflexive case, or zero below
            which = (k // 2) % 3
            if which == 0:
                yield a, a + b
            elif which == 1:
                yield a, a
            else:
                yield np.zeros((m, n), dtype=np.complex128), a + b
        else:
            # failing: generic perturbation, scaling, or an unrelated pair
            which = (k // 2) % 3
            if which == 0:
                yield a, a + cgauss(rng, m, n)
            elif which == 1:
                yield a, 2.0 * a
            else:
                u, v = cgauss(rng, m, 1), cgauss(rng, n, 1)
                yield u @ adjoint(v), b


def test_criterion_01_minus_against_rank_oracle():
    rng = np.random.default_rng(101)
    flagged = 0
    tallies = {True: 0, False: 0}
    for a, b in mixed_pair_stream(rng, 1000):
        rep = minus_order(a, b)
        if rep.boundary_flags:
            flagged += 1
            continue
        oracle = (np.linalg.matrix_rank(a) + np.linalg.matrix_rank(b - a)
                  == np.linalg.matrix_rank(b))
        assert rep.holds == oracle
        tallies[oracle] += 1
    assert flagged <= 20
    assert tallies[True] >= 480 and tallies[False] >= 480
    announce(1, "minus order agrees with the rank oracle on 1000 pairs")


def test_criterion_02_five_characterizations_agree():
    rng = np.random.default_rng(102)
    accepted = skipped = 0
    stream = mixed_pair_stream(rng, 1300)
    while accepted < 1000:
        a, b = next(stream)
        rep = minus_order(a, b)
        if rep.boundary_flags:
            skipped += 1
            continue
        for name, verdict in rep.characterization_verdicts.items():
            assert verdict == rep.holds, (name, rep)
        accepted += 1
    assert skipped <= 50
    announce(2, "all five characterizations agree on 1000 clear instances")


def test_criterion_03_hierarchy_implications():
    rng = np.random.default_rng(103)
    for k in range(1000):
        a, b = star_pair(rng, 5, 4, 1, 2)
        s = a + b
        assert star_order(a, s).holds
        assert left_star_order(a, s).holds
        assert right_star_order(a, s).holds
        assert minus_order(a, s).holds
    for k in range(1000):
        a, b = sharp_pair(rng, 5, 2, 1)
        s = a + b
        assert sharp_order(a, s).holds
        assert minus_order(a, s).holds
    for k in range(1000):
        a, b = core_pair(rng, 5, 1, 2)
        s = a + b
        assert core_order(a, s).holds
        assert left_star_order(a, s).holds
        assert minus_order(a, s).holds
    # one sided and weak variants coincide with minus in finite dimension
    accepted = 0
    stream = mixed_pair_stream(rng, 1300)
    while accepted < 1000:
        a, b = next(stream)
        mn = minus_order(a, b)
        if mn.boundary_flags:
            continue
        left = left_minus_order(a, b).holds
        right = right_minus_order(a, b).holds
        assert left == mn.holds
        assert (left and right) == mn.holds
        assert weak_minus_order(a, b).holds == mn.holds
        accepted += 1
    announce(3, "order hierarchy implications hold on 1000 pairs per family")


def test_criterion_04_partial_order_axioms():
    rng = np.random.default_rng(104)
    for k in range(500):
        a, b, c = minus_chain(rng, 6, 5, 1, 2, 1)
        assert minus_order(a, a).holds                     # reflexive
        assert minus_order(a, b).holds and minus_order(b, c).holds
        assert minus_order(a, c).holds                     # transitive
        assert not minus_order(b, a).holds                 # antisymmetric
        assert not minus_order(c, b).holds
    # every order is reflexive; sharp and core need group invertibility,
    # so draw square group-invertible instances
    for k in range(100):
        g = sharp_pair(rng, 5, 2, 1)[0]
        for name in ORDER_NAMES:
            assert order_predicate(name)(g, g).holds, name
    announce(4, "reflexivity, antisymmetry and transitivity on 500 chains")


def test_criterion_05_projection_sum_properties():
    rng = np.random.default_rng(105)
    for k in range(500):
        a, b = minus_pair(rng, 7, 4, 2, 1)
        s = a + b
        split = build_split(a, b)
        e = split.e
        scale = 1.0 + fro(e)
        assert split.optimal
        assert fro(e - adjoint(e)) <= 1e-10 * scale
        assert fro(e @ e - e) <= 1e-10 * (1.0 + fro(e) ** 2)
        assert subspace_equal(range_basis(e), range_basis(s))
        # tilting one leftover direction into R(B) breaks optimality but
        # nothing else
        leftover = intersect(null_basis(adjoint(a)), null_basis(adjoint(b)))
        tilt = leftover.basis.copy()
        tilt[:, :1] = tilt[:, :1] + 0.5 * range_basis(b).basis[:, :1]
        bent = build_split(a, b, m1=Subspace.from_span(tilt))
        eb = bent.e
        assert not bent.optimal
        assert fro(eb - adjoint(eb)) > 1e-10 * (1.0 + fro(eb))
        assert fro(eb @ eb - eb) <= 1e-10 * (1.0 + fro(eb) ** 2)
        assert subspace_equal(range_basis(eb), range_basis(s))
    announce(5, "E is idempotent with range R(A+B), Hermitian iff optimal, on 500 splits")


def test_criterion_06_pseudoinverse_of_sum():
    rng = np.random.default_rng(106)
    shapes = [(6, 5, 2, 2), (7, 6, 3, 2), (5, 5, 2, 2), (8, 5, 1, 3)]
    for k in range(500):
        m, n, r1, r2 = shapes[k % len(shapes)]
        a, b = minus_pair(rng, m, n, r1, r2)
        s = a + b
        got = fill_fishkind_pinv(a, b)
        bound = 1e-8 * (1.0 + effective_condition(s))
        assert fro(got - np.linalg.pinv(s)) <= bound
    announce(6, "split formula matches the pseudoinverse of the sum on 500 pairs")


def test_criterion_07_sum_reflexive_inverse():
    rng = np.random.default_rng(107)
    for k in range(300):
        a, b = minus_pair(rng, 6, 6, 2, 2)
        s = a + b
        m_comp = Subspace.from_span(cgauss(rng, 6, 2))
        n_comp = Subspace.from_span(cgauss(rng, 6, 4))
        x = sum_reflexive_inverse(a, b, m_comp, n_comp)
        direct = reflexive_inverse(s, n_comp, m_comp)
        scale = 1.0 + fro(direct)
        assert fro(x - direct) <= 1e-8 * scale
        xa, xb = werner_decomposition(a, b, m_comp, n_comp)
        assert fro(xa + xb - x) <= 1e-8 * scale
        # swapping in another admissible complement changes nothing
        again = sum_reflexive_inverse(a, b, m_comp, n_comp,
                                      n1=range_basis(a).perp())
        assert fro(again - x) <= 1e-8 * scale
    announce(7, "two-summand reflexive inverse matches the direct route on 300 pairs")


def test_criterion_08_inverse_additivity():
    rng = np.random.default_rng(108)
    for k in range(200):
        a, b = star_pair(rng, 6, 5, 2, 2)
        out = ordered_inverse_additivity(a, b, "moore_penrose")
        direct = pinv(a + b)
        assert fro(out - direct) <= 1e-9 * (1.0 + fro(direct))
    for k in range(200):
        a, b = sharp_pair(rng, 6, 2, 2)
        out = ordered_inverse_additivity(a, b, "group")
        direct = group_inverse(a + b)
        assert fro(out - direct) <= 1e-9 * (1.0 + fro(direct))
    for k in range(200):
        a, b = core_pair(rng, 6, 2, 2)
        out = ordered_inverse_additivity(a, b, "core")
        direct = core_inverse(a + b)
        assert fro(out - direct) <= 1e-9 * (1.0 + fro(direct))
    announce(8, "inverse additivity holds for all three kinds on 200 pairs each")


def test_criterion_09_least_squares_decoupling():
    rng = np.random.default_rng(109)
    for k in range(200):
        a, b = minus_pair(rng, 7, 5, 2, 2)
        c = cgauss(rng, 7, 1).ravel()
        res = decoupled_lss(a, b, c)
        scale = (1.0 + fro(a) + fro(b)) * (1.0 + float(np.linalg.norm(c)))
        for name, value in res.residuals.items():
            assert value <= 1e-8 * scale, (name, value)
    for k in range(100):
        a, b = star_pair(rng, 6, 5, 2, 2)
        c = cgauss(rng, 6, 1).ravel()
        res = decoupled_lss(a, b, c)
        scale = (1.0 + fro(a) + fro(b)) * (1.0 + float(np.linalg.norm(c)))
        for value in res.residuals.values():
            assert value <= 1e-8 * scale
        # an orthogonal witness makes the weight trivial
        assert fro(res.weight.matrix - np.eye(6)) <= 1e-8
    announce(9, "joint solutions decouple into weighted problems on 300 systems")


def test_criterion_10_generalized_inverse_contracts():
    rng = np.random.default_rng(110)
    for k in range(1000):
        a = cgauss(rng, 6, 2) @ cgauss(rng, 2, 5)
        x = pinv(a)
        sa, sx = 1.0 + fro(a), 1.0 + fro(x)
        assert fro(a @ x @ a - a) <= 1e-10 * sa * (1.0 + fro(a @ x))
        assert fro(x @ a @ x - x) <= 1e-10 * sx * (1.0 + fro(x @ a))
        assert fro(adjoint(a @ x) - a @ x) <= 1e-10 * (1.0 + fro(a @ x))
        assert fro(adjoint(x @ a) - x @ a) <= 1e-10 * (1.0 + fro(x @ a))

        r = Subspace.from_span(cgauss(rng, 5, 2))
        n = Subspace.from_span(cgauss(rng, 6, 4))
        y = reflexive_inverse(a, r, n)
        sy = 1.0 + fro(y)
        assert fro(a @ y @ a - a) <= 1e-10 * sa * sy
        assert fro(y @ a @ y - y) <= 1e-10 * sy * sy
        # AY projects onto R(A) along the prescribed null space, YA onto
        # the prescribed range along N(A)
        onto_range = oblique_projection(range_basis(a), n).matrix
        onto_prescribed = oblique_projection(r, null_basis(a)).matrix
        assert fro(a @ y - onto_range) <= 1e-10 * sa * sy * (1.0 + fro(onto_range))
        assert fro(y @ a - onto_prescribed) <= 1e-10 * sa * sy * (1.0 + fro(onto_prescribed))

        g = sharp_pair(rng, 5, 2, 1)[0]
        direct = core_inverse(g)
        composed = group_inverse(g) @ g @ pinv(g)
        assert fro(direct - composed) <= 1e-10 * (1.0 + fro(direct)) * (1.0 + fro(g)) ** 2
    announce(10, "pseudo, reflexive and core inverses meet their contracts 1000 times")


def test_criterion_11_cli_determinism_and_roundtrip(tmp_path, capsys):
    one = str(tmp_path / "one_")
    two = str(tmp_path / "two_")
    for prefix in (one, two):
        assert main(["gen", "minus", "--dims", "6x5", "--ranks", "2,2",
                     "--seed", "31", "--out-prefix", prefix]) == 0
    capsys.readouterr()
    for name in ("A.mtx", "B.mtx", "ApB.mtx"):
        with open(one + name, "rb") as f1, open(two + name, "rb") as f2:
            assert f1.read() == f2.read()

    outputs = []
    for _ in range(2):
        assert main(["check", "minus", one + "A.mtx", one + "ApB.mtx", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])

    outputs = []
    for _ in range(2):
        assert main(["pinv-sum", one + "A.mtx", one + "B.mtx", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    # write -> read -> write reproduces every file byte for byte
    for name in ("A.mtx", "B.mtx", "ApB.mtx"):
        path = one + name
        again = str(tmp_path / ("copy_" + name))
        write_matrix(again, read_matrix(path))
        with open(path, "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()
    text = format_matrix(cgauss(np.random.default_rng(32), 4, 3))
    assert format_matrix(parse_matrix(text)) == text
    announce(11, "CLI reports are deterministic and files round trip bit for bit")


SIMILARITY_ORDERS = ("sharp", "core")


def verdicts(a, b, names=ORDER_NAMES):
    """The verdict of each named order on (A, B), a refusal counting as
    its exception's name, and whether R(A + B) = R(A) + R(B)."""
    out = {"range_additive": is_range_additive(a, b)}
    for name in names:
        try:
            out[name] = order_predicate(name)(a, b).holds
        except GroupInvertibilityError as exc:
            out[name] = type(exc).__name__
    return out


def metamorphic_pairs(rng, rounds):
    """Per round, ordered minus, star, sharp and core pairs, and three
    unrelated pairs made from the minus pair (A, A + B): A against a
    perturbed A, A against 2A, and a rank-one matrix against A + B."""
    for k in range(rounds):
        n = (4, 6, 9)[k % 3]
        r1, r2 = 1 + k % 2, 1 + (k // 2) % 2
        a, b = minus_pair(rng, n, n, r1, r2)
        yield "minus", a, a + b
        for kind, draw in (("star", star_pair), ("sharp", sharp_pair), ("core", core_pair)):
            x, y = draw(rng, n, n, r1, r2) if kind == "star" else draw(rng, n, r1, r2)
            yield kind, x, x + y
        yield "perturbed", a, a + cgauss(rng, n, n)
        yield "doubled", a, 2.0 * a
        yield "rank_one", cgauss(rng, n, 1) @ adjoint(cgauss(rng, n, 1)), a + b


def test_criterion_12_verdicts_are_metamorphic():
    """Verdicts do not move under A, B -> cA, cB for c from 1e-12 to 1e12,
    under a unitary equivalence (a unitary similarity for the sharp and
    core orders), or from right_*(A, B) to left_*(A*, B*); and star, sharp
    and core each imply minus, also on an unrelated diagonal pair with
    ||A|| / ||B|| down to 1e-12.  On the ordered pairs (A, A + D) the
    verdicts also stay when A alone becomes rA for r from 1e-6 to 1e6,
    which keeps every order of the pair, and the constructions on the sum
    rA + D (the Fill-Fishkind pseudoinverse, decoupled least squares and
    the reflexive inverse with prescribed complements) all return."""
    rng = np.random.default_rng(112)
    # the right-hand sides and complements of the constructions, drawn
    # apart so that the pairs and unitary maps stay those of ``rng``
    draws = np.random.default_rng(212)
    equivalence_orders = tuple(name for name in ORDER_NAMES if name not in SIMILARITY_ORDERS)
    for kind, a, b in metamorphic_pairs(rng, 12):
        base = verdicts(a, b)
        # the ordered pairs hold their own order and the unrelated ones fail minus
        assert (base[kind] is True) if kind in ORDER_NAMES else (base["minus"] is False), kind
        for name in ("star", "sharp", "core"):
            assert base[name] is not True or base["minus"], (kind, name)
        for c in (1e-12, 1e-6, 1e6, 1e12):
            assert verdicts(c * a, c * b) == base, (kind, c)
        n = a.shape[0]
        if kind in ORDER_NAMES:
            d, k = b - a, np.linalg.matrix_rank(b)
            for r in (1e-6, 1e-3, 1e3, 1e6):
                assert verdicts(r * a, r * a + d) == base, (kind, r)
                fill_fishkind_pinv(r * a, d)
                decoupled_lss(r * a, d, cgauss(draws, n, 1)[:, 0])
                # complements of R(rA + D) and N(rA + D), of dimensions n - k and k
                sum_reflexive_inverse(r * a, d, Subspace.from_span(cgauss(draws, n, n - k)),
                                      Subspace.from_span(cgauss(draws, n, k)))
        u, v = (np.linalg.qr(cgauss(rng, n, n))[0] for _ in range(2))
        assert verdicts(u @ a @ adjoint(v), u @ b @ adjoint(v), equivalence_orders) == {
            key: base[key] for key in ("range_additive",) + equivalence_orders}, kind
        similar = verdicts(u @ a @ adjoint(u), u @ b @ adjoint(u), SIMILARITY_ORDERS)
        assert similar == {key: base[key] for key in ("range_additive",) + SIMILARITY_ORDERS}, kind
        mirrored = verdicts(adjoint(a), adjoint(b), ("left_minus", "left_star"))
        assert (mirrored["left_minus"], mirrored["left_star"]) == (
            base["right_minus"], base["right_star"]), kind
    # an unrelated pair with A far smaller than B, whose identity residuals
    # of about ||A||^2 fall under their scale: the hierarchy still holds
    for eps in (1e-12, 1e-10):
        base = verdicts(np.diag([eps, 0, 0, 0]) + 0j, np.diag([0, 1, 1, 0]) + 0j)
        for name in ("star", "sharp", "core"):
            assert base[name] is not True or base["minus"], (eps, name)
    announce(12, "verdicts survive scaling, lopsided norms, unitary maps and the adjoint mirror; "
                 "constructions survive lopsided norms")
