import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import joined_basis
import minusord.subspaces
from minusord.exceptions import ComplementError
from minusord.linalg import ToleranceConfig, adjoint, fro
from minusord.subspaces import (
    Projection,
    Subspace,
    angle_equivalences,
    intersect,
    is_direct_sum,
    minimal_angle_cos,
    null_basis,
    oblique_projection,
    ominus,
    orthogonal_projection,
    range_basis,
    span_dim,
    subspace_equal,
    subspace_sum,
)
from minusord.subspaces import _SCREEN, _idempotent_within, _oblique

from conftest import cgauss


def line(*entries):
    return Subspace.from_span(np.array(entries, dtype=complex).reshape(-1, 1))


def test_from_span_orthonormalizes():
    # two copies of the same direction collapse to one basis vector
    s = Subspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert s.dim == 1
    assert np.allclose(np.abs(s.basis), np.full((2, 1), 1 / np.sqrt(2)))


def test_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert np.allclose(f.projector(), np.eye(3))
    assert np.allclose(z.projector(), np.zeros((3, 3)))
    assert subspace_equal(z.perp(), f)


def test_perp_complements(rng):
    s = Subspace.from_span(cgauss(rng, 6, 2))
    p = s.perp()
    assert p.dim == 4
    assert np.allclose(adjoint(s.basis) @ p.basis, 0)
    assert np.allclose(s.projector() + p.projector(), np.eye(6))


def test_constructor_rejects_a_basis_that_is_not_orthonormal():
    # every read assumes orthonormal columns: on span(3 e1) the minimal
    # angle against span(0.6 e1 + 0.8 e2) read 1.0 and e1 fell outside, and
    # [e1 | e1 + 1e-3 e2] counted dim(W + span(e2)) = 3 in C^2
    e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    n = Subspace(0.6 * e1 + 0.8 * e2)
    for basis in (3.0 * e1, np.hstack([e1, e1 + 1e-3 * e2])):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(basis)
    assert minimal_angle_cos(Subspace(e1), n) == pytest.approx(0.6)
    assert Subspace(e1).contains_vector(e1)
    w = Subspace.from_span(np.hstack([e1, e1 + 1e-3 * e2]))
    assert span_dim(w, Subspace(e2)) == 2
    # a computed orthonormal basis passes, with its rounding
    q = np.linalg.qr(cgauss(np.random.default_rng(0), 40, 7))[0]
    assert Subspace(q).dim == 7


def test_contains_vector():
    s = line(1, 1, 0)
    assert s.contains_vector(np.array([2.0, 2.0, 0.0]))
    assert not s.contains_vector(np.array([1.0, 0.0, 0.0]))
    # zero vector is in every subspace, including the zero one
    assert Subspace.zero(3).contains_vector(np.zeros(3))


def test_range_and_null_bases(rng):
    a = cgauss(rng, 5, 3) @ cgauss(rng, 3, 4)
    ra = range_basis(a)
    na = null_basis(a)
    assert ra.dim == 3 and na.dim == 1
    assert np.allclose(a @ na.basis, 0)
    # columns of A lie in the computed range
    for col in a.T:
        assert ra.contains_vector(col)


def test_null_basis_rejects_empty():
    with pytest.raises(ValueError):
        null_basis(np.zeros((3, 0)))


def test_sum_and_intersection():
    m = subspace_sum(line(1, 0, 0), line(0, 1, 0))
    n = subspace_sum(line(0, 1, 0), line(0, 0, 1))
    assert m.dim == n.dim == 2
    both = intersect(m, n)
    assert both.dim == 1
    assert both.contains_vector(np.array([0.0, 1.0, 0.0]))
    assert intersect(line(1, 0, 0), line(0, 0, 1)).dim == 0


def test_intersection_is_numerically_sharp(rng):
    # nearly parallel but distinct lines must not register an intersection
    e = np.array([1.0, 0.0])
    tilted = np.array([1.0, 1e-5])
    assert intersect(line(*e), line(*tilted)).dim == 0
    # a genuinely shared direction embedded in random spans is found
    shared = cgauss(rng, 8, 1)
    m = Subspace.from_span(np.hstack([shared, cgauss(rng, 8, 2)]))
    n = Subspace.from_span(np.hstack([shared, cgauss(rng, 8, 2)]))
    cap = intersect(m, n)
    assert cap.dim == 1
    assert cap.contains_vector(shared.ravel())


def test_ominus():
    m = subspace_sum(line(1, 0, 0), line(0, 1, 0))
    rest = ominus(m, line(1, 0, 0))
    assert rest.dim == 1
    assert rest.contains_vector(np.array([0.0, 1.0, 0.0]))
    # removing a disjoint space changes nothing
    assert subspace_equal(ominus(m, line(0, 0, 1)), m)
    # removing a space that contains M leaves nothing, not rounding noise
    rng = np.random.default_rng(7)
    big = Subspace.from_span(cgauss(rng, 6, 3))
    assert ominus(big, big).dim == 0
    assert ominus(big, Subspace.full(6)).dim == 0
    assert ominus(m, m).dim == 0


def test_direct_sum_predicate():
    assert is_direct_sum(line(1, 0), line(1, 1))
    assert not is_direct_sum(line(1, 0), line(1, 0))
    assert is_direct_sum(Subspace.zero(2), line(1, 0))


def _pair(kind, seed):
    """Two subspaces of C^7: random, identical, nested or zero."""
    rng = np.random.default_rng(seed)
    m = Subspace.from_span(cgauss(rng, 7, 3))
    if kind == "random":
        return m, Subspace.from_span(cgauss(rng, 7, 2 + seed % 4))
    if kind == "identical":
        return m, m
    if kind == "nested":
        return m, Subspace.from_span(m.basis @ cgauss(rng, 3, 2))
    if kind == "zero":
        return m, Subspace.zero(7)
    return Subspace.zero(7), Subspace.zero(7)


def _near_cutoff_pair(factor, seed):
    """M = span(q0, q1), N = span(cos t q0 + sin t q2, q3) for a random
    unitary Q, with sin t, the smallest principal-angle sine of N against
    M, at ``factor`` times the sine cutoff, the rank cutoff of a 7 x 7
    matrix."""
    q, _ = np.linalg.qr(cgauss(np.random.default_rng(seed), 7, 7))
    cutoff = ToleranceConfig().effective_rank_rtol((7, 7))
    sine = factor * cutoff
    tilted = np.sqrt(1.0 - sine * sine) * q[:, 0] + sine * q[:, 2]
    m, n = Subspace(q[:, :2]), Subspace(np.column_stack([tilted, q[:, 3]]))
    s = np.linalg.svd(adjoint(m.perp().basis) @ n.basis, compute_uv=False)
    assert s[-1] / cutoff == pytest.approx(factor, rel=0.1)
    return m, n


def _assert_routes_agree(m, n):
    # values-only dimension counts against the bases they replace
    assert span_dim(m, n) == subspace_sum(m, n).dim
    assert is_direct_sum(m, n) == (intersect(m, n).dim == 0)


@pytest.mark.parametrize("kind,seed", [("random", seed) for seed in range(8)]
                         + [(kind, 0) for kind in ("identical", "nested", "zero", "both_zero")])
def test_rank_route_agrees_with_basis_route(kind, seed):
    _assert_routes_agree(*_pair(kind, seed))


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_rank_route_agrees_near_cutoff(factor, seed):
    m, n = _near_cutoff_pair(factor, seed)
    assert span_dim(m, n) == (3 if factor < 1.0 else 4)
    _assert_routes_agree(m, n)


# --- replay against the joined-basis reference ---

#: Tilt angles of the replayed pairs, from exactly shared to well apart.
ANGLES = (0.0,) + tuple(10.0 ** -k for k in range(16, 1, -1)) + (0.5,)


def _mix(basis, rng):
    """The same subspace on a random orthonormal basis."""
    k = basis.shape[1]
    return basis @ np.linalg.qr(cgauss(rng, k, k))[0] if k else basis


def _replay_pair(n, p, q, angle, seed):
    """M of dimension p and N of dimension q in C^n, and the sine of their
    smallest nonzero principal angle when it is not pi/2, else ``None``.

    In the basis of a random unitary U, M = span(u_0 .. u_{p-1}).  N shares
    some of those directions (at least the p + q - n it must), tilts the
    rest of its first min(p, q) directions out of M by ``angle`` and fills
    up with directions orthogonal to M.
    """
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(cgauss(rng, n, n))[0]
    low = min(p, q)
    shared = int(rng.integers(max(0, p + q - n), low + 1))
    tilted = low - shared
    cols = [u[:, :shared],
            np.cos(angle) * u[:, shared:low] + np.sin(angle) * u[:, p:p + tilted],
            u[:, p + tilted:p + q - shared]]
    m = Subspace(_mix(u[:, :p], rng))
    n_space = Subspace(_mix(np.hstack(cols), rng))
    return m, n_space, np.sin(angle) if tilted and angle else None


def _outcomes(ops, m, n):
    """The verdicts and subspaces of every public set operation on (M, N),
    by the module ``ops``."""
    try:
        oblique = ops.oblique_projection(m, n).matrix
    except ComplementError:
        oblique = None
    verdicts = {"span_dim": ops.span_dim(m, n), "direct": ops.is_direct_sum(m, n),
                "angles": ops.angle_equivalences(m, n), "oblique": oblique is not None}
    spaces = {"sum": ops.subspace_sum(m, n), "cap": ops.intersect(m, n),
              "ominus": ops.ominus(m, n)}
    return verdicts, spaces, oblique


def _replay_cases(n):
    """Every pair of dimensions in C^n: below n = 7 at every angle, at
    n = 7 at every third, beyond at one."""
    step = 1 if n < 7 else 3 if n == 7 else len(ANGLES)
    for p in range(n + 1):
        for q in range(n + 1):
            for angle in ANGLES[(p + q) % step::step]:
                yield p, q, angle


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 20])
def test_set_operations_match_joined_basis_reference(n):
    # the sine rule cuts sin(theta) at 16 eps n, the joined-basis rule at
    # about twice the cutoff of the joined bases; outside 0.5-4x the sine
    # cutoff the two engines must decide alike
    cutoff = ToleranceConfig().effective_rank_rtol((n, n))
    for k, (p, q, angle) in enumerate(_replay_cases(n)):
        m, n_space, sine = _replay_pair(n, p, q, angle, 1000 * n + k)
        if sine is not None and 0.5 <= sine / cutoff <= 4.0:
            continue
        # the subspaces are known to about eps / sin(theta) near the cutoff
        sharp = sine is None or sine < 0.5 * cutoff or sine >= 1e-6
        for a, b in ((m, n_space), (n_space, m)):
            label = (n, p, q, angle, a is m)
            verdicts, spaces, oblique = _outcomes(minusord.subspaces, a, b)
            ref_verdicts, ref_spaces, ref_oblique = _outcomes(joined_basis, a, b)
            assert verdicts == ref_verdicts, label
            for name, space in spaces.items():
                assert space.dim == ref_spaces[name].dim, (name,) + label
                assert not sharp or subspace_equal(space, ref_spaces[name]), (name,) + label
            if sharp and oblique is not None:
                assert fro(oblique - ref_oblique) <= 1e-8 * fro(ref_oblique), label


def test_direct_sum_reads_singular_values_only(monkeypatch, rng):
    m, n = Subspace.from_span(cgauss(rng, 6, 2)), Subspace.from_span(cgauss(rng, 6, 3))
    real = np.linalg.svd
    vectors = []

    def spy(*args, **kwargs):
        vectors.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert is_direct_sum(m, n)
    assert vectors == [False]


def test_subspace_equal_reads_singular_values_only(monkeypatch, rng):
    m = Subspace.from_span(cgauss(rng, 6, 3))
    n = Subspace.from_span(m.basis @ cgauss(rng, 3, 3))
    # two sines of 0.9 subspace_atol: sigma_1 is within the threshold while
    # the Frobenius norm, about 1.27 times it, settles nothing
    q, _ = np.linalg.qr(cgauss(rng, 6, 6))
    sine = 0.9 * ToleranceConfig().subspace_atol(6)
    tilted = [np.sqrt(1.0 - sine * sine) * q[:, j] + sine * q[:, j + 3] for j in (0, 1)]
    close = Subspace(q[:, :3]), Subspace(np.column_stack(tilted + [q[:, 2]]))
    real = np.linalg.svd
    vectors = []

    def spy(*args, **kwargs):
        vectors.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    # equal spans: the norm of the sines settles the bound with no SVD
    assert subspace_equal(m, n)
    assert vectors == []
    assert subspace_equal(*close)
    assert vectors == [False]


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_subspace_equal_agrees_with_complement_route(factor, seed):
    # M = span(q0, q1, q2), N = span(q0, cos t q1 + sin t q3, q2): the
    # largest principal-angle sine is sin t = factor * subspace_atol
    q, _ = np.linalg.qr(cgauss(np.random.default_rng(seed), 7, 7))
    atol = ToleranceConfig().subspace_atol(7)
    sine = factor * atol
    tilted = np.sqrt(1.0 - sine * sine) * q[:, 1] + sine * q[:, 3]
    m, n = Subspace(q[:, :3]), Subspace(np.column_stack([q[:, 0], tilted, q[:, 2]]))
    complement_route = minimal_angle_cos(m, n.perp())
    assert complement_route == pytest.approx(sine, rel=1e-3)
    assert subspace_equal(m, n) == (complement_route <= atol) == (factor < 1.0)
    assert subspace_equal(n, m) == (factor < 1.0)


def test_subspace_equal_tolerates_rotated_bases(rng):
    cols = cgauss(rng, 5, 3)
    mix = cols @ (np.eye(3) + 0.3 * cgauss(rng, 3, 3))
    assert subspace_equal(Subspace.from_span(cols), Subspace.from_span(mix))
    assert not subspace_equal(Subspace.from_span(cols), Subspace.from_span(cols[:, :2]))


def test_minimal_angle_cos_frozen():
    # lines e1 and (e1+e2)/sqrt2 meet at 45 degrees; value checked against
    # a direct inner product and a grid search over unit vectors
    c = minimal_angle_cos(line(1, 0), line(1, 1))
    assert c == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # plane {e1,e2} against the line (e2+e3)/sqrt2 in C^3: same cosine
    plane = subspace_sum(line(1, 0, 0), line(0, 1, 0))
    c2 = minimal_angle_cos(plane, line(0, 1, 1))
    assert c2 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert minimal_angle_cos(line(1, 0), line(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert minimal_angle_cos(Subspace.zero(2), line(1, 0)) == 0.0


def test_angle_equivalences_nontrivial_intersection():
    eq = angle_equivalences(line(1, 0), line(1, 0))
    assert eq.c0 == pytest.approx(1.0)
    assert not eq.c0_lt_1
    assert not eq.complements_span


def test_angle_equivalences_disjoint(rng):
    m = Subspace.from_span(cgauss(rng, 6, 2))
    n = Subspace.from_span(cgauss(rng, 6, 3))
    eq = angle_equivalences(m, n)
    assert eq.c0_lt_1
    assert eq.direct_sum_closed
    assert eq.complements_span
    assert eq.c0 < 1.0


def test_orthogonal_projection(rng):
    s = Subspace.from_span(cgauss(rng, 5, 2))
    p = orthogonal_projection(s)
    assert np.allclose(p.matrix @ p.matrix, p.matrix)
    assert p.is_hermitian()
    assert np.allclose(p.matrix @ s.basis, s.basis)


def test_oblique_projection_frozen():
    # range e1, null direction (1,1): the matrix is [[1,-1],[0,0]]
    p = oblique_projection(line(1, 0), line(1, 1))
    assert np.allclose(p.matrix, np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert not p.is_hermitian()


def test_oblique_projection_random(rng):
    for _ in range(25):
        m = Subspace.from_span(cgauss(rng, 7, 3))
        n = Subspace.from_span(cgauss(rng, 7, 4))
        p = oblique_projection(m, n)
        mat = p.matrix
        assert np.allclose(mat @ mat, mat, atol=1e-10)
        assert np.allclose(mat @ m.basis, m.basis, atol=1e-10)
        assert np.allclose(mat @ n.basis, 0, atol=1e-10)


def test_oblique_projection_needs_complements():
    with pytest.raises(ComplementError) as info:
        oblique_projection(line(1, 0), line(1, 0))
    # only the agreeing split of a sum names the complement it rejects
    assert info.value.complement is None
    with pytest.raises(ComplementError):
        # dims do not add up to the ambient space
        oblique_projection(line(1, 0, 0), line(0, 1, 0))


def test_projection_complement_and_adjoint(rng):
    m = Subspace.from_span(cgauss(rng, 6, 2))
    n = Subspace.from_span(cgauss(rng, 6, 4))
    p = oblique_projection(m, n)
    q = p.complement()
    assert np.allclose(p.matrix + q.matrix, np.eye(6))
    assert subspace_equal(q.range, n)
    padj = p.adjoint()
    assert np.allclose(padj.matrix, adjoint(p.matrix))
    assert subspace_equal(padj.range, n.perp())


def test_projection_validates():
    with pytest.raises(ValueError):
        Projection(np.array([[1.0, 1.0], [0.0, 1.0]]), line(1, 0), line(0, 1))


def test_projection_screen_scales_with_the_matrix(rng):
    # a small matrix is no projection: with a constant in the scale of its
    # idempotency screen, any matrix of norm below about 1e-6 passed
    zero, full = Subspace.zero(4), Subspace.full(4)
    with pytest.raises(ValueError, match="matrix is not idempotent"):
        Projection(1e-10 * cgauss(rng, 4, 4), full, zero)
    Projection(np.zeros((4, 4)), zero, full)


def test_complement_of_a_full_projection(rng):
    # I - P is pure rounding when P projects onto the whole space; the
    # complement and adjoint inherit P's screen instead of failing a new one
    full = Subspace.from_span(cgauss(rng, 4, 4))
    for p in (orthogonal_projection(full), oblique_projection(full, Subspace.zero(4))):
        q = p.complement()
        assert q.range.dim == 0 and q.nullspace.dim == 4
        assert fro(q.matrix) < 1e-12
        assert fro(q.adjoint().matrix) < 1e-12


# --- projections solved on their sine core ---

def _complementary_pair(rng, n, k):
    return Subspace.from_span(cgauss(rng, n, k)), Subspace.from_span(cgauss(rng, n, n - k))


def _projection(m_space, n_space, tol, complement=None, **perps):
    """The projection onto M along N, solved on the core against ``perps``
    and formed."""
    return _oblique(m_space, n_space, tol, complement, **perps).projection(m_space, n_space)


def _cores(m_space, n_space):
    """The three ways of giving the orthogonal complements: N^perp, M^perp
    or both."""
    m_perp, n_perp = m_space.perp(), n_space.perp()
    return ({"n_perp": n_perp}, {"m_perp": m_perp}, {"m_perp": m_perp, "n_perp": n_perp})


@pytest.mark.parametrize("k", [0, 1, 4, 8])
def test_core_projection_matches_the_join_route(k):
    # the reference solves P [B_M | B_N] = [B_M | 0] on the joined bases of
    # C^8; the core route solves k x k or (8 - k) x (8 - k)
    rng = np.random.default_rng(60 + k)
    for _ in range(5):
        m_space, n_space = _complementary_pair(rng, 8, k)
        expected = joined_basis.oblique_projection(m_space, n_space).matrix
        for perps in _cores(m_space, n_space):
            got = _projection(m_space, n_space, ToleranceConfig(), **perps)
            assert fro(got.matrix - expected) <= 1e-12 * max(fro(expected), 1.0), perps
            assert got.range is m_space and got.nullspace is n_space


def _columns(*indices, n=5):
    """A basis of unit vectors of C^n."""
    return Subspace._trusted(np.eye(n, dtype=np.complex128)[:, list(indices)])


@pytest.mark.parametrize("tol", [ToleranceConfig(), None], ids=["tested", "untested"])
def test_singular_core_raises_complement_error(tol):
    # M = span(e0, e1) meets N = span(e1, e2, e3): every core has a zero
    # sine, which a tolerance's cutoff rejects, and a core solved with no
    # tolerance the LU
    m_space, n_space = _columns(0, 1), _columns(1, 2, 3)
    for perps in ({"n_perp": _columns(0, 4)}, {"m_perp": _columns(2, 3, 4)},
                  {"m_perp": _columns(2, 3, 4), "n_perp": _columns(0, 4)}):
        with pytest.raises(ComplementError, match="^not a complementary pair$") as info:
            _projection(m_space, n_space, tol, "n1", **perps)
        assert info.value.complement == "n1"


def test_core_of_the_wrong_shape_raises_complement_error():
    # dim M + dim N falls short of the space: the core is not square
    with pytest.raises(ComplementError, match="^not a complementary pair$") as info:
        _projection(_columns(0), _columns(1, 2), None, "n2s", n_perp=_columns(0, 3, 4))
    assert info.value.complement == "n2s"


def test_oblique_projection_without_a_tolerance_returns_no_projection():
    # M and N of complementary dimensions meeting in one direction, their
    # bases in general position: with no tolerance the core would go
    # untested, and the LU does not see a singular core through rounding
    rng = np.random.default_rng(72)
    shared = cgauss(rng, 6, 1)
    m_space = Subspace.from_span(np.hstack([shared, cgauss(rng, 6, 1)]))
    n_space = Subspace.from_span(np.hstack([shared, cgauss(rng, 6, 3)]))
    with pytest.raises(ComplementError):
        oblique_projection(m_space, n_space)
    for m, n in ((m_space, n_space), (n_space, m_space)):
        with pytest.raises(TypeError, match="^tol must be a ToleranceConfig, not NoneType$"):
            oblique_projection(m, n, None)


def _screen_calls(monkeypatch):
    """The matrices the full idempotency screen of Projection has run on."""
    seen = []
    screen = Projection.__post_init__

    def counting(self):
        seen.append(self.matrix)
        screen(self)

    monkeypatch.setattr(Projection, "__post_init__", counting)
    return seen


def test_certified_projections_skip_the_full_screen(monkeypatch):
    seen = _screen_calls(monkeypatch)
    rng = np.random.default_rng(70)
    for k in (1, 3, 5):
        m_space, n_space = _complementary_pair(rng, 6, k)
        for perps in _cores(m_space, n_space):
            _projection(m_space, n_space, ToleranceConfig(), **perps)
    assert seen == []


def test_declined_certificate_runs_the_full_screen(monkeypatch):
    seen = _screen_calls(monkeypatch)
    monkeypatch.setattr(minusord.subspaces, "_idempotent_within", lambda *args: False)
    m_space, n_space = _complementary_pair(np.random.default_rng(71), 6, 2)
    got = _projection(m_space, n_space, ToleranceConfig(), n_perp=n_space.perp())
    assert len(seen) == 1 and seen[0] is got.matrix


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10), k=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-200, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e200]),
       tilt=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12, 1e-15]),
       defect=st.sampled_from([0.0, 1e-12, 1e-7, 1e-6, 1e-5, 1e-2]),
       flipped=st.booleans())
# a tilt of 1e-15 can leave the core exactly singular
@example(n=7, k=1, seed=148518, scale=1e-200, tilt=1e-15, defect=0.0, flipped=False)
def test_idempotency_certificate_implies_the_screen(n, k, seed, scale, tilt, defect, flipped):
    # x = L R or I - L R for L = c B_M and R = (N^perp* B_M)^-1 N^perp* / c,
    # the first column of N^perp tilted toward M^perp so that the core is
    # near singular; a relative defect in R makes x no idempotent.  A draw
    # whose core the LU finds singular has no R and is rejected
    k = min(k, n)
    rng = np.random.default_rng(seed)
    basis = Subspace.from_span(cgauss(rng, n, k)).basis
    perp = cgauss(rng, n, k)
    if k < n:
        inside = basis @ (adjoint(basis) @ perp[:, :1])
        perp[:, :1] = perp[:, :1] - inside + tilt * inside
    perp = np.linalg.qr(perp)[0]
    try:
        right = np.linalg.solve(adjoint(perp) @ basis, adjoint(perp))
    except np.linalg.LinAlgError:
        assume(False)
    right = right * (1.0 + defect * cgauss(rng, k, n))
    left, right = scale * basis, right / scale
    x = left @ right
    if flipped:
        x = np.eye(n) - x
    if _idempotent_within(x, left, right):
        assert fro(x @ x - x) <= _SCREEN * (fro(x) ** 2 + fro(x))
