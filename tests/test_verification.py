"""The one residual rule, ``ToleranceConfig.within``/``verify``, and the
raising side of the internal cross-checks that go through it.

A check passes when its residual is at most ``residual_atol`` times the
scale of its identity: the product of the Frobenius norms of the factors,
a difference X - Y counting as ||X|| + ||Y||.  That scale has the degree
of the residual, so no verdict moves when A and B are scaled together.
The source tests keep the rule whole (no floor, no hidden relative
tolerance, no constant in a scale), and the regression tests pin the
defects of the constant-plus-norm scales it replaced: checks that turned
vacuous on small operands, and a floor that failed on valid ones.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from minusord.exceptions import VerificationError
from minusord.generate import _complex_gaussian, minus_pair
from minusord.linalg import ToleranceConfig
from minusord.lsq import Weight, decoupled_lss, solve_system, wlss_solve
from minusord.orders import core_order, inner_inverse_witness, minus_order, sharp_order, star_order
from minusord.subspaces import Subspace
from minusord.sums import (agreeing_split, build_split, fill_fishkind_pinv, st_projections,
                           sum_reflexive_inverse, werner_decomposition)

from conftest import cgauss

SOURCES = Path(__file__).resolve().parent.parent / "src" / "minusord"


def test_within_and_verify():
    tol = ToleranceConfig(residual_atol=1e-3)
    assert tol.within(2e-3, 2.0)  # a residual equal to the bound passes
    assert not tol.within(2.5e-3, 2.0)
    tol.verify("unused", 2e-3, 2.0)
    with pytest.raises(VerificationError, match="^named check$"):
        tol.verify("named check", 2.5e-3, 2.0)


def test_verification_error_carries_its_numbers():
    tol = ToleranceConfig(residual_atol=1e-3)
    with pytest.raises(VerificationError) as info:
        tol.verify("named check", 2.5e-3, 2.0)
    err = info.value
    assert (err.check, err.residual, err.bound) == ("named check", 2.5e-3, 2e-3)
    assert str(err) == "named check"  # the message is the check's name alone


def test_residual_cutoff_read_in_one_place():
    # every residual check goes through ToleranceConfig.within/verify; only
    # the CLI (which sets the cutoff) and the JSON report (which prints it)
    # read the field besides linalg
    readers = {p.name for p in SOURCES.glob("*.py") if "residual_atol" in p.read_text()}
    assert "linalg.py" in readers
    assert readers <= {"cli.py", "linalg.py", "reporting.py"}


def test_rule_takes_residual_and_scale_only():
    assert list(inspect.signature(ToleranceConfig.within).parameters) == ["self", "residual", "scale"]
    assert list(inspect.signature(ToleranceConfig.verify).parameters) == [
        "self", "name", "residual", "scale"]


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SOURCES.glob("*.py"))}


def test_no_relative_tolerance_outside_linalg():
    defined = [(name, node.id) for name, tree in _trees().items() if name != "linalg.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
               and node.id.endswith("_RTOL")]
    assert defined == []


def _constant_term(expr) -> bool:
    """Whether ``expr`` adds a constant to, or multiplies one into, a term."""
    return any(isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
               and (isinstance(node.left, ast.Constant) or isinstance(node.right, ast.Constant))
               for node in ast.walk(expr))


def test_no_constant_in_a_residual_scale():
    # the scale of every check is a product of norms of the identity's
    # factors; a constant term would make it inhomogeneous, a constant
    # factor would be a hidden floor
    offenders = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("within", "verify")):
                args = node.args + [keyword.value for keyword in node.keywords]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "scale" for target in node.targets):
                args = [node.value]
            else:
                continue
            offenders += [(name, node.lineno) for arg in args if _constant_term(arg)]
    assert offenders == []


SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


@pytest.mark.parametrize("seed", range(10))
def test_small_unrelated_pairs_fail_star_sharp_core(seed):
    # with a constant in the scale, the degree-2 identities passed on any
    # pair small enough for the constant to dominate
    a, b = minus_pair(seed, 5, 5, 2, 2)
    bad = a + _complex_gaussian(np.random.default_rng(1000 + seed), 5, 5)
    for c in SCALES:
        assert not minus_order(c * a, c * bad).holds
        for order in (star_order, sharp_order, core_order):
            assert not order(c * a, c * bad).holds, (order.__name__, c)


@pytest.mark.parametrize("c", SCALES)
def test_fill_fishkind_passes_at_every_scale(c):
    # a floor relative to 1 + cond(A + B) ignored ||(A + B)+||, which
    # grows as 1/c, and failed this ordered pair at 1e-12
    a, b = minus_pair(3, 6, 5, 2, 2)
    got = fill_fishkind_pinv(c * a, c * b)
    direct = np.linalg.pinv(c * (a + b))
    assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct)


def _lopsided(ratio):
    # an ordered 9x9 pair of ranks 3 + 3 with ||A|| / ||B|| = ratio
    a, b = minus_pair(4, 9, 9, 3, 3)
    return a * (ratio * np.linalg.norm(b) / np.linalg.norm(a)), b


@pytest.mark.parametrize("ratio", [1e4, 1e6])
def test_lopsided_ordered_pairs_hold(ratio):
    # B - A is formed as fl(A + B) - A, whose rounding of about eps ||A||
    # lay above a cutoff relative to sigma_1(B - A) alone once ||A|| / ||B||
    # reached 1e4: rank(B - A) grew and the order failed
    a, b = _lopsided(ratio)
    assert minus_order(a, a + b).holds


def test_lopsided_ordered_pair_constructs():
    # at ||A|| / ||B|| = 1e4 the order check once failed on B - A read off
    # fl(A + B) - A, and every construction refused the pair; near 1e6 and
    # 1e-6 most draws then failed a check that read R(A) or R(B) off the
    # factor of A + B, which knows the smaller summand's subspaces only to
    # about eps ||A + B|| / sigma_min.  The checks read each subspace off
    # its summand's own factor, so every draw of 9x9 pairs of ranks 3 + 3
    # constructs with A scaled to 1e-6 ... 1e6 times ||B||
    for ratio in (1e-6, 1e-5, 1e-4, 1e4, 1e5, 1e6):
        for seed in range(30):
            a, b = minus_pair(seed, 9, 9, 3, 3)
            a = a * (ratio * np.linalg.norm(b) / np.linalg.norm(a))
            got = fill_fishkind_pinv(a, b)
            direct = np.linalg.pinv(a + b)
            assert np.linalg.norm(got - direct) <= 1e-8 * np.linalg.norm(direct), (ratio, seed)
            rng = np.random.default_rng(seed)
            decoupled_lss(a, b, cgauss(rng, 9, 1)[:, 0])
            # R(A + B) and N(A + B) have dimensions 6 and 3 in C^9
            sum_reflexive_inverse(a, b, Subspace.from_span(cgauss(rng, 9, 3)),
                                  Subspace.from_span(cgauss(rng, 9, 6)))


def test_small_weights_are_judged_like_large_ones():
    rng = np.random.default_rng(5)
    C, y = cgauss(rng, 4, 3), cgauss(rng, 4, 1)[:, 0]
    with pytest.raises(ValueError, match="not positive semidefinite"):
        wlss_solve(C, y, -1e-12 * np.eye(4))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1.0
    for c in SCALES:
        with pytest.raises(ValueError, match="not Hermitian"):
            Weight(c * skew).validate()
    Weight(1e-12 * np.eye(4)).validate()


def _complements(rng):
    # R(A + B) has dimension 4 in C^6 and N(A + B) dimension 1 in C^5
    return Subspace.from_span(cgauss(rng, 6, 2)), Subspace.from_span(cgauss(rng, 5, 4))


SPLIT_IDENTITY = "split witness failed A = P (A + B)"
CODOMAIN_IDENTITY = "codomain projection identity failed for the given complements"

CHECKS = {
    "build_split": (lambda a, b, rng, tol: build_split(a, b, tol), SPLIT_IDENTITY),
    "fill_fishkind_pinv": (lambda a, b, rng, tol: fill_fishkind_pinv(a, b, tol), SPLIT_IDENTITY),
    "decoupled_lss":
        (lambda a, b, rng, tol: decoupled_lss(a, b, cgauss(rng, 6, 1)[:, 0], tol), SPLIT_IDENTITY),
    "st_projections": (lambda a, b, rng, tol: st_projections(a, b, tol), "S is not idempotent"),
    "inner_inverse_witness":
        (lambda a, b, rng, tol: inner_inverse_witness(a, a + b, tol),
         "inner inverse failed A X A = A"),
    "sum_reflexive_inverse":
        (lambda a, b, rng, tol: sum_reflexive_inverse(a, b, *_complements(rng), tol),
         CODOMAIN_IDENTITY),
    "werner_decomposition":
        (lambda a, b, rng, tol: werner_decomposition(a, b, *_complements(rng), tol),
         CODOMAIN_IDENTITY),
    "agreeing_split":
        (lambda a, b, rng, tol: agreeing_split(a, b, *_complements(rng), tol), CODOMAIN_IDENTITY),
    "solve_system":
        (lambda a, b, rng, tol: solve_system(a, b, a @ cgauss(rng, 5, 1), b @ cgauss(rng, 5, 1), tol),
         "summed solution failed to solve the pieces"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_raise_at_zero_cutoff(name):
    call, message = CHECKS[name]
    a, b = minus_pair(3, 6, 5, 2, 2)
    call(a, b, np.random.default_rng(11), ToleranceConfig())  # the default cutoff passes
    with pytest.raises(VerificationError) as info:
        call(a, b, np.random.default_rng(11), ToleranceConfig(residual_atol=0.0))
    assert type(info.value) is VerificationError
    assert str(info.value) == message == info.value.check
    assert info.value.bound == 0.0 < info.value.residual
