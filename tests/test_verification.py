"""The one residual rule, ``ToleranceConfig.within``/``verify``, and the
raising side of the internal cross-checks that go through it."""

from pathlib import Path

import numpy as np
import pytest

from minusord.exceptions import VerificationError
from minusord.generate import minus_pair
from minusord.linalg import ToleranceConfig
from minusord.lsq import decoupled_lss, solve_system
from minusord.orders import inner_inverse_witness
from minusord.subspaces import Subspace
from minusord.sums import (agreeing_split, build_split, fill_fishkind_pinv, st_projections,
                           sum_reflexive_inverse, werner_decomposition)

from conftest import cgauss

SOURCES = Path(__file__).resolve().parent.parent / "src" / "minusord"


def test_within_and_verify():
    tol = ToleranceConfig(residual_atol=1e-3)
    assert tol.within(2e-3, 2.0)  # a residual equal to the bound passes
    assert not tol.within(2.5e-3, 2.0)
    assert tol.within(2.5e-3, 2.0, floor=1e-2)
    assert not tol.within(2.5e-3, 2.0, floor=1e-4)  # a floor below the cutoff changes nothing
    tol.verify("unused", 2e-3, 2.0)
    with pytest.raises(VerificationError, match="^named check$"):
        tol.verify("named check", 2.5e-3, 2.0)
    tol.verify("unused", 2.5e-3, 2.0, floor=1e-2)


def test_residual_cutoff_read_in_one_place():
    # every residual check goes through ToleranceConfig.within/verify; only
    # the CLI (which sets the cutoff) and the JSON report (which prints it)
    # read the field besides linalg
    readers = {p.name for p in SOURCES.glob("*.py") if "residual_atol" in p.read_text()}
    assert "linalg.py" in readers
    assert readers <= {"cli.py", "linalg.py", "reporting.py"}


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
    assert str(info.value) == message
