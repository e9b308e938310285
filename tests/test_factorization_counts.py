"""SVD counts of the public calls, which are deterministic for fixed inputs.

Each matrix that enters a call is factored once, and a test that needs
only a dimension asks for singular values alone; these bounds catch a
change that factors an operand again, re-runs an order check inside a
construction, or computes singular vectors that nothing reads.  Each call
has two bounds: on all SVDs, and on those that compute singular vectors.
"""

import numpy as np
import pytest

from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair
from minusord.lsq import decoupled_lss
from minusord.orders import minus_order, star_order
from minusord.subspaces import Subspace
from minusord.sums import (build_split, fill_fishkind_pinv, ordered_inverse_additivity,
                           sum_reflexive_inverse, werner_decomposition)

A, B = minus_pair(3, 9, 9, 3, 3)
SA, SB = star_pair(3, 9, 9, 3, 3)
HA, HB = sharp_pair(3, 9, 3, 3)
CA, CB = core_pair(3, 9, 3, 3)
_rng = np.random.default_rng(5)
C = _rng.standard_normal(9) + 0j
# complements of R(A + B) and N(A + B), which have dimensions 6 and 3
M = Subspace.from_span(_rng.standard_normal((9, 3)) + 1j * _rng.standard_normal((9, 3)))
N = Subspace.from_span(_rng.standard_normal((9, 6)) + 1j * _rng.standard_normal((9, 6)))

# name: (call, bound on all SVDs, bound on SVDs with singular vectors)
CALLS = {
    "minus_order": (lambda: minus_order(A, A + B), 19, 10),
    "star_order": (lambda: star_order(SA, SA + SB), 12, 8),
    "build_split": (lambda: build_split(A, B), 28, 16),
    "fill_fishkind_pinv": (lambda: fill_fishkind_pinv(A, B), 28, 16),
    "decoupled_lss": (lambda: decoupled_lss(A, B, C), 29, 17),
    "additivity_moore_penrose":
        (lambda: ordered_inverse_additivity(SA, SB, "moore_penrose"), 13, 9),
    "additivity_group": (lambda: ordered_inverse_additivity(HA, HB, "group"), 16, 5),
    "additivity_core": (lambda: ordered_inverse_additivity(CA, CB, "core"), 19, 7),
    "sum_reflexive_inverse": (lambda: sum_reflexive_inverse(A, B, M, N), 42, 20),
    "werner_decomposition": (lambda: werner_decomposition(A, B, M, N), 42, 20),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_svd_count_bound(monkeypatch, name):
    call, bound, vectors_bound = CALLS[name]
    real = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    call()
    assert 0 < len(calls) <= bound
    assert sum(calls) <= vectors_bound
