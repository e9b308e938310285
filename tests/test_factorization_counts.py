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
joined bases while the total stays flat.
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

# name: (call, bound on all SVDs, on SVDs with singular vectors, on n-sized SVDs)
CALLS = {
    "minus_order": (lambda: minus_order(A, A + B), 12, 3, 4),
    "star_order": (lambda: star_order(SA, SA + SB), 7, 3, 3),
    "build_split": (lambda: build_split(A, B), 15, 5, 6),
    "fill_fishkind_pinv": (lambda: fill_fishkind_pinv(A, B), 15, 5, 6),
    "decoupled_lss": (lambda: decoupled_lss(A, B, C), 16, 6, 7),
    "additivity_moore_penrose":
        (lambda: ordered_inverse_additivity(SA, SB, "moore_penrose"), 8, 4, 4),
    "additivity_group": (lambda: ordered_inverse_additivity(HA, HB, "group"), 15, 4, 7),
    "additivity_core": (lambda: ordered_inverse_additivity(CA, CB, "core"), 16, 4, 8),
    "sum_reflexive_inverse": (lambda: sum_reflexive_inverse(A, B, M, N), 22, 7, 4),
    "werner_decomposition": (lambda: werner_decomposition(A, B, M, N), 22, 7, 4),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_svd_count_bound(monkeypatch, name):
    call, bound, vectors_bound, sized_bound = CALLS[name]
    real = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append((kwargs.get("compute_uv", True), max(np.shape(a)) >= 9))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    call()
    assert 0 < len(calls) <= bound
    assert sum(vectors for vectors, _ in calls) <= vectors_bound
    assert sum(sized for _, sized in calls) <= sized_bound
