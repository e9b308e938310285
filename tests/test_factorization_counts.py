"""SVD counts of the public calls, which are deterministic for fixed inputs.

Each matrix that enters a call is factored once; these bounds catch a
change that factors an operand again or re-runs an order check inside a
construction.
"""

import numpy as np
import pytest

from minusord.generate import minus_pair, star_pair
from minusord.lsq import decoupled_lss
from minusord.orders import minus_order, star_order
from minusord.sums import build_split, fill_fishkind_pinv

A, B = minus_pair(3, 9, 9, 3, 3)
SA, SB = star_pair(3, 9, 9, 3, 3)
C = np.random.default_rng(5).standard_normal(9) + 0j

CALLS = {
    "minus_order": (lambda: minus_order(A, A + B), 24),
    "star_order": (lambda: star_order(SA, SA + SB), 16),
    "build_split": (lambda: build_split(A, B), 36),
    "fill_fishkind_pinv": (lambda: fill_fishkind_pinv(A, B), 36),
    "decoupled_lss": (lambda: decoupled_lss(A, B, C), 37),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_svd_count_bound(monkeypatch, name):
    call, bound = CALLS[name]
    real = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    call()
    assert 0 < len(calls) <= bound
