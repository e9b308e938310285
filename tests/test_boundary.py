"""Operands are validated once, at the public entry point.

Each public call coerces its operands to finite complex128 arrays before
anything else runs; the arrays the package derives from them (factors,
bases cut from a factor, products and joins of such bases) are not
validated again.  These tests pin the boundary: a NaN or an infinity in
the real or the imaginary part of any operand of any public entry point
raises ``ValueError`` naming the non-finite entries.
"""

import numpy as np
import pytest

from minusord.additivity import (disjoint_range_additivity, is_range_additive,
                                 kernel_characterization)
from minusord.generate import minus_pair
from minusord.geninv import group_inverse, pinv
from minusord.lsq import decoupled_lss
from minusord.orders import ORDER_NAMES, inner_inverse_witness, order_predicate
from minusord.subspaces import Factored, Projection, Subspace
from minusord.sums import build_split, fill_fishkind_pinv, sum_reflexive_inverse

A, B = minus_pair(7, 4, 4, 1, 2)
_rng = np.random.default_rng(11)
# complements of R(A + B) and N(A + B), which have dimension 3
M = Subspace.from_span(_rng.standard_normal((4, 1)) + 0j)
N = Subspace.from_span(_rng.standard_normal((4, 3)) + 0j)
C = np.arange(4) + 1j
E1 = Subspace(np.eye(4, dtype=complex)[:, :1])
E1_PERP = Subspace(np.eye(4, dtype=complex)[:, 1:])

# name: (call, its operands); each operand in turn is made non-finite
ENTRY_POINTS = {
    **{order: (order_predicate(order), (A, A + B)) for order in ORDER_NAMES},
    "is_range_additive": (is_range_additive, (A, B)),
    "disjoint_range_additivity": (disjoint_range_additivity, (A, B)),
    "kernel_characterization": (kernel_characterization, (A, B)),
    "build_split": (build_split, (A, B)),
    "fill_fishkind_pinv": (fill_fishkind_pinv, (A, B)),
    "decoupled_lss": (decoupled_lss, (A, B, C)),
    "sum_reflexive_inverse": (lambda a, b: sum_reflexive_inverse(a, b, M, N), (A, B)),
    "inner_inverse_witness": (inner_inverse_witness, (A, A + B)),
    "pinv": (pinv, (A,)),
    "group_inverse": (group_inverse, (A,)),
    "Subspace": (Subspace, (E1.basis,)),
    "Subspace.contains_vector": (E1.contains_vector, (np.ones(4),)),
    "Factored.of": (Factored.of, (A,)),
    "Projection": (lambda p: Projection(p, E1, E1_PERP), (E1.projector(),)),
}

NON_FINITE = {"real-nan": np.nan, "real-inf": np.inf, "imag-nan": complex(0.0, np.nan),
              "imag-inf": complex(0.0, -np.inf)}

CASES = [(name, position, bad) for name, (_, operands) in sorted(ENTRY_POINTS.items())
         for position in range(len(operands)) for bad in NON_FINITE]


def test_entry_points_accept_the_finite_operands():
    for name, (call, operands) in ENTRY_POINTS.items():
        call(*operands)


@pytest.mark.parametrize("name, position, bad", CASES)
def test_non_finite_operand_rejected(name, position, bad):
    call, operands = ENTRY_POINTS[name]
    poisoned = [np.array(x, dtype=np.complex128) for x in operands]
    poisoned[position][(0,) * poisoned[position].ndim] = NON_FINITE[bad]
    with pytest.raises(ValueError, match="contains non-finite entries"):
        call(*poisoned)


def test_factored_views_are_cached_slices():
    f = Factored.of(A)
    for view, factor in ((f.range, f.u), (f.corange, f.v), (f.null, f.v), (f.conull, f.u)):
        assert np.shares_memory(view.basis, factor)
    assert f.range is f.range
    assert f.null is f.null


def test_adjoint_factor_views_are_the_swapped_ones():
    f = Factored.of(A + B)
    g = f.adjoint()
    for mine, theirs in ((g.range, f.corange), (g.corange, f.range),
                         (g.null, f.conull), (g.conull, f.null)):
        assert np.array_equal(mine.basis, theirs.basis)
