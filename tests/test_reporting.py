import json

import numpy as np
import pytest

from minusord.orders import minus_order
from minusord.reporting import (
    canonical_json,
    matrix_payload,
    order_report_payload,
    tolerance_payload,
    vector_payload,
)
from minusord.linalg import ToleranceConfig

from conftest import same_bits


def test_keys_sorted_and_stable():
    out = canonical_json({"zebra": 1, "alpha": 2})
    assert out == '{"alpha":2,"zebra":1}\n'
    assert canonical_json({"alpha": 2, "zebra": 1}) == out


def test_float_format_fixed_width():
    assert canonical_json(0.1) == "1.0000000000000001e-01\n"
    assert canonical_json(1.0) == "1.0000000000000000e+00\n"
    # value survives a parse exactly
    assert json.loads(canonical_json(0.1)) == 0.1


def test_complex_becomes_pair():
    assert canonical_json(1 + 2j) == "[1.0000000000000000e+00,2.0000000000000000e+00]\n"


def test_bool_and_none():
    assert canonical_json({"a": True, "b": None}) == '{"a":true,"b":null}\n'
    assert canonical_json(np.bool_(False)) == "false\n"


def test_rejects_nan_and_unknown_types():
    with pytest.raises(ValueError):
        canonical_json(float("nan"))
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


def test_matrix_and_vector_payloads():
    mat = np.array([[1.0 + 1.0j, -0.0], [0.0, 2.0]])
    pay = matrix_payload(mat)
    assert same_bits(pay, mat)
    assert canonical_json(pay) == canonical_json([[[1.0, 1.0], [-0.0, 0.0]],
                                                  [[0.0, 0.0], [2.0, 0.0]]])
    vec = vector_payload(np.array([[3.0], [4.0j]]))
    assert same_bits(vec, np.array([3.0, 4.0j]))
    assert canonical_json(vec) == canonical_json([[3.0, 0.0], [0.0, 4.0]])


def test_order_report_payload_roundtrips_json():
    rep = minus_order(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]))
    pay = order_report_payload(rep)
    assert pay["order"] == "minus"
    assert pay["holds"] is True
    assert pay["rank_data"] == {"rank_A": 1, "rank_B": 2, "rank_B_minus_A": 1}
    # witness is a 2x2 matrix rendered as [re, im] pairs
    assert len(pay["witness_P"]) == 2 and len(pay["witness_P"][0]) == 2
    # entire payload serializes and parses back
    parsed = json.loads(canonical_json(pay))
    assert parsed["verdicts"]["ranges"] is True


def test_tolerance_payload():
    pay = tolerance_payload(ToleranceConfig(rank_rtol=1e-9))
    assert json.loads(canonical_json(pay))["rank_rtol"] == 1e-9
    default = tolerance_payload(ToleranceConfig())
    assert default["rank_rtol"] is None
