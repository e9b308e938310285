import json
from fractions import Fraction

import numpy as np
import pytest

from minusord import _decimal
from minusord._decimal import CHUNK, POW_HIGH, POW_LOW
from minusord.orders import minus_order
from minusord.reporting import (
    canonical_json,
    matrix_payload,
    order_report_payload,
    tolerance_payload,
    vector_payload,
)
from minusord.linalg import ToleranceConfig

from conftest import cgauss, same_bits


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



# The array kernel against the per-float ``%.16e`` template.


def templated(arr):
    """``arr`` as nested [re, im] pairs, each float through ``'%.16e' % v``."""
    def text(x):
        return "[" + ",".join(map(text, x)) + "]" if isinstance(x, list) else "%.16e" % x
    pairs = np.ascontiguousarray(arr).reshape(-1).view(np.float64).reshape(arr.shape + (2,))
    return text(pairs.tolist())


def as_pairs(values):
    """A complex128 vector whose real parts are ``values`` and whose
    imaginary parts are ``values`` reversed."""
    values = np.asarray(values, dtype=np.float64)
    return values + 1j * values[::-1]


def adversarial_doubles():
    """Ties, decade edges, subnormals, signed zeros, the extremes and
    3-digit exponents, each with both signs."""
    # j 2^-e, e = 21 ... 25, holds all 321 doubles of 18 significant digits
    # ending in 5, whose 17th digit is an exact tie: 2^-25 and 3 2^-25 among them
    ties = [j * 2.0 ** -e for e in range(21, 26) for j in range(1, 400, 2)] + [3 * 2.0 ** -26]
    decades = []
    for p in range(-323, 309):
        v = float(f"1e{p}")
        decades += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    info = np.finfo(np.float64)
    extremes = [0.0, info.smallest_subnormal, 3 * info.smallest_subnormal, 1e-310,
                np.nextafter(info.smallest_normal, 0.0), info.smallest_normal, info.max,
                1e-100, 1e-99, 9.999999999999999e99, 1e100, 1.23456e200, 1e22, 1e23]
    values = np.array(ties + decades + extremes)
    return np.concatenate([values, -values])


def test_kernel_renders_adversarial_doubles_as_the_template():
    arr = as_pairs(adversarial_doubles())
    assert canonical_json(arr) == templated(arr) + "\n"


def test_kernel_renders_random_bit_patterns_as_the_template():
    values = np.random.default_rng(35).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    values = values.view(np.float64)[np.isfinite(values.view(np.float64))]
    arr = values[: values.size // 2 * 2].view(np.complex128)
    assert arr.size > 50_000
    assert canonical_json(arr) == templated(arr) + "\n"


@pytest.mark.parametrize("shape", [
    (), (0,), (0, 4), (3, 0), (1,), (1, 1), (2, 3, 4),
    (CHUNK // 2 - 1,), (CHUNK // 2,), (CHUNK // 2 + 1,),
    (CHUNK - 1,), (CHUNK,), (CHUNK + 1,),
    (CHUNK // 4, 2), (3, CHUNK // 6 + 1), (CHUNK + 1, 1)])
def test_kernel_renders_every_shape_as_the_template(shape, rng):
    arr = cgauss(rng, int(np.prod(shape)), 1).reshape(shape)
    arr.real[arr.real > 1.0] = 0.0
    arr.imag[arr.imag < -1.0] = -0.0
    assert canonical_json({"m": arr, "z": 1}) == '{"m":' + templated(arr) + ',"z":1}\n'


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [3, CHUNK + 5, -1])
def test_kernel_rejects_non_finite_in_any_chunk(bad, where):
    arr = np.ones(5 * CHUNK // 4, dtype=np.complex128)
    arr.view(np.float64)[where] = bad
    with pytest.raises(ValueError, match="non-finite value in report payload"):
        canonical_json(arr)


def test_kernel_and_template_paths_give_the_same_bytes(monkeypatch, rng):
    scales = 10.0 ** rng.integers(-30, 30, size=(150, 150))
    witness = matrix_payload(scales * cgauss(rng, 150, 150))
    witness[::7] = witness[::7].real
    kernel = canonical_json({"witness": witness})
    monkeypatch.setattr(_decimal, "exact", lambda: False)
    assert canonical_json({"witness": witness}) == kernel
    assert kernel == '{"witness":' + templated(witness) + "}\n"


@pytest.mark.skipif(not _decimal.exact(),
                    reason="long double has fewer than 63 fraction bits")
def test_power_table_is_correctly_rounded():
    powers = _decimal.tables()[0]
    assert len(powers) == POW_HIGH - POW_LOW + 1
    for p, power in zip(range(POW_LOW, POW_HIGH + 1), powers):
        error = abs(Fraction(*power.as_integer_ratio()) - Fraction(10) ** p)
        for neighbour in (np.nextafter(power, 2 * power), np.nextafter(power, power / 2)):
            assert error < abs(Fraction(*neighbour.as_integer_ratio()) - Fraction(10) ** p), p
