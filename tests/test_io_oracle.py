"""The Matrix Market and canonical JSON layers against per-entry references.

The reference functions below render and read one entry at a time, the
plainest statement of the canonical forms.  The package does the same work
with a few whole-array operations; these tests hold it to the same bytes,
the same bits (signed zeros included) and the same errors.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minusord.cli import main
from minusord.lsq import decoupled_lss
from minusord.mmio import format_matrix, parse_matrix, read_matrix, read_vector, write_matrix
from minusord.reporting import canonical_json, matrix_payload, vector_payload

from conftest import same_bits

_HEADER = "%%MatrixMarket matrix array complex general"


def ref_format_matrix(A):
    A = np.asarray(A, dtype=np.complex128)
    m, n = A.shape
    lines = [_HEADER, f"{m} {n}"]
    for j in range(n):
        for i in range(m):
            z = complex(A[i, j])
            lines.append(f"{z.real!r} {z.imag!r}")
    return "\n".join(lines) + "\n"


def ref_parse_matrix(text):
    lines = iter(text.splitlines())
    try:
        header = next(lines)
    except StopIteration:
        raise ValueError("empty Matrix Market input") from None
    tokens = header.split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ValueError("malformed Matrix Market header")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix" or fmt != "array":
        raise ValueError("only dense matrix array files are supported")
    if field not in ("real", "complex", "integer"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry != "general":
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    body = (line for line in lines if line.strip() and not line.lstrip().startswith("%"))
    try:
        size_tokens = next(body).split()
    except StopIteration:
        raise ValueError("missing size line") from None
    if len(size_tokens) != 2:
        raise ValueError("malformed size line")
    m, n = (int(t) for t in size_tokens)
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    values = np.zeros(m * n, dtype=np.complex128)
    count = 0
    for line in body:
        if count >= m * n:
            raise ValueError("too many entries")
        parts = line.split()
        if field == "complex":
            if len(parts) != 2:
                raise ValueError(f"expected 're im' on line: {line!r}")
            values[count] = complex(float(parts[0]), float(parts[1]))
        else:
            if len(parts) != 1:
                raise ValueError(f"expected one value on line: {line!r}")
            values[count] = float(parts[0])
        count += 1
    if count != m * n:
        raise ValueError(f"expected {m * n} entries, found {count}")
    return values.reshape((n, m)).T.copy()


def ref_float_repr(x):
    if not math.isfinite(x):
        raise ValueError("non-finite value in report payload")
    return format(float(x), ".16e")


def ref_render(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return ref_float_repr(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{ref_float_repr(obj.real)},{ref_float_repr(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if any(not isinstance(k, str) for k, _ in items):
            raise TypeError("report keys must be strings")
        return "{" + ",".join(f"{json.dumps(k)}:{ref_render(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(ref_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def ref_matrix_payload(A):
    arr = np.asarray(A, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def ref_vector_payload(v):
    arr = np.asarray(v, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in arr]


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
         1e300, -1e300, 1.7976931348623157e308, 1.0, -1.0, 3.0, -42.0, 2.0 ** 53, 1e16, 0.1]
values = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def matrices(draw, max_side=6):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    flat = draw(st.lists(values, min_size=2 * m * n, max_size=2 * m * n))
    return np.array(flat, dtype=np.float64).view(np.complex128).reshape(m, n)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_format_and_parse_match_reference(a):
    text = format_matrix(a)
    assert text == ref_format_matrix(a)
    back, ref_back = parse_matrix(text), ref_parse_matrix(text)
    assert same_bits(back, ref_back)
    assert same_bits(back, a)
    assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(a.view(np.float64)))
    # a real file of the real parts widens to complex with +0.0 imaginary parts
    m, n = a.shape
    real = (f"%%MatrixMarket matrix array real general\n{m} {n}\n"
            + "".join(f"{x!r}\n" for x in a.real.T.ravel().tolist()))
    assert same_bits(parse_matrix(real), ref_parse_matrix(real))


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_payloads_and_json_match_reference(a):
    # the payloads are the inputs' complex128 arrays, signed zeros included
    pay, ref_pay = matrix_payload(a), ref_matrix_payload(a)
    assert same_bits(pay, a)
    vec, ref_vec = vector_payload(a[:, 0]), ref_vector_payload(a[:, 0])
    assert same_bits(vec, np.ascontiguousarray(a[:, 0]))
    z = complex(a[0, 0])

    def report(matrix, vector):
        return {
            "m": matrix, "v": vector, "t": matrix[:1], "i": 3, "neg": -7, "b": True,
            "f": False, "n": None, "z": z, "s": "text", "empty": [], "nested_empty": [[]],
            "int_tail": [1.0, 2], "bool_head": [True, 1.0], "tuple": (1.0, -0.0),
            "np": [np.float64(z.real), np.int64(2), np.bool_(True)],
            "ragged": [[1.0], [2.0, 3.0]], "rows": [[z.real, z.imag], [None, 1.5]],
        }

    assert canonical_json(report(pay, vec)) == ref_render(report(ref_pay, ref_vec)) + "\n"


@st.composite
def matrix_market_texts(draw):
    """Small files, well formed or not, with free whitespace and comments."""
    field = draw(st.sampled_from(["real", "complex", "integer"]))
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    # "1_0" and "\u0661" (an Arabic-Indic one) are read by float but not by numpy
    token = st.one_of(st.sampled_from(["1", "-0.0", "2.5e-3", "x", "1e999", "nan", "-nan",
                                       "-inf", "1_0", "\u0661", "\ufeff1", '"1"', "0x1p3"]),
                      st.floats(width=64).map(repr))
    entry = st.lists(token, min_size=0, max_size=3).flatmap(
        lambda parts: space.map(lambda sp: sp.join(parts)))
    noise = st.sampled_from(["", "   ", "% comment", "  %indented", "1 % inline note"])
    line = st.one_of(entry, entry, entry, noise)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = draw(st.sampled_from([f"{m} {n}", f"{m}\t{n}", f" {m} {n} ", f"{m}", "0 1"]))
    lines = draw(st.lists(line, min_size=0, max_size=2 * m * n + 2))
    return "\n".join([f"%%MatrixMarket matrix array {field} general", size] + lines) + "\n"


@given(matrix_market_texts())
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_any_text(text):
    got, ref = outcome(parse_matrix, text), outcome(ref_parse_matrix, text)
    if ref[0] == "ok":
        assert got[0] == "ok"
        assert same_bits(got[1], ref[1])
    else:
        assert got == ref


#: The entries of a 2x2 file in each field; a body names them by index.
_ENTRIES = {"complex": ["1.5 -0.0", "2 3", "-4e-3 5", "6 7", "8 9"],
            "real": ["1.5", "-0.0", "-4e-3", "6", "8"]}


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("body, error", [
    ([0, 1, "", 2, 3], None),
    (["  \t", 0, 1, 2, 3, "", " "], None),
    ([0, "% a comment", 1, 2, 3], None),
    ([0, 1, 2, "   %indented", 3, "%"], None),
    ([0, 1, 2], "expected 4 entries, found 3"),
    ([0, 1, 2, "", "% note"], "expected 4 entries, found 3"),
    ([0, 1, 2, 3, 4], "too many entries"),
    ([0, 1, 2, 3, "% note", 4, ""], "too many entries"),
    ([0, 1, 2, "6 % inline note"], "on line"),
])
def test_parse_body_lines_and_entry_counts(field, body, error):
    # blank and comment lines inside the body of a 2x2 file, and m*n - 1 or
    # m*n + 1 entries
    lines = [_ENTRIES[field][k] if isinstance(k, int) else k for k in body]
    text = "\n".join([f"%%MatrixMarket matrix array {field} general", "% header note",
                      "", "2 2"] + lines) + "\n"
    got, ref = outcome(parse_matrix, text), outcome(ref_parse_matrix, text)
    if error is None:
        assert got[0] == ref[0] == "ok"
        assert same_bits(got[1], ref[1])
    else:
        assert got == ref
        assert got[0] is ValueError and error in got[1]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_canonical_json_rejects_non_finite_in_large_matrix(bad):
    x = np.ones((40, 40), dtype=np.complex128)
    x[-1, -1] = bad
    with pytest.raises(ValueError, match="non-finite value in report payload"):
        canonical_json({"m": matrix_payload(x)})
    x[-1, -1] = complex(1.0, bad)
    with pytest.raises(ValueError, match="non-finite value in report payload"):
        canonical_json({"m": matrix_payload(x)})


def test_lsq_text_output_matches_reference_lines(tmp_path, capsys):
    prefix = str(tmp_path / "p_")
    assert main(["gen", "minus", "--dims", "6x5", "--ranks", "2,2",
                 "--seed", "7", "--out-prefix", prefix]) == 0
    fa, fb = prefix + "A.mtx", prefix + "B.mtx"
    fc = str(tmp_path / "c.mtx")
    write_matrix(fc, np.random.default_rng(0).standard_normal((6, 1)).astype(complex))
    capsys.readouterr()
    assert main(["lsq", fa, fb, fc]) == 0
    out = capsys.readouterr().out
    result = decoupled_lss(read_matrix(fa), read_matrix(fb), read_vector(fc))
    lines = ["x_joint:"]
    lines += [f"  {z.real!r} {z.imag!r}" for z in map(complex, result.x_joint)]
    lines.append("x_system:")
    lines += [f"  {z.real!r} {z.imag!r}" for z in map(complex, result.x_system)]
    lines += [f"residual {k}: {v:.3e}" for k, v in sorted(result.residuals.items())]
    assert out == "\n".join(lines) + "\n"
