import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minusord.mmio import (
    format_matrix,
    parse_matrix,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)


def test_format_header_and_layout():
    text = format_matrix(np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex))
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix array complex general"
    assert lines[1] == "2 2"
    # column-major entry order
    assert [float(l.split()[0]) for l in lines[2:]] == [1.0, 2.0, 3.0, 4.0]
    assert text.endswith("\n")


def test_parse_complex_roundtrip(rng):
    a = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    assert np.array_equal(parse_matrix(format_matrix(a)), a)


def test_roundtrip_is_byte_exact(rng):
    a = rng.standard_normal((5, 2)) * np.exp(rng.standard_normal((5, 2)) * 40)
    text = format_matrix(a.astype(complex))
    assert format_matrix(parse_matrix(text)) == text


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_roundtrip_hypothesis(entries):
    a = np.array([complex(re, im) for re, im in entries]).reshape(-1, 1)
    text = format_matrix(a)
    back = parse_matrix(text)
    assert np.array_equal(back, a)
    assert format_matrix(back) == text


def test_parse_real_and_integer_widen():
    real = "%%MatrixMarket matrix array real general\n2 1\n1.5\n-2\n"
    a = parse_matrix(real)
    assert a.dtype == np.complex128
    assert np.array_equal(a, np.array([[1.5], [-2.0]]))
    integer = "%%MatrixMarket matrix array integer general\n1 1\n7\n"
    assert parse_matrix(integer)[0, 0] == 7


def test_parse_skips_comments():
    text = ("%%MatrixMarket matrix array real general\n"
            "% produced by hand\n"
            "%           \n"
            "2 1\n"
            "1\n"
            "2\n")
    assert np.array_equal(parse_matrix(text), np.array([[1.0], [2.0]]))


_REAL = "%%MatrixMarket matrix array real general\n"
_COMPLEX = "%%MatrixMarket matrix array complex general\n"


# malformed input and the exact message it raises
_MALFORMED = {
    "": "empty Matrix Market input",
    "%%MatrixMarket matrix coordinate real general\n1 1\n1 1 1\n":
        "only dense matrix array files are supported",
    "%%MatrixMarket matrix array real symmetric\n1 1\n1\n": "unsupported symmetry 'symmetric'",
    _REAL + "2 1\n1\n": "expected 2 entries, found 1",                     # missing entry
    _REAL + "1 1\n1\n2\n": "too many entries",                             # extra entry
    _COMPLEX + "1 1\n1\n": "expected 're im' on line: '1'",                  # lone component
    "%%MatrixMarket tensor array real general\n1 1\n1\n":
        "only dense matrix array files are supported",
    _REAL + "1 1\n1\nnot a number\n": "too many entries",                  # extra, malformed
    # the token total balances, but each line must hold one pair
    _COMPLEX + "2 1\n1\n2 3 4\n": "expected 're im' on line: '1'",
    _COMPLEX + "2 1\n2 3 4\n1\n": "expected 're im' on line: '2 3 4'",
    _REAL + "2 1\n1 2\n": "expected one value on line: '1 2'",
    _REAL + "2 1\n1\nabc\n": "could not convert string to float: 'abc'",
    # a bad value is reported before a malformed line after it
    _COMPLEX + "2 1\n1 x\n1\n": "could not convert string to float: 'x'",
    _COMPLEX + "2 1\n1\n1 x\n": "expected 're im' on line: '1'",
    # comments take whole lines only
    _REAL + "1 1\n1.5 % note\n": "expected one value on line: '1.5 % note'",
    _COMPLEX + "1 1\n 1 2\t% note\n": "expected 're im' on line: ' 1 2\\t% note'",
}


@pytest.mark.parametrize("bad", list(_MALFORMED))
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError, match=f"^{re.escape(_MALFORMED[bad])}$"):
        parse_matrix(bad)


def test_parse_skips_blank_and_comment_lines_between_entries():
    text = (_COMPLEX + "2 2\n"
            "1 -0.0\n"
            "\n"
            "% a comment\n"
            "   \t\n"
            "\t2  3\n"
            "  %indented comment\n"
            "4 5\n"
            "6 7   \n")
    a = parse_matrix(text)
    assert np.array_equal(a, np.array([[1, 4 + 5j], [2 + 3j, 6 + 7j]]))
    assert np.signbit(a[0, 0].imag)


def test_parse_reads_every_form_float_reads():
    a = parse_matrix(_COMPLEX + "2 1\n1_000 -nan\n\u0661 -0.0\n")
    assert a[0, 0].real == 1000.0 and np.isnan(a[0, 0].imag)
    assert a[1, 0] == 1.0
    assert np.signbit(a[0, 0].imag) and np.signbit(a[1, 0].imag)


def test_file_roundtrip(tmp_path, rng):
    a = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    path = tmp_path / "a.mtx"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)
    # writing what was read reproduces the file byte for byte
    twice = tmp_path / "b.mtx"
    write_matrix(twice, read_matrix(path))
    assert path.read_bytes() == twice.read_bytes()


def test_vector_io(tmp_path, rng):
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        read_vector(path)
