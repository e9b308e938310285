import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minusord import _decimal, mmio
from minusord.mmio import (
    _format_pairs,
    format_matrix,
    parse_matrix,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from minusord.reporting import canonical_json, matrix_payload

from conftest import cgauss
from test_io_oracle import ref_format_matrix


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


def test_failed_write_keeps_the_target(tmp_path):
    # the matrix is formatted before the file is opened, so a matrix the
    # writer rejects leaves an existing file as it was and makes no new one
    existing = tmp_path / "a.mtx"
    write_matrix(existing, np.eye(2))
    before = existing.read_bytes()
    for bad in ([[np.nan]], [[1.0, np.inf]], np.zeros((0, 3)), np.ones(3)):
        with pytest.raises(ValueError):
            write_matrix(existing, bad)
        assert existing.read_bytes() == before
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "new.mtx", bad)
        assert not (tmp_path / "new.mtx").exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_format_rejects_an_empty_matrix_as_the_parser_does(shape, tmp_path):
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        format_matrix(np.zeros(shape))
    m, n = shape
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        parse_matrix(f"{_COMPLEX}{m} {n}\n")
    with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
        write_vector(tmp_path / "v.mtx", [])
    assert not (tmp_path / "v.mtx").exists()


# The shortest-repr kernel against ``repr``, one float at a time.


def ref_pairs(values, prefix=""):
    """``prefix + "re im"`` lines of ``values``, each part through ``repr``."""
    flat = np.asarray(values, dtype=np.complex128).reshape(-1)
    return "".join(f"{prefix}{z.real!r} {z.imag!r}\n" for z in flat.tolist())


def as_pairs(values):
    """A complex128 vector whose real parts are ``values`` and whose
    imaginary parts are ``values`` reversed."""
    values = np.asarray(values, dtype=np.float64)
    return np.stack([values, values[::-1]], axis=-1).view(np.complex128).ravel()


def near_decimals(digits, count, seed):
    """The doubles on both sides of the midpoints between consecutive
    doubles, rounded to ``digits`` significant digits: a candidate of that
    length lies about half an ulp from each, at the edge of its interval."""
    rng = np.random.default_rng(seed)
    out = []
    for x in np.exp(rng.uniform(-700, 700, count)).tolist():
        above = float(np.nextafter(x, np.inf))
        mid = (Fraction(x) + Fraction(above)) / 2
        near = float(f"{float(mid):.{digits - 1}e}")
        out += [np.nextafter(near, 0.0), near, np.nextafter(near, np.inf), x, above]
    return out


def halfway(digits, count, seed):
    """Doubles nearest to decimals of ``digits`` + 1 significant digits
    ending in 5: ties of the rounding to ``digits`` digits, up to the
    double's own rounding."""
    rng = np.random.default_rng(seed)
    leads = rng.integers(10 ** (digits - 1), 10 ** digits, count)
    exponents = rng.integers(-300, 290, count)
    values = [float(f"{lead}5e{e}") for lead, e in zip(leads.tolist(), exponents.tolist())]
    return [v for x in values for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


def adversarial_doubles():
    """Powers of two and of ten with their neighbours, ties of 15, 16 and 17
    digits, candidates at the interval's edge, the positional and exponent
    boundaries, subnormals, signed zeros, the extremes and integers, each
    with both signs."""
    info = np.finfo(np.float64)
    twos = [2.0 ** e for e in range(-1074, 1024)]
    tens = []
    for p in range(-323, 309):
        v = float(f"1e{p}")
        tens += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    # j 2^-e, e = 21 ... 25, holds the doubles whose 17th digit is an exact tie
    ties = [j * 2.0 ** -e for e in range(21, 26) for j in range(1, 400, 2)]
    boundaries = []
    for v in (1e16, 1e15, 1e-4, 1e-5, 9999999999999998.0, 0.0001, 0.00009999999999999999,
              123456789012345.6, 1234567890123456.8, 0.00012345678901234567):
        boundaries += [v, *np.nextafter(v, [0.0, np.inf]), np.nextafter(np.nextafter(v, 0.0), 0.0)]
    extremes = [0.0, info.smallest_subnormal, 3 * info.smallest_subnormal, 1e-310,
                np.nextafter(info.smallest_normal, 0.0), info.smallest_normal,
                np.nextafter(info.smallest_normal, 1.0), info.max, np.nextafter(info.max, 0.0)]
    integers = ([float(i) for i in range(0, 1000)] + [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2]
                + [float(10 ** p + d) for p in range(13, 18) for d in (-1, 1, 7, 10 ** (p - 2))])
    values = np.array(twos + tens + ties + boundaries + extremes + integers
                      + halfway(14, 300, 1) + halfway(15, 300, 2) + halfway(16, 300, 3)
                      + near_decimals(15, 300, 4) + near_decimals(16, 300, 5)
                      + near_decimals(17, 300, 6))
    return np.concatenate([values, -values])


def test_kernel_writes_adversarial_doubles_as_repr():
    pairs = as_pairs(adversarial_doubles())
    assert _format_pairs(pairs) == ref_pairs(pairs)
    assert format_matrix(pairs[:, None]) == ref_format_matrix(pairs[:, None])


def test_kernel_writes_random_bit_patterns_as_repr():
    values = np.random.default_rng(39).integers(0, 2 ** 64, size=240_000, dtype=np.uint64)
    values = values.view(np.float64)[np.isfinite(values.view(np.float64))]
    matrix = values[: values.size // 400 * 400].view(np.complex128).reshape(-1, 200)
    assert matrix.size * 2 >= 100_000
    assert format_matrix(matrix) == ref_format_matrix(matrix)


@pytest.mark.parametrize("scale", [10.0 ** p for p in range(-12, 13)])
def test_kernel_writes_every_scale_as_repr(scale, rng):
    matrix = scale * cgauss(rng, 30, 20)
    matrix[::3, ::2] = np.round(matrix[::3, ::2].real)
    assert format_matrix(matrix) == ref_format_matrix(matrix)


@pytest.mark.parametrize("size", [1, _decimal.CHUNK // 2 - 1, _decimal.CHUNK // 2,
                                  _decimal.CHUNK // 2 + 1, _decimal.CHUNK + 3])
@pytest.mark.parametrize("prefix", ["", "  ", "\t> "])
def test_kernel_writes_prefixed_lines_as_repr(size, prefix, rng):
    values = cgauss(rng, size, 1).ravel()
    values[::5] = 0.0
    values[1::7] = -0.0
    values[2::11] = np.inf
    values[3::13] = complex(np.nan, -np.inf)
    assert _format_pairs(values, prefix) == ref_pairs(values, prefix)


def test_kernel_sends_few_floats_to_the_template(monkeypatch, rng):
    # the template is the fallback of a few floats, not the writer
    written = []

    def counting(value):
        written.append(value)
        return repr(value)

    monkeypatch.setattr(mmio, "repr", counting, raising=False)
    matrix = cgauss(rng, 150, 120)
    assert format_matrix(matrix) == ref_format_matrix(matrix)
    assert len(written) < 0.04 * 2 * matrix.size


def test_kernel_and_template_paths_write_the_same_bytes(monkeypatch, rng):
    # where long double is too short, every float takes its template: the
    # Matrix Market text and the canonical JSON keep their bytes
    scales = 10.0 ** rng.integers(-30, 30, size=(120, 90))
    matrix = scales * cgauss(rng, 120, 90)
    matrix[::7] = matrix[::7].real
    payload = {"m": matrix_payload(matrix)}
    kernel_text, kernel_json = format_matrix(matrix), canonical_json(payload)
    monkeypatch.setattr(_decimal, "exact", lambda: False)
    assert format_matrix(matrix) == kernel_text == ref_format_matrix(matrix)
    assert canonical_json(payload) == kernel_json


def test_writer_takes_the_template_where_repr_is_not_the_shortest(monkeypatch):
    written = []

    def counting(values):
        written.append(values)
        return b""

    monkeypatch.setattr(mmio, "_shortest", counting)
    monkeypatch.setattr(sys, "float_repr_style", "legacy")
    assert _format_pairs([0.1 + 2j]) == "0.1 2.0\n"
    assert written == []
