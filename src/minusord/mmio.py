"""Matrix Market array-format I/O.

The canonical form written here is the dense array format with a complex
general header, entries in column-major order, one "re im" pair per line,
each part written as ``repr`` writes it: the shortest decimal string that
reads back to the same double.  Reading a canonical file and writing it
back reproduces the bytes exactly.  Real and integer files are accepted
on input and widened to complex.

The parts are laid out by a numpy kernel on the decimal core that
``reporting`` shares (``_decimal``): from N^, the 17 significant digits
of |x| as one long double product, it takes the nearest candidates of 15,
16 and 17 digits and writes the shortest one that lies within half an
ulp of x.  A float that needs 14 digits or fewer, whose decisions are
not clear of their thresholds by ``HALF_WINDOW``, or whose interval is
not symmetric takes the ``%r`` template one by one, and every float does
where long double is too short for the kernel or ``repr`` is not the
shortest.  The bytes never depend on which path ran.
"""

from __future__ import annotations

import functools
import sys
import warnings
from itertools import chain

import numpy as np

from . import _decimal
from ._decimal import CHUNK
from .linalg import as_matrix

__all__ = [
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "write_vector",
    "read_vector",
]

_HEADER = "%%MatrixMarket matrix array complex general"


def _format_pairs(values, prefix: str = "") -> str:
    """One ``prefix + "re im"`` line per entry of ``values`` in flat order.

    Each part is ``repr`` of a Python float, the shortest decimal string
    that reads back to the same double: laid out by :func:`_shortest`,
    ``CHUNK`` floats at a time, or by one ``%r`` template where long
    double is too short for the kernel or repr is not the shortest.
    ``prefix`` is printable ASCII.
    """
    flat = np.asarray(values, dtype=np.complex128).ravel().view(np.float64)
    # a "legacy" repr is not the shortest one
    if flat.size and _decimal.exact() and sys.float_repr_style == "short":
        return b"".join(_shortest(flat[start:start + CHUNK], prefix.encode("ascii"))
                        for start in range(0, flat.size, CHUNK)).decode("ascii")
    return ((prefix + "%r %r\n") * (flat.size // 2)) % tuple(flat.tolist())


# One float's row after the prefix: the sign, "0.000", the 17 digits, a
# point, the last 16 digits again, "e", the exponent's sign and three
# digits, and the separator.  A float keeps the digits before its point
# from the first copy and those after it from the second.
_BODY = b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000" + b" "
_SEPARATOR = len(_BODY) - 1
#: The longest repr of a double, -2.2250738585072014e-308.
_REPR_MAX = 24
#: One exponent of each form of the layouts: the positional -4 ... 15,
#: then the exponent forms of two digits and of three.
_FORMS = np.r_[-4:16, 16, 100]
#: The significant digits of the layouts: a zero's one, and 15 ... 17.
_SIZES = np.array([1, 15, 16, 17])
_FALLBACK = 2 * len(_SIZES) * len(_FORMS)
#: The form of each exponent -EXP_MAX ... EXP_MAX, times its stride in a
#: layout code.
_FORM_CODES = 4 * len(_SIZES) * np.array(
    [k + 4 if -4 <= k < 16 else 20 + (abs(k) >= 100)
     for k in range(-_decimal.EXP_MAX, _decimal.EXP_MAX + 1)])
#: The steps of N's candidates of 14 ... 17 digits, and N mod each step
#: for N mod 1000 = 0 ... 999, less N's fraction.  These and N's fraction,
#: of at most 10 fraction bits, are exact in float32.
_STEPS = np.array([1000, 100, 10, 1], np.float32)
_RESTS = np.arange(1000, dtype=np.float32)[:, None] % _STEPS


@functools.cache
def _layouts(prefix: bytes):
    """The template rows of a real and an imaginary part, and for each
    layout code the bytes that a row keeps, as 4-byte masks.

    A float's code is 2 (2 (4 form + size) + sign) + parity, or
    2 ``_FALLBACK`` + parity for a float whose ``%r`` text is written over
    the body's first bytes, padded with zero bytes.  The form indexes
    ``_FORMS``, the size ``_SIZES``, and the parity tells a real part,
    which keeps the prefix, from an imaginary one."""
    row = prefix + _BODY
    template = np.tile(np.frombuffer(row.ljust(-(-len(row) // 4) * 4, b"\0"), np.uint8), (2, 1))
    template[:, len(prefix) + _SEPARATOR] = [ord(" "), ord("\n")]

    k, size, sign = (v.reshape(-1, 1) for v in np.meshgrid(
        _FORMS, _SIZES, [False, True], indexing="ij"))
    positional = k < 16
    small = k < 0
    # the digits before the point, and the last digit written: an integer
    # is written to the digit after its point
    split = np.where(positional, np.where(small, size, k + 1), 1)
    last = np.where(positional, np.maximum(size, k + 2), size)
    digit = np.arange(1, 18)
    body = np.zeros((_FALLBACK + 1, len(_BODY)), bool)
    body[:_FALLBACK] = np.hstack([
        sign, small, small, small & (-k - 1 >= digit[:3]), digit <= split, ~small,
        (digit[1:] > split) & (digit[1:] <= last), np.repeat(~positional, 5, axis=1),
        np.zeros_like(sign)])
    body[:_FALLBACK, 42] &= k[:, 0] >= 100
    body[_FALLBACK, :_REPR_MAX] = True
    body[:, _SEPARATOR] = True
    keep = np.zeros((len(body), 2, template.shape[1]), np.uint8)
    keep[:, :, len(prefix):len(row)] = 0xFF * body[:, None]
    keep[:, 0, :len(prefix)] = 0xFF
    return template, keep.reshape(2 * len(body), -1).view(np.uint32)


def _shortest(x: np.ndarray, prefix: bytes) -> bytes:
    """The ``repr`` texts of the floats ``x``, an even number that starts
    at an even index, each real part after ``prefix`` and before a space
    and each imaginary part before a newline.

    N's candidates of L = 14 ... 17 digits are N rounded to the nearest
    multiple of 10^(17 - L), and repr gives the shortest one that lies
    within half an ulp of x.  Floats that need 14 or fewer digits, whose
    candidate or interval edge lies within ``HALF_WINDOW`` of a decision,
    that round into the next decade, whose interval is not symmetric
    (powers of two, subnormals) or that are not finite take the ``%r``
    template one by one.  A zero has k = 0 and N^ = 0, so its layout
    writes the one digit 0 before and after the point.
    """
    window = _decimal.HALF_WINDOW
    a = np.abs(x)
    bits = a.view(np.uint64)
    finite = np.isfinite(a)
    k, whole, fraction = _decimal.scaled(a if finite.all() else np.where(finite, a, 1.0))
    significand = bits & (2**52 - 1)
    # half an ulp of x in units of N's last digit: N over twice the 53-bit
    # significand
    half_ulp = whole / (2.0 * (significand | 2**52))
    fraction = fraction.astype(np.float32)
    rests = _RESTS.take(whole - whole // 1000 * 1000, axis=0) + fraction[:, None]
    # a shorter candidate is never nearer, so those that lie clearly
    # outside the interval are the shortest ones; the 17-digit one is
    # always inside
    distances = np.minimum(rests, _STEPS - rests)
    outside = distances > (half_ulp + window).astype(np.float32)[:, None]
    first = outside[:, 0].view(np.int8) + outside[:, 1] + outside[:, 2]
    chosen = 4 * np.arange(len(x)) + first
    rest, step = rests.take(chosen), _STEPS.take(first)
    m = whole + ((rest > step / 2) * step - (rest - fraction)).astype(np.int64)
    # zeros, subnormals and non-finite floats have the lowest and the
    # highest biased exponent
    # N^ must lie in [10^16, 10^17), which log10 misses next to a power of
    # ten; a carry into the next decade gives the candidate 10^17, which
    # the 14-digit test already sends to the template
    fallback = (((bits >> 52) - 1 >= 2046) | (significand == 0) | (whole < 10**16)
                | (m >= 10**17) | (first == 0) | (distances.take(chosen) >= half_ulp - window)
                | (abs(rest - step / 2) <= window)) & (a != 0)

    template, keep = _layouts(prefix)
    code = _FORM_CODES.take(k + _decimal.EXP_MAX) + 4 * first + 2 * np.signbit(x)
    code[1::2] += 1
    out = np.tile(template, (len(x) // 2, 1))
    body = out[:, len(prefix):]
    lead, digits = _decimal.digits(m)
    body[:, 6] = lead
    body[:, 7:23].view(np.uint32)[:] = body[:, 24:40].view(np.uint32)[:] = digits
    body[:, 40:44].view(np.uint32)[:, 0], body[:, 44] = _decimal.exponent(k)
    at = np.flatnonzero(fallback)
    if at.size:
        texts = np.array(list(map(repr, x[at].tolist())), dtype=f"S{_REPR_MAX}")
        body[at, :_REPR_MAX] = texts.view(np.uint8).reshape(-1, _REPR_MAX)
        code[at] = 2 * _FALLBACK + (at & 1)
    # zero the bytes that no layout keeps, and drop every zero byte
    out.view(np.uint32)[:] &= keep.take(code, axis=0)
    return out.tobytes().translate(None, b"\0")


def format_matrix(A) -> str:
    """Render a matrix in the canonical Matrix Market array form.  A
    matrix without entries raises the ``ValueError`` that
    :func:`parse_matrix` would raise on its text."""
    A = as_matrix(A)
    m, n = A.shape
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    return f"{_HEADER}\n{m} {n}\n" + _format_pairs(A.T)


def parse_matrix(text: str) -> np.ndarray:
    """Parse Matrix Market array-format text into a complex matrix."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty Matrix Market input")
    tokens = lines[0].split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ValueError("malformed Matrix Market header")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix" or fmt != "array":
        raise ValueError("only dense matrix array files are supported")
    if field not in ("real", "complex", "integer"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry != "general":
        raise ValueError(f"unsupported symmetry {symmetry!r}")

    # the size line is the first line that is neither blank nor a comment
    size_at = next((k for k in range(1, len(lines)) if lines[k].lstrip()[:1] not in ("", "%")),
                   None)
    if size_at is None:
        raise ValueError("missing size line")
    size_tokens = lines[size_at].split()
    if len(size_tokens) != 2:
        raise ValueError("malformed size line")
    m, n = (int(t) for t in size_tokens)
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")

    total = m * n
    width = 2 if field == "complex" else 1
    rest = lines[size_at + 1:]
    flat = _loaded(rest, total, width)
    if flat is None:
        entries = [line for line in rest if line.lstrip()[:1] not in ("", "%")]
        flat = _read_values(entries[:total], width)
        if len(entries) > total:
            raise ValueError("too many entries")
        if len(flat) != width * total:
            raise ValueError(f"expected {total} entries, found {len(flat) // width}")
    values = flat.view(np.complex128) if width == 2 else flat.astype(np.complex128)
    return values.reshape((n, m)).T.copy()


def _loaded(lines: list[str], total: int, width: int) -> np.ndarray | None:
    """The values of ``lines`` as float64 when numpy's C reader takes them
    as exactly ``total`` rows of ``width`` values, else None.

    The reader skips blank lines and refuses a comment line, so on
    success the rows are the file's entries; any other outcome is left
    to the line-by-line path and its error messages.
    """
    if len(lines) < total:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns when every line is blank
        try:
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
    if values.shape != (total, width):
        return None
    return values.ravel()


def _read_values(lines: list[str], width: int) -> np.ndarray:
    """The ``width`` values on each of ``lines``, in order, as float64, read
    one token at a time with ``float``: the fallback for the entries that
    :func:`_loaded` could not read as one block.  It raises the error of
    the first bad line, or reads the forms that only ``float`` accepts
    (such as ``1_000``); numpy's reader converts every other token as
    ``float`` does, so the values do not depend on the path.
    """
    rows = list(map(str.split, lines))
    good = next((k for k, row in enumerate(rows) if len(row) != width), len(rows))
    values = np.array(list(map(float, chain.from_iterable(rows[:good]))), dtype=np.float64)
    if good < len(rows):
        expected = "'re im'" if width == 2 else "one value"
        raise ValueError(f"expected {expected} on line: {lines[good]!r}")
    return values


def write_matrix(path, A) -> None:
    """Write ``A`` in the canonical form.  The text is formatted before
    the file is opened, so a matrix that cannot be written leaves the
    file as it was."""
    text = format_matrix(A)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    write_matrix(path, v)


def read_vector(path) -> np.ndarray:
    """Read an n-by-1 matrix file as a vector."""
    mat = read_matrix(path)
    if mat.shape[1] != 1:
        raise ValueError(f"expected an n-by-1 vector file, got shape {mat.shape}")
    return mat[:, 0]
