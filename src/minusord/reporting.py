"""Deterministic JSON rendering for CLI reports.

Identical payloads serialize to identical bytes: keys are sorted, floats
are printed with 17 significant digits in scientific notation with a
lowercase exponent, and complex scalars become two-element [re, im]
arrays.  ``matrix_payload`` and ``vector_payload`` return contiguous
complex128 arrays, which render as nested lists of [re, im] pairs, the
same bytes as the nested lists of Python floats they hold.

An array is rendered by a numpy kernel that reproduces ``'%.16e' % x``
byte for byte, ``CHUNK`` floats at a time.  With k = floor(log10 |x|), the
17 digits are N = |x| 10^(16 - k) rounded to nearest, and N^ is formed as
one long double product of the exact double and the correctly rounded
10^(16 - k).  With 64 significant bits, |N^ - N| <= 2^-63 N < 0.011 for
N < 10^17, so N^ rounds as N does unless its fraction lies within
``HALF_WINDOW`` of 1/2.  Those elements, and those whose N^ falls outside
[10^16, 10^17), take the ``%.16e`` template; so does every array where
long double has fewer than 63 fraction bits.  The bytes never depend on
which path ran.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .orders import OrderReport
from .subspaces import Projection

__all__ = [
    "canonical_json",
    "matrix_payload",
    "vector_payload",
    "tolerance_payload",
    "order_report_payload",
]


def _floats(template: str, values: tuple) -> str:
    text = template % values
    if "n" in text:  # %e renders only inf and nan with an "n"
        raise ValueError("non-finite value in report payload")
    return text


# 16 - k over every finite double, k = floor(log10 |x|), lies in
# POW_LOW ... POW_HIGH, and k in -EXP_MAX ... EXP_MAX.
POW_LOW, POW_HIGH = -292, 340
EXP_MAX = 324
CHUNK = 8192
HALF_WINDOW = 0.0125
# One float's row: a pad, the sign, d.dddddddddddddddd, "e", the exponent's
# sign and three digits, so that the 16 digits after the point fill the
# 4-byte words 1 ... 4 and "e" starts word 5.  The brackets and the comma
# follow, and spaces pad the row to whole words.
_HEAD = b" -0." + b"0" * 16 + b"e+000"


def _kernel_exact() -> bool:
    """Whether long double holds the 63 fraction bits the kernel's error
    bound needs."""
    return np.finfo(np.longdouble).nmant >= 63


def _words(*columns) -> np.ndarray:
    """One 4-byte word per row of the four ASCII ``columns``."""
    return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).reshape(-1)


@functools.cache
def _tables():
    """Built on first use: the correctly rounded long double powers
    10^POW_LOW ... 10^POW_HIGH; the digits of 0 ... 9999, a word each; and
    for k = -EXP_MAX ... EXP_MAX the word of "e", the sign of k and the
    hundreds and tens digits of |k|."""
    texts = np.char.add("1e", np.arange(POW_LOW, POW_HIGH + 1).astype(str))
    powers = texts.astype(np.longdouble)
    d = ord("0")
    n = np.arange(10000)
    digits = _words(n // 1000 + d, n // 100 % 10 + d, n // 10 % 10 + d, n % 10 + d)
    k = np.arange(-EXP_MAX, EXP_MAX + 1)
    exponents = _words(np.full_like(k, ord("e")), np.where(k < 0, ord("-"), ord("+")),
                       abs(k) // 100 + d, abs(k) // 10 % 10 + d)
    return powers, digits, exponents


def _chunk(x: np.ndarray, start: int, spans: list[int], last: bool) -> bytes:
    """The ``%.16e`` texts of the floats ``x``, which start at float
    ``start`` of the array, each followed by the brackets it closes and,
    unless it ends the array (``last``), a comma and as many opening
    brackets.  ``spans`` counts the floats under one bracket of each level,
    innermost first."""
    if not np.isfinite(x).all():
        raise ValueError("non-finite value in report payload")
    powers, digits, exponents = _tables()
    a = np.abs(x)
    zero = a == 0
    k = np.floor(np.log10(np.where(zero, 1.0, a))).astype(np.intp)
    n = a.astype(np.longdouble) * powers[16 - k - POW_LOW]
    whole = n.astype(np.int64)
    fraction = (n - whole).astype(np.float64)
    m = whole + (fraction > 0.5)
    exact = (abs(fraction - 0.5) > HALF_WINDOW) & (whole >= 10**16) & (m < 10**17)
    fallback = np.flatnonzero(~(exact | zero))
    if fallback.size:
        texts = ["%.16e" % v for v in a[fallback].tolist()]
        m[fallback] = [int(t[0] + t[2:18]) for t in texts]
        k[fallback] = [int(t[19:]) for t in texts]

    depth = len(spans)
    row = _HEAD + b"]" * depth + b"," + b"[" * depth
    row = np.frombuffer(row.ljust(-(-len(row) // 4) * 4), np.uint8)
    out = np.tile(row, (len(x), 1))
    words = out.view(np.uint32)
    high, low = np.divmod(m, 10**8)
    lead, high = np.divmod(high, 10**8)
    out[:, 2] = lead + ord("0")
    words[:, 1] = digits[high // 10**4]
    words[:, 2] = digits[high % 10**4]
    words[:, 3] = digits[low // 10**4]
    words[:, 4] = digits[low % 10**4]
    words[:, 5] = exponents[k + EXP_MAX]
    out[:, 24] = abs(k) % 10 + ord("0")

    # keep the digits, the point, "e" and the comma; the sign, the hundreds
    # of the exponent and the brackets as each float needs them
    keep = np.tile((row != ord(" ")) & (row != ord("]")) & (row != ord("[")), (len(x), 1))
    keep[:, 1] = np.signbit(x)
    keep[:, 22] = abs(k) >= 100
    for level, span in enumerate(spans):
        closing = slice((-start - 1) % span, None, span)
        keep[closing, 25 + level] = keep[closing, 26 + depth + level] = True
    if last:
        keep[-1, 25 + depth:] = False
    return out[keep].tobytes()


def _array(arr: np.ndarray) -> str:
    """Render a complex128 array as nested [re, im] pairs: by the chunked
    kernel, or by one ``%.16e`` template shaped ``arr.shape + (2,)``."""
    if arr.dtype != np.complex128:
        raise TypeError(f"cannot serialize {arr.dtype} arrays deterministically")
    shape = arr.shape + (2,)
    flat = np.ascontiguousarray(arr).reshape(-1).view(np.float64)
    if flat.size and _kernel_exact():
        spans = np.cumprod(shape[::-1]).tolist()
        chunks = [b"[" * len(shape)]
        for start in range(0, flat.size, CHUNK):
            end = min(start + CHUNK, flat.size)
            chunks.append(_chunk(flat[start:end], start, spans, end == flat.size))
        return b"".join(chunks).decode("ascii")
    template = "%.16e"
    for size in reversed(shape):
        template = "[" + ",".join([template] * size) + "]"
    return _floats(template, tuple(flat.tolist()))


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _floats("%.16e", (float(obj),))
    if isinstance(obj, (complex, np.complexfloating)):
        return _floats("[%.16e,%.16e]", (float(obj.real), float(obj.imag)))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if any(not isinstance(k, str) for k, _ in items):
            raise TypeError("report keys must be strings")
        return "{" + ",".join(f"{json.dumps(k)}:{_render(v)}" for k, v in items) + "}"
    if isinstance(obj, np.ndarray):
        return _array(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_json(obj) -> str:
    """Serialize a report payload to a deterministic JSON string."""
    return _render(obj) + "\n"


def matrix_payload(A) -> np.ndarray:
    """A contiguous complex128 copy of ``A``."""
    return np.array(A, dtype=np.complex128, order="C")


def vector_payload(v) -> np.ndarray:
    """A contiguous complex128 copy of ``v``, flattened."""
    return matrix_payload(v).reshape(-1)


def tolerance_payload(tol):
    return {
        "rank_rtol": tol.rank_rtol,
        "residual_atol": tol.residual_atol,
        "angle_gap": tol.angle_gap,
    }


def _projection_payload(projection: Projection | None):
    if projection is None:
        return None
    return matrix_payload(projection.matrix)


def order_report_payload(report: OrderReport):
    return {
        "order": report.order_name,
        "holds": report.holds,
        "verdicts": dict(report.characterization_verdicts),
        "rank_data": {
            "rank_A": report.rank_data.rank_a,
            "rank_B": report.rank_data.rank_b,
            "rank_B_minus_A": report.rank_data.rank_diff,
        },
        "witness_P": _projection_payload(report.witness_p),
        "witness_Q": _projection_payload(report.witness_q),
        "boundary_flags": list(report.boundary_flags),
    }
