"""Deterministic JSON rendering for CLI reports.

Identical payloads serialize to identical bytes: keys are sorted, floats
are printed with 17 significant digits in scientific notation with a
lowercase exponent, and complex scalars become two-element [re, im]
arrays.  ``matrix_payload`` and ``vector_payload`` return contiguous
complex128 arrays, which render as nested lists of [re, im] pairs, the
same bytes as the nested lists of Python floats they hold.

An array is rendered by a numpy kernel that reproduces ``'%.16e' % x``
byte for byte, ``CHUNK`` floats at a time, on the decimal core that
``mmio`` shares (``_decimal``): the 17 digits are N^, |x| 10^(16 - k) as
one long double product, rounded to nearest.  N^ rounds as N does unless
its fraction lies within ``HALF_WINDOW`` of 1/2; those elements, and
those whose N^ falls outside [10^16, 10^17), take the ``%.16e`` template,
whose fixed-width texts are read back into digits and exponents in one
numpy pass.  Every array takes the template where long double has fewer
than 63 fraction bits.  The bytes never depend on which path ran.
"""

from __future__ import annotations

import json

import numpy as np

from . import _decimal
from ._decimal import CHUNK
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


# One float's row: a pad, the sign, d.dddddddddddddddd, "e", the exponent's
# sign and three digits, so that the 16 digits after the point fill the
# 4-byte words 1 ... 4 and "e" starts word 5.  The brackets and the comma
# follow, and spaces pad the row to whole words.
_HEAD = b" -0." + b"0" * 16 + b"e+000"


def _chunk(x: np.ndarray, start: int, spans: list[int], last: bool) -> bytes:
    """The ``%.16e`` texts of the floats ``x``, which start at float
    ``start`` of the array, each followed by the brackets it closes and,
    unless it ends the array (``last``), a comma and as many opening
    brackets.  ``spans`` counts the floats under one bracket of each level,
    innermost first."""
    if not np.isfinite(x).all():
        raise ValueError("non-finite value in report payload")
    a = np.abs(x)
    k, whole, fraction = _decimal.scaled(a)
    m = whole + (fraction > 0.5)
    exact = (abs(fraction - 0.5) > _decimal.HALF_WINDOW) & (whole >= 10**16) & (m < 10**17)
    fallback = np.flatnonzero(~(exact | (a == 0)))
    if fallback.size:
        m[fallback], k[fallback] = _decimal.scientific(a[fallback])

    depth = len(spans)
    row = _HEAD + b"]" * depth + b"," + b"[" * depth
    row = np.frombuffer(row.ljust(-(-len(row) // 4) * 4), np.uint8)
    out = np.tile(row, (len(x), 1))
    words = out.view(np.uint32)
    out[:, 2], words[:, 1:5] = _decimal.digits(m)
    words[:, 5], out[:, 24] = _decimal.exponent(k)

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
    if flat.size and _decimal.exact():
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
