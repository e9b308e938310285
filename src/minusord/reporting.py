"""Deterministic JSON rendering for CLI reports.

Identical payloads serialize to identical bytes: keys are sorted, floats
are printed with 17 significant digits in scientific notation with a
lowercase exponent, and complex scalars become two-element [re, im]
arrays.  ``matrix_payload`` and ``vector_payload`` return contiguous
complex128 arrays, which render as nested lists of [re, im] pairs, the
same bytes as the nested lists of Python floats they hold.
"""

from __future__ import annotations

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


def _array(arr: np.ndarray) -> str:
    """Render a complex128 array as nested [re, im] pairs with one
    ``%.16e`` template shaped ``arr.shape + (2,)``."""
    if arr.dtype != np.complex128:
        raise TypeError(f"cannot serialize {arr.dtype} arrays deterministically")
    template = "%.16e"
    for size in reversed(arr.shape + (2,)):
        template = "[" + ",".join([template] * size) + "]"
    return _floats(template, tuple(np.ascontiguousarray(arr).view(np.float64).ravel().tolist()))


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
