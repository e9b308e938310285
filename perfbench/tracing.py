"""Span tracing from outside the package.

While a :class:`Tracer` is active it replaces, from this file, every public
function of ``minusord`` in every module namespace that holds it (so both
``minusord.subspaces.range_basis`` and the ``range_basis`` that
``minusord.orders`` imported), the public methods of the package's classes,
and the ``numpy.linalg`` factorizations.  Each package wrapper records a
span ``[name, layer, start, end, parent, call_id, note]``; each numpy wrapper
records a factorization event attributed to the innermost open span.
Everything is restored when the tracer is deactivated, so untimed code
(checks, floors, input refreshes) always runs on the original functions.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import os
import types
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "subspaces", "geninv", "orders", "sums", "lsq",
          "additivity", "generate", "mmio", "reporting", "cli")

SVD_LAYERS = ("orders", "subspaces", "geninv", "sums", "lsq", "linalg")

FACTORIZATIONS = ("svd", "solve", "qr", "inv", "eigvalsh")

GENERATORS = ("minus_pair", "star_pair", "sharp_pair", "core_pair", "minus_chain")

# span record fields
NAME, LAYER, START, END, PARENT, CALL, NOTE = range(7)


def svd_flop(shape, compute_uv=True, full_matrices=True) -> float:
    """Flops of a complex SVD, from Golub & Van Loan's Golub-Reinsch counts
    (4 real flops per complex flop).  A computed figure, not a measurement."""
    m, n = (max(shape), min(shape)) if len(shape) == 2 else (0, 0)
    if not compute_uv:
        real = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 14 * m * n * n + 8 * n ** 3
    return 4.0 * real


def _digest(a) -> bytes:
    arr = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    h.update(arr.data)
    return h.digest()


def _note_for(name, args, result):
    """Per-span measurements the per-layer metrics need, keyed by name."""
    if name == "parse_matrix":
        return len(args[0]) if args else 0
    if name in ("format_matrix", "canonical_json"):
        return len(result)
    if hasattr(result, "characterization_verdicts") and hasattr(result, "boundary_flags"):
        verdicts = set(result.characterization_verdicts.values())
        return (bool(result.boundary_flags), len(verdicts) > 1)
    return None


class Tracer:
    """Records spans and factorization events while active.

    ``call_id`` labels the spans of one benchmark call; spans recorded with
    ``call_id`` ``None`` (set-up) count only towards ``generate`` metrics.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.events: list[tuple] = []  # (function, layer, call_id, gflop, repeat)
        self.stack: list[int] = []
        self.call_id = None
        self._seen: dict = {}
        self._patches: list[tuple] = []
        self._wrapped: dict = {}

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer):
        wrapped = self._wrapped.get(fn)
        if wrapped is not None:
            return wrapped
        name = fn.__name__
        spans, stack, table = self.spans, self.stack, self._wrapped

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[NOTE] = _note_for(name, args, result)
            if type(result) is types.FunctionType:
                # lookup tables such as order_predicate hand out functions
                result = table.get(result, result)
            return result

        self._wrapped[fn] = wrapper
        return wrapper

    def _wrap_numpy(self, fn):
        name = fn.__name__
        spans, stack, events = self.spans, self.stack, self.events

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = spans[stack[-1]][LAYER] if stack else "bench"
            gflop = 0.0
            repeat = False
            if name == "svd":
                a = np.asarray(args[0] if args else kwargs["a"])
                gflop = svd_flop(a.shape, kwargs.get("compute_uv", True),
                                 kwargs.get("full_matrices", True)) / 1e9
                seen = self._seen.setdefault(self.call_id, set())
                key = _digest(a)
                repeat = key in seen
                seen.add(key)
            events.append((name, layer, self.call_id, gflop, repeat))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        # a class keeps the raw classmethod/staticmethod object, not the bound one
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            modules = [importlib.import_module("minusord")]
            modules += [importlib.import_module(f"minusord.{layer}") for layer in LAYERS]
            classes = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_"):
                        continue
                    owner = getattr(value, "__module__", "") or ""
                    if not owner.startswith("minusord."):
                        continue
                    layer = owner.split(".")[1]
                    if inspect.isfunction(value):
                        self._patch(module, attr, self._wrap(value, layer))
                    elif inspect.isclass(value) and value.__module__ == module.__name__:
                        classes.append((value, layer))
            for cls, layer in classes:
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, layer)))
                    elif inspect.isfunction(raw):
                        self._patch(cls, attr, self._wrap(raw, layer))
            for attr in FACTORIZATIONS:
                self._patch(np.linalg, attr, self._wrap_numpy(getattr(np.linalg, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, call_id):
        """Install the wrappers for one traced call (or set-up) and always
        restore the originals afterwards."""
        self.call_id = call_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.call_id = None


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name.endswith("bytes") or ".bytes_" in name:
        return "B"
    if name.endswith("_gflop"):
        return "GFLOP"
    return "count"


def per_layer_metrics(tracer: Tracer, call_ids, overhead_share: float) -> dict:
    """Per-call averages over the traced calls ``call_ids``, plus the
    set-up-inclusive ``generate.draws_per_pair``, as ``{name: (value, unit)}``."""
    calls = set(call_ids)
    n = max(len(calls), 1)
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.self_ms"] = 0.0
    totals = {"parse_ms": 0.0, "format_ms": 0.0, "bytes_read": 0.0, "bytes_written": 0.0,
              "render_ms": 0.0, "json_bytes": 0.0}
    reports = flagged = disagree = 0
    for rec, own in zip(spans, selfs):
        if rec[CALL] not in calls:
            continue
        layer, name, note = rec[LAYER], rec[NAME], rec[NOTE]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += own * 1e3
        duration_ms = (rec[END] - rec[START]) * 1e3
        if name == "parse_matrix":
            totals["parse_ms"] += duration_ms
            totals["bytes_read"] += note or 0
        elif name == "format_matrix":
            totals["format_ms"] += duration_ms
            totals["bytes_written"] += note or 0
        elif name == "canonical_json":
            totals["render_ms"] += duration_ms
            totals["json_bytes"] += note or 0
        elif layer == "orders" and isinstance(note, tuple):
            reports += 1
            flagged += note[0]
            disagree += note[1]
    for key in list(out):
        out[key] /= n
    for key in ("parse_ms", "format_ms", "bytes_read", "bytes_written"):
        out[f"mmio.{key}"] = totals[key] / n
    out["reporting.render_ms"] = totals["render_ms"] / n
    out["reporting.json_bytes"] = totals["json_bytes"] / n
    out["orders.flagged_share"] = flagged / reports if reports else 0.0
    out["orders.disagree_share"] = disagree / reports if reports else 0.0

    counts = {f: 0 for f in FACTORIZATIONS}
    by_layer = {layer: 0 for layer in SVD_LAYERS}
    gflop = 0.0
    repeats = 0
    for function, layer, call_id, flop, repeat in tracer.events:
        if call_id not in calls:
            continue
        counts[function] += 1
        if function == "svd":
            gflop += flop
            repeats += repeat
            if layer in by_layer:
                by_layer[layer] += 1
    for layer in SVD_LAYERS:
        out[f"{layer}.svd"] = by_layer[layer] / n
    out["numpy.svd"] = counts["svd"] / n
    out["numpy.solve"] = counts["solve"] / n
    out["numpy.factorizations"] = sum(counts.values()) / n
    out["numpy.svd_repeat_share"] = repeats / counts["svd"] if counts["svd"] else 0.0
    out["numpy.svd_gflop"] = gflop / n

    draws = sum(1 for rec in spans if rec[NAME] == "effective_condition"
                and _under_generator(spans, rec))
    generator_calls = sum(1 for rec in spans if rec[NAME] in GENERATORS)
    out["generate.draws_per_pair"] = draws / generator_calls if generator_calls else 0.0
    out["trace.overhead_share"] = overhead_share
    return {name: (value, unit_of(name)) for name, value in out.items()}


def _under_generator(spans, rec) -> bool:
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][NAME] in GENERATORS:
            return True
        parent = spans[parent][PARENT]
    return False


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as one JSON line, gzip-compressed."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fields = ("name", "layer", "start", "end", "parent", "call_id")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(dict(zip(fields, rec[:NOTE]))) + "\n")
