"""Timed and traced runs of one workload, and the statistics they report.

One process, one closed-loop client: each call starts when the previous
one and its correctness check have finished.  A run replays a fixed number
of whole passes of the workload's cases, chosen from ``seconds`` and the
workload's nominal pass time, so every run with the same ``seconds`` makes
the same calls in the same mix.

The speed of a shared host drifts by tens of percent over tens of seconds,
and that drift, not the program, dominates plain run-to-run statistics.
The timing metrics therefore take, for each case of the pass, its best
latency over the passes (the usual best-of-N of timing tools), and report
quantiles over those per-case bests; throughput is the passing calls of
a pass over the sum of those bests.  The plain statistics over every call
are in the details.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import resource
import statistics
from time import perf_counter

import numpy as np

import tracing

SETUP_REPEATS = 3
TAIL_BEYOND = 10


def tail(latencies):
    """Latency at the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it, with that percentile and the sample count."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    try:
        from numpy._core import _multiarray_umath as core
        lib = ctypes.CDLL(core.__file__)
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
    }


class Tally:
    """Attempted and failed calls, by call type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.check_errors = 0
        self.fingerprints: dict = {}

    def record(self, workload, index, case, result, error) -> bool:
        """Check one call; never raises for a failure of the program."""
        self.attempted += 1
        if error is not None:
            ok, reason = False, f"raised {type(error).__name__}"
        else:
            try:
                ok = workload.check(case, result)
                reason = "wrong result"
                blob = workload.fingerprint(case, result)
                if ok and blob is not None:
                    first = self.fingerprints.setdefault(index, blob)
                    if first != blob:
                        ok, reason = False, "non-deterministic output"
            except Exception as exc:  # a defect of the checker, not of the program
                self.check_errors += 1
                ok, reason = False, f"check raised {type(exc).__name__}"
        if not ok:
            self.failed += 1
            key = f"{case.label}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return ok


def _call(workload, case):
    try:
        return workload.call(case), None
    except Exception as exc:  # counted as a failed call; the run goes on
        return None, exc


def set_up(workload, seed, tracer=None):
    """Build the cases ``SETUP_REPEATS`` times and warm up after each build;
    returns the cases and the median set-up time in seconds."""
    times = []
    cases = None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        if tracer is not None and cases is None:
            with tracer.active(None):
                cases = workload.build(seed)
        else:
            cases = workload.build(seed)
        workload.warm_up()
        times.append(perf_counter() - t0)
    return cases, statistics.median(times)


def passes_for(workload, seconds) -> int:
    """The fewest whole passes whose nominal time covers ``seconds``, and
    at least the workload's ``min_passes``."""
    return max(workload.min_passes, math.ceil(seconds / workload.nominal_pass_s))


def run_timed(workload, seed, seconds, import_s) -> tuple[dict, dict, Tally]:
    cases, setup_median = set_up(workload, seed)
    tally = Tally()
    passes = passes_for(workload, seconds)
    # [pass][case] call latency, floor latency and check outcome
    latency = [[0.0] * len(cases) for _ in range(passes)]
    floor = [[0.0] * len(cases) for _ in range(passes)]
    passed = 0
    harness_s = 0.0
    gc.collect()
    start = perf_counter()
    for done in range(passes):
        current = cases
        if done:
            t0 = perf_counter()
            current = workload.refresh(cases, np.random.default_rng([seed, 100, done]))
            harness_s += perf_counter() - t0
        for index, case in enumerate(current):
            t0 = perf_counter()
            result, error = _call(workload, case)
            t1 = perf_counter()
            passed += tally.record(workload, index, case, result, error)
            # the floor runs right after its call, so both see the same machine
            t2 = perf_counter()
            workload.floor(case)
            t3 = perf_counter()
            latency[done][index] = t1 - t0
            floor[done][index] = t3 - t2
            harness_s += t3 - t1
    window = perf_counter() - start - harness_s

    best = [min(column) for column in zip(*latency)]
    best_floor = [min(column) for column in zip(*floor)]
    tail_value, tail_pct, samples = tail(best)
    every = [x for row in latency for x in row]
    every_tail, every_pct, _ = tail(every)
    by_label: dict[str, list[tuple[float, float]]] = {}
    for case, call_s, floor_s in zip(cases, best, best_floor):
        by_label.setdefault(case.label, []).append((call_s, floor_s))
    metrics = {
        "setup_s": (import_s + setup_median, "s"),
        "ops_per_s": (passed / passes / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "floor_ratio": (statistics.median(c / f for c, f in zip(best, best_floor)), "ratio"),
        "failed_share": (tally.failed / tally.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": passes,
        "cases_per_pass": len(cases),
        "import_s": import_s,
        "setup_build_warmup_median_s": setup_median,
        "latency_tail": {"percentile": tail_pct, "samples": samples, "beyond": TAIL_BEYOND},
        "best_p50_ms_by_call": {k: statistics.median(c for c, _ in v) * 1e3
                                for k, v in sorted(by_label.items())},
        "floor_best_p50_ms": statistics.median(best_floor) * 1e3,
        "floor_best_p50_ms_by_call": {k: statistics.median(f for _, f in v) * 1e3
                                      for k, v in sorted(by_label.items())},
        "every_call": {"p50_ms": statistics.median(every) * 1e3, "tail_ms": every_tail * 1e3,
                       "tail_percentile": every_pct, "samples": len(every),
                       "ops_per_s": (tally.attempted - tally.failed) / window,
                       "window_s": window},
        "failures": dict(sorted(tally.reasons.items())),
    }
    return metrics, detail, tally


def run_traced(workload, seed, spans_path) -> tuple[dict, dict, Tally, bool]:
    """One pass, each case called once traced and once untraced (in
    alternating order); returns per-layer metrics and whether tracing left
    every outcome unchanged."""
    tracer = tracing.Tracer()
    cases, _ = set_up(workload, seed, tracer)
    tally = Tally()
    traced_s = untraced_s = 0.0
    call_ids = []
    same = True
    gc.collect()
    for index, case in enumerate(cases):
        outcomes = {}
        for traced in ((True, False) if index % 2 == 0 else (False, True)):
            if traced:
                call_ids.append(index)
                with tracer.active(index):
                    t0 = perf_counter()
                    result, error = _call(workload, case)
                    traced_s += perf_counter() - t0
            else:
                t0 = perf_counter()
                result, error = _call(workload, case)
                untraced_s += perf_counter() - t0
            outcomes[traced] = tally.record(workload, index, case, result, error)
        same = same and outcomes[True] == outcomes[False]
    metrics = tracing.per_layer_metrics(tracer, call_ids, traced_s / untraced_s - 1.0)
    tracing.write_spans(tracer, spans_path)
    detail = {"traced_calls": len(call_ids), "traced_s": traced_s, "untraced_s": untraced_s,
              "spans": len(tracer.spans), "spans_file": spans_path,
              "failures": dict(sorted(tally.reasons.items()))}
    return metrics, detail, tally, same

