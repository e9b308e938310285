"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _same(x, y):
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if hasattr(x, "basis"):
        return _same(x.basis, y.basis)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return x == y


def _cases_equal(one, two):
    return len(one) == len(two) and all(
        a.label == b.label and a.truth == b.truth and a.square == b.square
        and _same(a.data, b.data) for a, b in zip(one, two))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    builds = []
    for seed, sub in ((7, "one"), (7, "two"), (8, "three")):
        workload = workloads.make(name, str(tmp_path / sub))
        cases = workload.build(seed)
        files = {}
        if name == "cli-files":
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
            # paths differ by directory only
            for case in cases:
                case.data["argv"] = [a.replace(str(tmp_path / sub), "") for a in case.data["argv"]]
                for key in ("out", "prefix"):
                    if key in case.data:
                        case.data[key] = case.data[key].replace(str(tmp_path / sub), "")
        builds.append((cases, files))
    (first, files1), (second, files2), (other, files3) = builds
    assert _cases_equal(first, second)
    assert files1 == files2
    assert not _cases_equal(first, other)
    if name == "cli-files":
        assert files1 != files3


def test_refresh_is_seeded_and_keeps_the_mix():
    workload = workloads.DecideSmall()
    cases = workload.build(3)
    one = workload.refresh(cases, np.random.default_rng([3, 100, 1]))
    two = workload.refresh(cases, np.random.default_rng([3, 100, 1]))
    assert _cases_equal(one, two)
    assert [c.label for c in one] == [c.label for c in cases]
    assert not np.array_equal(one[0].data["a"], cases[0].data["a"])


def test_self_time_arithmetic():
    # root [0, 10] with children [1, 4] and [5, 7]; [1, 4] has child [2, 3],
    # [5, 7] has child [6, 8]
    spans = [
        ["root", "sums", 0.0, 10.0, -1, 1, None],
        ["a", "orders", 1.0, 4.0, 0, 1, None],
        ["inner", "subspaces", 2.0, 3.0, 1, 1, None],
        ["b", "linalg", 5.0, 7.0, 0, 1, None],
        # a child reaching past its parent only counts inside the parent
        ["late", "linalg", 6.0, 8.0, 3, 1, None],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 1.0, 2.0]

    tracer = tracing.Tracer()
    tracer.spans[:] = spans[:4]
    metrics = tracing.per_layer_metrics(tracer, [1], 0.25)
    assert metrics["sums.self_ms"] == (5000.0, "ms")
    assert metrics["orders.self_ms"] == (2000.0, "ms")
    assert metrics["linalg.calls"] == (1.0, "count")
    assert metrics["trace.overhead_share"] == (0.25, "share")


def test_tail_has_ten_samples_beyond():
    value, pct, count = measure.tail(list(range(100)))
    assert (value, pct, count) == (89, 90.0, 100)
    assert sum(1 for x in range(100) if x > value) == 10


def _snapshot():
    import importlib
    import minusord
    owners = [minusord] + [importlib.import_module(f"minusord.{m}") for m in tracing.LAYERS]
    snap = {}
    for owner in owners:
        for attr, value in vars(owner).items():
            snap[(owner.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("minusord"):
                for cattr, raw in vars(value).items():
                    snap[(value.__qualname__, cattr)] = raw
    for name in tracing.FACTORIZATIONS:
        snap[("numpy.linalg", name)] = getattr(np.linalg, name)
    return snap


def test_every_wrapped_name_is_restored(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    workload = workloads.make("cli-files", str(tmp_path / "work"))
    with tracer.active(None):
        cases = workload.build(5)
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
    for index, case in enumerate(cases[:3]):
        with tracer.active(index):
            workload.call(case)
    assert tracer.spans
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_counts_repeat(tmp_path):
    runs = []
    for k in range(2):
        metrics, _, tally, same = measure.run_traced(
            workloads.make("decide-small", str(tmp_path / f"w{k}")), 4,
            str(tmp_path / f"spans{k}.jsonl.gz"))
        assert same
        runs.append({name: value for name, (value, unit) in metrics.items()
                     if unit in ("count", "B", "GFLOP") or name.endswith("_share")
                     and name != "trace.overhead_share"})
    assert runs[0] == runs[1]
    assert runs[0]["numpy.svd"] > 0


def test_metric_names_match_the_benchmark_file(tmp_path):
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = tracing.per_layer_metrics(tracing.Tracer(), [], 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in per_layer.items()}
    metrics, _, _ = measure.run_timed(workloads.make("decide-small", str(tmp_path)), 1, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
