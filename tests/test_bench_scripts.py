"""The pair statistics of ``scripts/bench_pairs.py``, the digests of
``scripts/replay_digest.py``, the per-call table of
``scripts/bench_calls.py``, the route counts of
``scripts/summand_routes.py`` and the code-line count of
``scripts/src_lines.py``, all loaded by path.

Ten pairs exercise the claim rule (at least nine wins of ten and a median
difference beyond the parent's interquartile range); one pair has no
quartiles, so nothing is claimed, and its results are still written; a
second run into the same file adds only the seeds not yet recorded.  A
replay of one checkout twice gives equal digests, and one changed byte of
an output changes its digest.  The verdict digest ignores a changed
witness and changes with a verdict.  Every timed call of the per-call
table has a row in the count gate, whose spy counts its factorizations,
and the constructions of a replay are counted by the route they take.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from minusord.generate import minus_pair
from minusord.orders import minus_order

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _load("bench_pairs")


@pytest.fixture(scope="module")
def bench_calls():
    return _load("bench_calls")


@pytest.fixture(scope="module")
def replay_digest():
    return _load("replay_digest")


@pytest.fixture(scope="module")
def lopsided_sweep():
    return _load("lopsided_sweep")


@pytest.fixture(scope="module")
def src_lines():
    return _load("src_lines")


def _pairs(parent, change):
    """Synthetic pairs: per metric, one parent and one change value each."""
    names = list(parent)
    return [{"parent": {"metrics": {k: parent[k][i] for k in names}},
             "change": {"metrics": {k: change[k][i] for k in names}}}
            for i in range(len(parent[names[0]]))]


def test_ten_pairs_apply_the_claim_rule(bench_pairs):
    parent = [float(v) for v in range(10, 20)]  # quartiles 12.25 and 16.75
    change = {
        # nine wins, medians 14.5 -> 8.5, beyond the IQR of 4.5: a gain
        "latency_p50_ms": [v - 6.0 for v in parent[:9]] + [parent[9] + 1.0],
        # ten wins, but the medians differ by 3 only: no gain
        "ops_per_s": [v + 3.0 for v in parent],
        # eight wins, however large: no gain
        "latency_tail_ms": [v - 10.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]],
    }
    directions = {"latency_p50_ms": "lower", "ops_per_s": "higher", "latency_tail_ms": "lower"}
    summary = bench_pairs.summarize(_pairs({k: parent for k in change}, change), directions)

    p50 = summary["latency_p50_ms"]
    assert (p50["wins"], p50["pairs"]) == (9, 10)
    assert (p50["parent_q1"], p50["parent_q3"], p50["parent_iqr"]) == (12.25, 16.75, 4.5)
    assert (p50["parent_median"], p50["change_median"]) == (14.5, 8.5)
    assert p50["gain"] is True
    assert summary["ops_per_s"]["wins"] == 10 and summary["ops_per_s"]["gain"] is False
    assert summary["latency_tail_ms"]["wins"] == 8 and summary["latency_tail_ms"]["gain"] is False


def test_one_pair_has_no_quartiles(bench_pairs):
    summary = bench_pairs.summarize(_pairs({"latency_p50_ms": [2.0]}, {"latency_p50_ms": [1.0]}),
                                    {"latency_p50_ms": "lower"})
    row = summary["latency_p50_ms"]
    assert (row["wins"], row["pairs"]) == (1, 1)
    assert row["parent_q1"] is row["parent_q3"] is row["parent_iqr"] is None
    assert row["change_quartiles"] == [None, None]
    assert row["gain"] is False


def test_one_seed_still_writes_out(bench_pairs, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "latency_p50_ms", "better": "lower"}]}))
    monkeypatch.setattr(bench_pairs, "run", lambda checkout, *args, **kwargs: {
        "correct": True, "attempted": 1, "failed": 0, "failures": None,
        "metrics": {"latency_p50_ms": 2.0 if checkout.name == "parent" else 1.0}})
    out = tmp_path / "BENCH_one.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path), "--workload", "w",
            "--seeds", "5-5", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())["workloads"]["w"]
    assert [p["seed"] for p in record["pairs"]] == [5]
    assert record["summary"]["latency_p50_ms"]["gain"] is False


def test_merged_runs_grow_one_record(bench_pairs, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "latency_p50_ms", "better": "lower"}]}))
    runs = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        runs.append((checkout.name, seed, trace))
        side = 2.0 if checkout.name == "parent" else 1.0
        return {"correct": True, "attempted": 1, "failed": 0, "failures": None,
                "metrics": {"latency_p50_ms": side + seed / 100.0}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH_merged.json"

    def main(spec, seconds="30"):
        return bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
                                 "--workload", "w", "--seeds", spec, "--seconds", seconds,
                                 "--out", str(out)])

    assert main("1-5") == 0
    first = json.loads(out.read_text())["workloads"]["w"]
    # the second run skips the recorded seeds 4 and 5 and keeps the trace
    assert main("4-10") == 0
    record = json.loads(out.read_text())["workloads"]["w"]
    assert [p["seed"] for p in record["pairs"]] == record["seeds"] == list(range(1, 11))
    assert [p["first"] for p in record["pairs"]] == ["parent", "change"] * 5
    assert record["summary"]["latency_p50_ms"]["pairs"] == 10
    assert record["summary"]["latency_p50_ms"]["wins"] == 10
    assert record["trace"] == first["trace"]
    assert sum(trace for *_, trace in runs) == 2
    assert sorted(seed for _, seed, trace in runs if not trace) == sorted(2 * list(range(1, 11)))

    # a different --seconds would mix incomparable pairs
    with pytest.raises(SystemExit):
        main("11-11", seconds="10")
    assert json.loads(out.read_text())["workloads"]["w"] == record


def test_every_timed_call_has_a_gate_row(bench_calls):
    # a call without a count-gate row would print "-" for its counts
    import test_factorization_counts as gate

    timed = [name for name in bench_calls.calls(6) if not name.startswith("floor:")]
    assert [name for name in timed if bench_calls.gate_row(name) not in gate.CALLS] == []


@pytest.mark.parametrize("workload", ["decide-small", "cli-files"])
def test_replay_of_one_checkout_repeats(replay_digest, workload, tmp_path, monkeypatch):
    # cli-files JSON embeds the input paths, so both replays use one
    # work directory
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    first, second = (list(replay_digest.replay(workload, 1, tmp_path / "work", limit=6))
                     for _ in range(2))
    assert first == second
    assert len(first) == (6 if workload == "cli-files" else 12)
    assert not (tmp_path / "work").exists()


def test_summand_routes_count_each_construction(tmp_path, monkeypatch):
    # each cli-files construction reads both summands off the core of A + B
    from minusord.subspaces import Factored

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    saved = Factored.__dict__["_summand"], Factored.__dict__["_of"]
    table = _load("summand_routes").routes("cli-files", [1], workdir=tmp_path / "work", limit=6)
    assert (Factored.__dict__["_summand"], Factored.__dict__["_of"]) == saved
    assert table["total"]["core"] > 0
    assert all(counts["full"] == 0 and counts["core"] % 2 == 0 for counts in table.values())
    assert set(table) <= {"total", "pinv-sum:json", "pinv-sum:out", "lsq:json"}


def test_one_changed_output_byte_changes_the_digest(replay_digest):
    digest = replay_digest.digest
    a, b = minus_pair(3, 5, 4, 1, 1)
    report = minus_order(a, a + b)
    before = digest(report)
    # the witness is read in full: one ulp of one entry changes the digest
    matrix = report.witness_p.matrix
    matrix.real[0, 0] = np.nextafter(matrix.real[0, 0], np.inf)
    assert digest(report) != before

    cli_output = b"0\n" + json.dumps({"result": {"holds": True}}).encode()
    changed = bytearray(cli_output)
    changed[-2] ^= 1
    assert digest(cli_output) != digest(bytes(changed))

    x = np.arange(6.0).reshape(2, 3) + 0j
    y = x.copy()
    y.reshape(-1).view(np.uint8)[3] ^= 1
    assert digest(x) != digest(y)


def test_verdict_digest_ignores_witnesses_not_verdicts(replay_digest):
    digest = replay_digest.digest
    a, b = minus_pair(3, 5, 4, 1, 1)
    report = minus_order(a, a + b)
    before = digest(report, False)
    matrix = report.witness_p.matrix
    matrix.real[0, 0] = np.nextafter(matrix.real[0, 0], np.inf)
    assert digest(report, False) == before

    # the same report with its verdict flipped, on the same triple; with no
    # witness makers, no witness is present either way, so only holds differs
    base = replace(report, _make_p=None, _make_q=None)
    flipped = replace(base, holds=not base.holds)
    assert flipped.rank_data == report.rank_data
    assert digest(flipped, False) != digest(base, False)
    # and with a witness gone
    absent = replace(report, _make_p=lambda: None)
    assert digest(absent, False) != before


def test_sweep_tallies_each_characterization(lopsided_sweep):
    a, b = minus_pair(3, 5, 4, 1, 1)
    tally = lopsided_sweep.tally_pair(a, b)
    keys = sorted(minus_order(a, a + b).characterization_verdicts)
    assert tally["disagree"] == dict.fromkeys(keys, 0)

    other = dict(tally, draws=1, disagree=dict(tally["disagree"], angles=1, ranks=1))
    table = lopsided_sweep.sweep([("k", "A", 1.0, tally), ("k", "A", 1.0, other),
                                  ("k", "B", 1e-6, other)], lopsided_sweep.COUNTS)
    assert table["k"]["A"]["1"]["draws"] == 2
    assert table["k"]["A"]["1"]["disagree"] == dict(tally["disagree"], angles=1, ranks=1)
    assert table["total"]["disagree"] == dict(tally["disagree"], angles=2, ranks=2)
    assert list(table["total"]) == list(lopsided_sweep.COUNTS) + ["disagree"]


#: Nine code lines: the import, ``def f``, the four lines of the call in
#: ``return``, ``class C`` and the two lines of a string that is no
#: docstring.  The docstrings, the comment line and the blank lines count
#: nothing.
SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


def f(x):
    """A function docstring."""
    return os.path.join(
        x,
        "y",
    )


class C:
    """A class docstring."""

    text = """a string,
    no docstring"""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(src_lines, tmp_path, capsys):
    assert src_lines.code_lines(SNIPPET) == 9
    assert src_lines.code_lines("") == 0
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 1\nb.py 9\ntotal 10\n"
