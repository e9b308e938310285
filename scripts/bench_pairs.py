"""Alternating parent/change pairs of ``perfbench/run.py`` on one workload.

Each pair runs the benchmark once in each checkout with the same seed and
``--seconds``; the side that runs first alternates from pair to pair.  The
end-to-end metrics of every run, their medians, the parent's quartiles and
the wins of the change (ties count for neither side), and the per-layer
metrics of one traced run per side on the first seed (``--trace 1``:
calls, self time and factorizations per layer) are merged under the
workload's name into the JSON file given by ``--out``:

    python3 scripts/bench_pairs.py --parent /path/to/parent --change . \\
        --workload construct-large --seeds 61-70 --seconds 30 --out BENCH_x.json

A workload already recorded there grows: its recorded seeds are not run
again, a different ``--seconds`` is refused, the summary is recomputed over
all its pairs, and its traced runs are kept.  So ``--seeds 61-65`` and then
``--seeds 66-70`` give the ten pairs of ``--seeds 61-70``.

A gain on a metric is claimed only when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  With a single pair there are no quartiles: they and
the interquartile range are ``null``, and no gain is claimed.  Both checkouts must hold ``perfbench/run.py`` and
``BENCHMARK.json``; the metric directions come from the change's file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run: its failure count and metric values, end-to-end
    for a timed run and per layer for a traced one."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout.splitlines()
    detail, result = json.loads(out[-2]), json.loads(out[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failures": detail.get("failures"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    """The first and third quartiles, or ``None`` for fewer than two values."""
    if len(values) < 2:
        return None, None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, directions) -> dict:
    summary = {}
    for name, better in directions.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
        q1, q3 = quartiles(parent)
        iqr = None if q1 is None else q3 - q1
        p_med, c_med = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "better": better, "parent_median": p_med, "change_median": c_med,
            "relative_change": (c_med - p_med) / p_med if p_med else None,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": iqr,
            "change_quartiles": list(quartiles(change)),
            "wins": wins, "pairs": len(pairs),
            "gain": (iqr is not None and wins >= 0.9 * len(pairs)
                     and abs(c_med - p_med) > iqr),
        }
    return summary


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 61-70")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    earlier = record.setdefault("workloads", {}).get(args.workload)
    if earlier is not None and earlier["seconds"] != args.seconds:
        parser.error(f"{args.out} records {args.workload} at --seconds {earlier['seconds']}, "
                     f"not {args.seconds}")
    pairs = [] if earlier is None else earlier["pairs"]
    recorded = {pair["seed"] for pair in pairs}
    for seed in seeds(args.seeds):
        if seed in recorded:
            print(f"seed {seed}: recorded in {args.out}, not run again", flush=True)
            continue
        # the first side keeps alternating across the merged runs
        order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        p, c = pair["parent"]["metrics"], pair["change"]["metrics"]
        print(f"seed {seed}: p50 {p['latency_p50_ms']:.3f} -> {c['latency_p50_ms']:.3f} ms, "
              f"failed {pair['parent']['failed']} / {pair['change']['failed']}", flush=True)

    if earlier is None:
        traced = {"seed": pairs[0]["seed"]}
        for side in ("parent", "change"):
            traced[side] = run(getattr(args, side), args.workload, traced["seed"], args.seconds,
                               trace=1)
    else:
        traced = earlier["trace"]
    record["workloads"][args.workload] = {
        "seconds": args.seconds, "seeds": [pair["seed"] for pair in pairs],
        "summary": summarize(pairs, directions), "pairs": pairs, "trace": traced}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
