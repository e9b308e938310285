"""Benchmark of the minusord package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-small --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs one traced pass and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, floors, tail percentile, failures by call type).
See ``perfbench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

_START = perf_counter()

# One BLAS thread: pinned before numpy is first imported, so the library
# reads it when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decide-small", "construct-large", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "minusord" / "__init__.py").is_file():
        print(f"error: no minusord sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import minusord
    if Path(minusord.__file__).resolve().parent != (src / "minusord").resolve():
        print(f"error: imported minusord from {minusord.__file__}, not {src}", file=sys.stderr)
        return 2
    import measure
    import workloads
    import_s = perf_counter() - _START

    state = ROOT / ".perfbench"
    workdir = state / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, str(workdir))
    try:
        if args.trace:
            spans = state / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, detail, tally, same = measure.run_traced(workload, args.seed, str(spans))
        else:
            metrics, detail, tally = measure.run_timed(workload, args.seed, args.seconds,
                                                       import_s)
            same = True
    finally:
        workload.cleanup()

    detail = {"workload": args.workload, "trace": args.trace,
              "environment": measure.environment(args.seed), **detail}
    result = {
        # every call was checked; calls that gave a wrong result or none
        # are counted in "failed"
        "correct": tally.check_errors == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
