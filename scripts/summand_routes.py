"""How often a construction reads a summand off the core of A + B, and how
often it factors the summand in full: the calls of
``Factored._summand`` counted per workload and case label, on the calls
that ``scripts/replay_digest.py`` replays for each seed.

Run from the root of a checkout:

    python3 scripts/summand_routes.py --seeds 1-3

The last line of standard output is one JSON object:
``{workload: {label: {"core": count, "full": count}}}``, with a
``"total"`` label per workload.  A workload that runs no construction,
such as ``decide-small``, has only its zero total.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decide-small", "construct-large", "cli-files")


def routes(name: str, seeds, **replayed) -> dict:
    """The core and full counts of one workload over ``seeds``;
    ``replayed`` passes a work directory or a case limit to the replay."""
    from minusord.subspaces import Factored
    from replay_digest import replay

    saved = Factored.__dict__["_summand"], Factored.__dict__["_of"]
    real_summand, real_of = (method.__func__ for method in saved)
    state = {"inside": False, "full": False}
    pending = Counter()

    def of(cls, a, tol, scale=None):
        state["full"] |= state["inside"]
        return real_of(cls, a, tol, scale)

    def summand(cls, *args):
        state.update(inside=True, full=False)
        try:
            return real_summand(cls, *args)
        finally:
            state["inside"] = False
            pending["full" if state["full"] else "core"] += 1

    tally = defaultdict(Counter)
    Factored._of, Factored._summand = classmethod(of), classmethod(summand)
    try:
        for seed in seeds:
            for _, label, *_ in replay(name, seed, **replayed):
                tally[label].update(pending)
                tally["total"].update(pending)
                pending.clear()
    finally:
        Factored._summand, Factored._of = saved
    tally["total"].update(core=0, full=0)
    return {label: {"core": counts["core"], "full": counts["full"]}
            for label, counts in sorted(tally.items()) if label == "total" or +counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-3", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]
    table = {name: routes(name, seeds) for name in WORKLOADS}
    for name, rows in table.items():
        for label, counts in rows.items():
            print(f"{name:16s} {label:45s} {counts['core']:6d} {counts['full']:6d}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
