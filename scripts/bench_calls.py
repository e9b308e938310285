"""Per-call cost of the public calls: SVD, solve and ``as_matrix``
validation counts, taken by the spy of ``tests/test_factorization_counts.py``
on its 9x9 gate pairs, and median wall time at n = 6, 50 and 200 (square
n x n, ranks n/3 + n/3), next to their numpy floors.  After one untimed
run of each call, the calls are timed in ``--repeats`` rounds that run
every call once, and each median is taken over the rounds.  The order
checks are read for their verdict alone, as a caller deciding the order does;
``minus_order (read in full)``, ``left_minus_order (read in full)`` and
``weak_minus_order (read in full)`` also read every cross-check verdict,
witness and flag of their report.  The ``(unordered)`` rows decide the
star, left-star, core and sharp orders of A against A + G for a full-rank
G, a pair whose product identities fail.  ``minus_order (A, 2A)`` and
``is_range_additive (A, A)`` are decided by the ranks of their operands
alone, with no factor of the difference, as is the inclusion of the
ordered ``left_star_order``.  The ``fill_fishkind_pinv`` rows under its
floor also run a lopsided pair, A scaled to ||A|| / ||B|| = 1e4, whose B
is factored in full rather than on A + B's core, and an unordered pair,
A against the sum of A and C - A for a C of A's rank, whose sum is too
small to hold either summand, so both are factored in full and the call
reads in full the report of the error it raises.  The ``(tall)`` rows
run the three constructions on a 3n/2 x n pair of the same ranks, with
the counts of their square gate rows, under the floor of
``np.linalg.pinv`` of that pair's sum.  The set operations run on two
subspaces of C^n of dimensions n - 2n/3 and 2n/3 that meet in one
direction, and the oblique projection on a complementary pair.  The
Matrix Market writer and reader run on a complex n x n matrix, under the
floors of one ``'%r'`` template over its floats and of ``np.loadtxt`` of
its entry lines.  Each call is also printed as its ratio to the floor
above it in the table, taken round by round against the floor's time in
the same round, so a drift of the host between rounds, or between two
runs, cancels.

Run from the root of a checkout; ``--src`` points at another checkout's
``src`` to measure it with the same inputs:

    python3 scripts/bench_calls.py --repeats 7
    python3 scripts/bench_calls.py --src /path/to/other/src --repeats 7

BLAS is pinned to one thread before numpy loads.  The last line of
standard output is one JSON object: ``{call: {"svds": [all, with vectors],
"solves": count, "validations": count, "ms": {n: median}}}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (6, 50, 200)
#: The count-gate rows of the timed calls whose names differ; every other
#: timed call has the gate row of its name, with spaces as underscores.
GATE_ROWS = {"minus_order": "minus_order_holds", "minus_order (read in full)": "minus_order",
             "left_minus_order (read in full)": "left_minus_order",
             "weak_minus_order (read in full)": "weak_minus_order",
             "star_order": "star_order_holds",
             "minus_order (A, 2A)": "minus_order_double_holds",
             "left_star_order": "left_star_order_holds",
             "is_range_additive (A, A)": "is_range_additive_equal",
             "star_order (unordered)": "star_order_unordered_holds",
             "left_star_order (unordered)": "left_star_order_unordered_holds",
             "core_order (unordered)": "core_order_unordered_holds",
             "sharp_order (unordered)": "sharp_order_unordered_holds",
             "fill_fishkind_pinv (lopsided)": "fill_fishkind_pinv_lopsided",
             "fill_fishkind_pinv (outside)": "fill_fishkind_pinv_outside",
             "fill_fishkind_pinv (tall)": "fill_fishkind_pinv",
             "decoupled_lss (tall)": "decoupled_lss",
             "sum_reflexive_inverse (tall)": "sum_reflexive_inverse"}


def gate_row(name: str) -> str:
    """The count-gate row of a timed call."""
    return GATE_ROWS.get(name, name.replace(" ", "_"))


def read_in_full(report):
    """``report`` with its cross-check verdicts, witnesses and flags read."""
    report.characterization_verdicts, report.witness_p, report.witness_q, report.boundary_flags
    return report


def refused(call):
    """The report, read in full, of the OrderConditionError that ``call`` raises."""
    from minusord.exceptions import OrderConditionError

    try:
        call()
    except OrderConditionError as exc:
        return read_in_full(exc.report)
    raise AssertionError("the order check passed an unordered pair")


def calls(n):
    """The timed calls on one seeded square n x n pair of ranks n/3 + n/3,
    and the three constructions also on a tall 3n/2 x n pair of those ranks."""
    import numpy as np
    from minusord import additivity, lsq, mmio, orders, subspaces, sums
    from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair
    from minusord.subspaces import Subspace

    r = max(n // 3, 1)
    a, b = minus_pair(3, n, n, r, r)
    sa, sb = star_pair(3, n, n, r, r)
    ha, hb = sharp_pair(3, n, r, r)
    ca, cb = core_pair(3, n, r, r)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(n) + 0j
    m_comp = Subspace.from_span(rng.standard_normal((n, n - 2 * r)) + 0j)
    n_comp = Subspace.from_span(rng.standard_normal((n, 2 * r)) + 0j)
    x = rng.standard_normal(n) + 0j
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    text = mmio.format_matrix(g)
    # meets m_comp in one direction
    meets = Subspace.from_span(np.hstack([m_comp.basis[:, :1], n_comp.basis[:, 1:]]))
    la = a * (1e4 * np.linalg.norm(b) / np.linalg.norm(a))
    m = 3 * n // 2
    ta, tb = minus_pair(3, m, n, r, r)
    tall = np.random.default_rng(6)
    tc = tall.standard_normal(m) + 0j
    tm_comp = Subspace.from_span(tall.standard_normal((m, m - 2 * r)) + 0j)
    tn_comp = Subspace.from_span(tall.standard_normal((n, 2 * r)) + 0j)
    return {
        "floor: 3x np.linalg.matrix_rank":
            lambda: [np.linalg.matrix_rank(x) for x in (a, a + b, b)],
        "minus_order": lambda: orders.minus_order(a, a + b).holds,
        "minus_order (read in full)": lambda: read_in_full(orders.minus_order(a, a + b)),
        "left_minus_order (read in full)":
            lambda: read_in_full(orders.left_minus_order(a, a + b)),
        "weak_minus_order (read in full)":
            lambda: read_in_full(orders.weak_minus_order(a, a + b)),
        "minus_order (A, 2A)": lambda: orders.minus_order(a, 2.0 * a).holds,
        "star_order": lambda: orders.star_order(sa, sa + sb).holds,
        "left_star_order": lambda: orders.left_star_order(sa, sa + sb).holds,
        "star_order (unordered)": lambda: orders.star_order(sa, sa + g).holds,
        "left_star_order (unordered)": lambda: orders.left_star_order(sa, sa + g).holds,
        "core_order (unordered)": lambda: orders.core_order(ca, ca + g).holds,
        "sharp_order (unordered)": lambda: orders.sharp_order(ha, ha + g).holds,
        "is_range_additive": lambda: additivity.is_range_additive(a, b),
        "is_range_additive (A, A)": lambda: additivity.is_range_additive(a, a),
        "disjoint_range_additivity": lambda: additivity.disjoint_range_additivity(a, b),
        "kernel_characterization": lambda: additivity.kernel_characterization(a, b),
        "floor: np.linalg.pinv(A+B)": lambda: np.linalg.pinv(a + b),
        "build_split": lambda: sums.build_split(a, b),
        "fill_fishkind_pinv": lambda: sums.fill_fishkind_pinv(a, b),
        "fill_fishkind_pinv (lopsided)": lambda: sums.fill_fishkind_pinv(la, b),
        "fill_fishkind_pinv (outside)":
            lambda: refused(lambda: sums.fill_fishkind_pinv(a, sa - a)),
        "decoupled_lss": lambda: lsq.decoupled_lss(a, b, c),
        "solve_system": lambda: lsq.solve_system(a, b, a @ x, b @ x),
        "sum_reflexive_inverse": lambda: sums.sum_reflexive_inverse(a, b, m_comp, n_comp),
        "floor: np.linalg.pinv(A+B) (tall)": lambda: np.linalg.pinv(ta + tb),
        "fill_fishkind_pinv (tall)": lambda: sums.fill_fishkind_pinv(ta, tb),
        "decoupled_lss (tall)": lambda: lsq.decoupled_lss(ta, tb, tc),
        "sum_reflexive_inverse (tall)":
            lambda: sums.sum_reflexive_inverse(ta, tb, tm_comp, tn_comp),
        "additivity moore_penrose":
            lambda: sums.ordered_inverse_additivity(sa, sb, "moore_penrose"),
        "additivity group": lambda: sums.ordered_inverse_additivity(ha, hb, "group"),
        "additivity core": lambda: sums.ordered_inverse_additivity(ca, cb, "core"),
        "subspace_sum": lambda: subspaces.subspace_sum(m_comp, meets),
        "intersect": lambda: subspaces.intersect(m_comp, meets),
        "ominus": lambda: subspaces.ominus(m_comp, meets),
        "span_dim": lambda: subspaces.span_dim(m_comp, meets),
        "oblique_projection": lambda: subspaces.oblique_projection(m_comp, n_comp),
        "floor: '%r' template":
            lambda: ("%r %r\n" * n * n) % tuple(g.T.ravel().view(np.float64).tolist()),
        "format_matrix": lambda: mmio.format_matrix(g),
        "floor: np.loadtxt": lambda: np.loadtxt(text.splitlines()[2:], dtype=np.float64),
        "parse_matrix": lambda: mmio.parse_matrix(text),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "tests")]
    import test_factorization_counts as gate

    table, ratios = {}, {}
    for name in calls(6):
        svds = solves = checks = None
        # each timed call has its gate row; the floors have none
        row = gate.CALLS.get(gate_row(name))
        if row:
            seen, solved, labels = gate.spy(row[0])
            svds, solves, checks = ([len(seen), sum(vectors for vectors, _ in seen)],
                                    len(solved), len(labels))
        table[name] = {"svds": svds, "solves": solves, "validations": checks, "ms": {}}
    for n in SIZES:
        timed = calls(n)
        for call in timed.values():
            call()
        times = {name: [] for name in timed}
        # each round runs every call once, so a drift in host speed spreads
        # over all calls instead of landing on one
        for _ in range(args.repeats):
            for name, call in timed.items():
                start = perf_counter()
                call()
                times[name].append(1e3 * (perf_counter() - start))
        floor = None
        for name, samples in times.items():
            table[name]["ms"][n] = round(statistics.median(samples), 3)
            floor = times[name] if name.startswith("floor:") else floor
            ratios.setdefault(name, {})[n] = statistics.median(
                t / f for t, f in zip(samples, floor))
    for name, row in table.items():
        svds = "-" if row["svds"] is None else "%d / %d" % tuple(row["svds"])
        solves, checks = ("-" if row[k] is None else str(row[k]) for k in ("solves", "validations"))
        print(f"{name:34s} {svds:>8s} {solves:>3s} {checks:>4s} "
              + " ".join(f"{row['ms'][n]:9.2f}" for n in SIZES)
              + " " + " ".join(f"{ratios[name][n]:7.2f}x" for n in SIZES))
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
