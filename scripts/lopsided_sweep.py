"""Tally of the minus verdict and the range-additivity invariants on the
lopsided corpus of ``tests/lopsided.py``: 870 exactly ordered pairs
A <= A + B (three pair kinds, seeds 0-9), each with A or B alone scaled
by 1e6 ... 1e17 or 1e-6 ... 1e-17, or unscaled; and of the star, sharp
and core verdicts on pairs drawn for those orders, scaled alike.

Run from the root of a checkout, with no options:

    python3 scripts/lopsided_sweep.py

The output is one JSON object, ``{kind: {side: {scale: tally}}}`` and a
``"total"`` tally over the corpus, where each tally counts

- ``draws``: the pairs;
- ``verdict_wrong``: minus verdicts on A <= A + B that fail, although
  the pair is ordered in exact arithmetic;
- ``flagged``: minus reports with a boundary flag;
- ``direct_not_additive``: pairs whose adjoint ranges split directly
  while R(A + B) = R(A) + R(B) fails, against the implication that
  ``KernelCharacterization`` documents;
- ``caveat``: pairs with disjoint ranges and spanning kernels whose
  range sum is not direct, the cutoff-band caveat of
  ``DisjointRangeAdditivity``;
- ``kernel_disagree``: pairs where the direct adjoint sum, the kernels'
  spanning and the witness's existence do not all agree;
- ``disagree``: per key of the minus report's ``characterization_verdicts``
  (``angles``, ``kernels``, ``projection``, ``ranges`` and ``ranks``), the
  reports whose entry differs from ``holds``.

Under ``"orders"`` the same layout, ``{kind: {side: {scale: tally}}}``
and a ``"total"``, tallies the order each kind of ``ORDER_KINDS`` is
drawn for (``star_pair(seed, 8, 8, 3, 2)``, ``sharp_pair(seed, 8, 3, 2)``
and ``core_pair(seed, 8, 3, 2)``) on A against A + B, counting

- ``draws``: the pairs;
- ``verdict_wrong``: verdicts that fail, or checks that raise, although
  the pair is ordered in exact arithmetic;
- ``raised``: checks that raise, finding A or A + B not group invertible;
- ``flagged``: reports with a boundary flag.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lopsided import ORDER_KINDS, corpus  # noqa: E402
from minusord.additivity import disjoint_range_additivity, kernel_characterization  # noqa: E402
from minusord.exceptions import GroupInvertibilityError  # noqa: E402
from minusord.orders import minus_order, order_predicate  # noqa: E402

COUNTS = ("draws", "verdict_wrong", "flagged", "direct_not_additive", "caveat", "kernel_disagree")
ORDER_COUNTS = ("draws", "verdict_wrong", "raised", "flagged")


def tally_pair(a, b) -> dict[str, int]:
    """The counts of one pair, each 0 or 1."""
    report = minus_order(a, a + b)
    disjoint = disjoint_range_additivity(a, b)
    kernel = kernel_characterization(a, b)
    direct = kernel.adjoint_ranges_direct_closed
    return {
        "draws": 1,
        "verdict_wrong": int(not report.holds),
        "flagged": int(bool(report.boundary_flags)),
        "direct_not_additive": int(direct and not kernel.range_additive),
        "caveat": int(disjoint.ranges_disjoint and disjoint.kernels_span and not disjoint.additive),
        "kernel_disagree": int(len({direct, kernel.kernels_span, kernel.witness_q is not None}) > 1),
        "disagree": {key: int(verdict != report.holds)
                     for key, verdict in sorted(report.characterization_verdicts.items())},
    }


def tally_order(order, a, b) -> dict[str, int]:
    """The counts of one pair drawn for ``order``, each 0 or 1."""
    try:
        report = order_predicate(order)(a, a + b)
    except GroupInvertibilityError:
        return {"draws": 1, "verdict_wrong": 1, "raised": 1, "flagged": 0}
    return {"draws": 1, "verdict_wrong": int(not report.holds), "raised": 0,
            "flagged": int(bool(report.boundary_flags))}


def add(into: dict, tally: dict) -> None:
    """Add the counts of ``tally``, nested ones key by key, to ``into``."""
    for name, count in tally.items():
        if isinstance(count, dict):
            add(into.setdefault(name, {}), count)
        else:
            into[name] = into.get(name, 0) + count


def sweep(tallies, counts) -> dict:
    """``{kind: {side: {scale: tally}}, "total": tally}`` summed over
    ``tallies``, each ``(kind, side, c, tally)``."""
    table: dict = {}
    total = dict.fromkeys(counts, 0)
    for kind, side, c, tally in tallies:
        cell = table.setdefault(kind, {}).setdefault(side, {}).setdefault(
            f"{c:g}", dict.fromkeys(counts, 0))
        add(cell, tally)
        add(total, tally)
    table["total"] = total
    return table


def main() -> int:
    table = sweep(((kind, side, c, tally_pair(a, b)) for kind, _, side, c, a, b in corpus()),
                  COUNTS)
    draws = {kind: draw for kind, (_, draw) in ORDER_KINDS.items()}
    table["orders"] = sweep(((kind, side, c, tally_order(ORDER_KINDS[kind][0], a, b))
                             for kind, _, side, c, a, b in corpus(draws)), ORDER_COUNTS)
    print(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
