"""Lopsided pairs: exactly ordered pairs A <= A + B with A or B alone scaled.

Each pair kind draws, for a seed, a pair whose summands split R(A + B) and
R((A + B)*) directly, so A is minus-below A + B in exact arithmetic at every
scale of either summand.  Scaling one summand by c moves the other toward
the rounding of the sum: from c = 1e13 or 1e-13 on, one summand sits in
the cutoff band of A + B, and from 1e15 on it lies under that cutoff.
"""

from minusord.generate import core_pair, minus_pair, sharp_pair, star_pair

LOPSIDED_SCALES = (1e6, 1e-6, 1e8, 1e-8, 1e10, 1e-10, 1e12, 1e-12,
                   1e13, 1e-13, 1e15, 1e-15, 1e17, 1e-17, 1.0)
#: The scales at which a summand sits in the cutoff band of A + B, so
#: rounding decides each rank count there.
CUTOFF_BAND = (1e13, 1e-13)
SIDES = ("A", "B")

#: name: a seed's exactly ordered pair (A, B), A minus-below A + B
KINDS = {
    "minus 9x7 ranks 3+2": lambda seed: minus_pair(seed, 9, 7, 3, 2),
    "minus 9x9 ranks 3+3": lambda seed: minus_pair(seed, 9, 9, 3, 3),
    "star 9x7 ranks 3+2": lambda seed: star_pair(seed, 9, 7, 3, 2),
}
SEEDS = range(10)

#: name: the order a seed's pair (A, B) is drawn for, with A below A + B
#: in that order, and the draw
ORDER_KINDS = {
    "star 8x8 ranks 3+2": ("star", lambda seed: star_pair(seed, 8, 8, 3, 2)),
    "sharp 8x8 ranks 3+2": ("sharp", lambda seed: sharp_pair(seed, 8, 3, 2)),
    "core 8x8 ranks 3+2": ("core", lambda seed: core_pair(seed, 8, 3, 2)),
}


def lopsided(pair, side, c):
    """The pair (A, B) with A alone (``side`` "A") or B alone scaled by c."""
    a, b = pair
    return (c * a, b) if side == "A" else (a, c * b)


def corpus(kinds=None):
    """Every kind of ``kinds`` (name: draw, by default :data:`KINDS`), seed,
    side and scale once, the unscaled pair once per kind and seed:
    ``(kind, seed, side, c, A, B)``, side "neither" when c = 1."""
    for kind, draw in (KINDS if kinds is None else kinds).items():
        for seed in SEEDS:
            pair = draw(seed)
            yield kind, seed, "neither", 1.0, *pair
            for side in SIDES:
                for c in LOPSIDED_SCALES:
                    if c != 1.0:
                        yield kind, seed, side, c, *lopsided(pair, side, c)
