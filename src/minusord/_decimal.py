"""The decimal core that the package's two float writers share.

``reporting`` renders each float of canonical JSON as ``'%.16e' % x`` and
``mmio`` writes each Matrix Market part as ``repr(x)``.  Both take the
digits of |x| from one scaled integer: with k = floor(log10 |x|), the 17
significant digits of |x| are N = |x| 10^(16 - k), a real number in
[10^16, 10^17), rounded to an integer.  :func:`scaled` forms N^ as one
long double product of the exact double and the correctly rounded
10^(16 - k); with 64 significant bits, |N^ - N| <= 2^-63 N < 0.011 for
N < 10^17.  So a comparison of N^ with a threshold that it clears by
``HALF_WINDOW`` is the same comparison of N, and each writer sends the
elements it cannot decide so, one by one, to the template of its format.
Where long double has fewer than 63 fraction bits (:func:`exact`), every
array takes the template.  The digits and exponents are laid out from
4-byte word tables, ``CHUNK`` floats at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# 16 - k over every finite double, k = floor(log10 |x|), lies in
# POW_LOW ... POW_HIGH, and k in -EXP_MAX ... EXP_MAX.
POW_LOW, POW_HIGH = -292, 340
EXP_MAX = 324
CHUNK = 8192
HALF_WINDOW = 0.0125
#: The width of the '%-23.16e' text of a positive double: d.dddddddddddddddde,
#: the exponent's sign and two or three digits, padded with spaces.
_E16 = 23


def exact() -> bool:
    """Whether long double holds the 63 fraction bits the error bound of
    N^ needs."""
    return np.finfo(np.longdouble).nmant >= 63


def _words(*columns) -> np.ndarray:
    """One 4-byte word per row of the four ASCII ``columns``."""
    return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).reshape(-1)


@functools.cache
def tables():
    """Built on first use: the correctly rounded long double powers
    10^POW_LOW ... 10^POW_HIGH; the digits of 0 ... 9999, a word each; and
    for k = -EXP_MAX ... EXP_MAX the word of "e", the sign of k and the
    hundreds and tens digits of |k|, and the units digit of |k|."""
    texts = np.char.add("1e", np.arange(POW_LOW, POW_HIGH + 1).astype(str))
    powers = texts.astype(np.longdouble)
    d = ord("0")
    n = np.arange(10000)
    digits = _words(n // 1000 + d, n // 100 % 10 + d, n // 10 % 10 + d, n % 10 + d)
    k = np.arange(-EXP_MAX, EXP_MAX + 1)
    exponents = _words(np.full_like(k, ord("e")), np.where(k < 0, ord("-"), ord("+")),
                       abs(k) // 100 + d, abs(k) // 10 % 10 + d)
    return powers, digits, exponents, (abs(k) % 10 + d).astype(np.uint8)


def scaled(a: np.ndarray):
    """k = floor(log10 a) and N^ = a 10^(16 - k), as its int64 whole part
    and its float64 fraction, for finite a >= 0; a zero gives k = 0 and
    N^ = 0.  The fraction is exact: N^ >= 2^53 has at most 10 fraction
    bits."""
    k = np.floor(np.log10(np.where(a == 0, 1.0, a))).astype(np.intp)
    n = a.astype(np.longdouble) * tables()[0].take(16 - k - POW_LOW)
    whole = n.astype(np.int64)
    return k, whole, (n - whole).astype(np.float64)


def digits(m: np.ndarray):
    """The ASCII lead digit of each integer of ``m`` in [0, 10^17) and the
    words of its other 16 digits, four per row.  After one int64 division
    the digits are cut from 32-bit integers, and each remainder is taken as
    x - (x // d) d, which numpy computes faster than x % d."""
    high = m // 10**8
    low = (m - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10**8
    high -= lead * 10**8
    quads = np.empty((len(m), 4), np.uint32)
    quads[:, 0] = high // 10**4
    quads[:, 1] = high - quads[:, 0] * 10**4
    quads[:, 2] = low // 10**4
    quads[:, 3] = low - quads[:, 2] * 10**4
    return lead + ord("0"), tables()[1].take(quads)


def exponent(k: np.ndarray):
    """The word of "e", the sign and the hundreds and tens of each
    exponent of ``k``, and the ASCII digit of its units."""
    _, _, words, units = tables()
    return words.take(k + EXP_MAX), units.take(k + EXP_MAX)


def scientific(values: np.ndarray):
    """The 17 digits, as one integer, and the exponent of ``'%.16e' % v``
    for each positive finite ``v`` of ``values``: one template renders
    them all at a fixed width, and one numpy pass reads its bytes back."""
    text = (f"%-{_E16}.16e" * values.size) % tuple(values.tolist())
    c = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _E16).astype(np.int64)
    c -= ord("0")
    m = c[:, [0, *range(2, 18)]] @ 10 ** np.arange(16, -1, -1)
    # a two-digit exponent leaves a space, below "0", in the last column
    k = np.where(c[:, 22] >= 0, c[:, 20:23] @ [100, 10, 1], c[:, 20:22] @ [10, 1])
    return m, np.where(c[:, 19] == ord("-") - ord("0"), -k, k)
