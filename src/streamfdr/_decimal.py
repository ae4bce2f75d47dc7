"""Shortest decimal digits of float64 arrays, as ``repr`` picks them.

``shortest(x)`` gives, for each normal float64 in (0, 1], the digits and
decimal point of the shortest decimal that reads back as that float,
and of those the closest: the digits ``repr`` prints. It runs Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), in the
integer operations of Java's ``DoubleToDecimal``: the float and the two
ends of its rounding interval scaled by a 126-bit power of ten and
rounded to odd, then a handful of comparisons, with no loop, so numpy
runs it over a whole array at once. Every operand is uint64 (numpy turns
uint64 mixed with int64 into float64); a 64 x 64-bit product is taken in
32-bit halves, and the two ends are the float's product plus 128-bit
steps kept in the table.

Zero and subnormals are outside the domain: their digits are
unspecified. Java renders some subnormals unlike ``repr`` (``4.9e-324``
for ``5e-324``), so a caller checks for them and prints them another way.

``QUADS`` and ``SIGNIFICANT`` turn four digits at a time into text. The
tables are built when this module is first imported, from Python ints.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shortest", "QUADS", "SIGNIFICANT"]

_U = np.uint64
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_E16 = _U(10**16)


def _flog10pow2(e: int) -> int:
    """floor(log10(2**e)) by Java's constants, exact for |e| < 1200 at least."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 * 2**e)), exact for |e| < 1200 at least."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10**e)), exact for |e| < 400 at least."""
    return (e * 913_124_641_741) >> 38


def _build_table():
    """One column per biased exponent and spacing; the decimal exponent of each.

    Column ``2 * e + irregular``, e the biased exponent of a float in
    (0, 1]. ``irregular`` marks a power of two above 2**-1022, whose
    lower neighbour is half as far as its upper one. The float is
    c 2**q, and Schubfach scales ``cp = 4 c 2**h`` by
    ``g = g1 2**63 + g0``, 10**-k scaled into [2**125, 2**126) and
    rounded up. The rows are the shift from c to cp, the 32-bit halves
    of g1 and g0, and the 128-bit products of g1 and g0 with the steps
    from cp to the lower and the upper end of the float's rounding
    interval.
    """
    columns, exponents = [], []
    for e in range(1024):
        q = e - 1075
        for irregular in (False, True):
            if irregular and e > 1:
                k, lower = _flog10_three_quarters_pow2(q), 1
            else:
                k, lower = _flog10pow2(q), 2
            h = q + _flog2pow10(-k) + 2
            r = _flog2pow10(-k) - 125
            g = (10**-k << -r if r < 0 else 10**-k >> r) + 1
            g1, g0 = g >> 63, g & ((1 << 63) - 1)
            column = [2 + h, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF]
            for step in (lower << h, 2 << h):
                for product in (g1 * step, g0 * step):
                    column += [product >> 64, product & ((1 << 64) - 1)]
            columns.append(column)
            exponents.append(k)
    return np.array(columns, dtype=np.uint64).T.copy(), np.array(exponents, dtype=np.int64)


_TABLE, _EXPONENT = _build_table()


def _mul(a_hi, a_lo, b_hi, b_lo):
    """(high, low) 64-bit words of a b, for a < 2**63 and b < 2**61 in 32-bit halves."""
    middle = a_hi * b_lo + a_lo * b_hi  # < 2**63 + 2**61: no carry out
    bottom = a_lo * b_lo
    low = (middle << _U(32)) + bottom
    return a_hi * b_hi + (middle >> _U(32)) + (low < bottom), low


def _add(hi, lo, b_hi, b_lo):
    low = lo + b_lo
    return hi + b_hi + (low < lo), low


def _sub(hi, lo, b_hi, b_lo):
    low = lo - b_lo
    return hi - b_hi - (low > lo), low


def _round_to_odd(x1, y1, y0):
    """Java's ``rop``: g cp 2**-127 rounded to odd, from x1 = hi(g0 cp) and g1 cp."""
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> _U(63))) | ((z & _LOW63) != 0)


def shortest(x):
    """(digits, point) with ``x = 0.d1 d2 ... d17 * 10**point`` for each float64 in (0, 1].

    ``digits`` is a uint64 array in [10**16, 10**17): its digits up to the
    last nonzero one are the shortest that read back as ``x``, the closest
    to ``x`` among those, as ``repr`` prints them. ``point`` is int64.
    Zero and subnormals give unspecified digits.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    fraction = bits & _FRACTION
    column = ((bits >> _U(51) & ~_ONE) | (fraction == 0)).astype(np.intp)
    (shift, g1_hi, g1_lo, g0_hi, g0_lo,
     lower_g1_hi, lower_g1_lo, lower_g0_hi, lower_g0_lo,
     upper_g1_hi, upper_g1_lo, upper_g0_hi, upper_g0_lo) = _TABLE.take(column, axis=1)
    cp = (fraction | _HIDDEN) << shift
    cp_hi, cp_lo = cp >> _U(32), cp & _LOW32
    x1, x0 = _mul(g0_hi, g0_lo, cp_hi, cp_lo)
    y1, y0 = _mul(g1_hi, g1_lo, cp_hi, cp_lo)
    odd = fraction & _ONE  # an odd significand's interval excludes its ends
    vb = _round_to_odd(x1, y1, y0)  # 4 x 10**-k
    vbl = _round_to_odd(_sub(x1, x0, lower_g0_hi, lower_g0_lo)[0],
                        *_sub(y1, y0, lower_g1_hi, lower_g1_lo)) + odd
    vbr = _round_to_odd(_add(x1, x0, upper_g0_hi, upper_g0_lo)[0],
                        *_add(y1, y0, upper_g1_hi, upper_g1_lo)) - odd
    s = vb >> _TWO  # floor(x 10**-k), at least 10**15 for a normal float
    # A digit fewer: one of the multiples of ten around s, if it alone is in the interval.
    sp10 = s // _TEN * _TEN
    upin = vbl <= sp10 << _TWO
    wpin = (sp10 + _TEN) << _TWO <= vbr
    # Otherwise s or s + 1; when both are in, the closer, and at a tie
    # (2**-25 is one) the even one.
    s4 = s << _TWO
    pick_up = ~(vbl <= s4) | (s4 + _U(4) <= vbr) & (vb + (s & _ONE) >= s4 + _U(3))
    d = np.where(upin != wpin, sp10 + _TEN * wpin, s + pick_up)
    short = d < _E16
    return np.where(short, d * _TEN, d), _EXPONENT.take(column) + 17 - short


# "0000" .. "9999", four ASCII bytes in one uint32 each, and how many of
# them a number's digits keep when they end there: up to the last nonzero.
QUADS = np.frombuffer(b"".join(b"%04d" % k for k in range(10000)), dtype=np.uint32)
SIGNIFICANT = np.array([len((b"%04d" % k).rstrip(b"0")) for k in range(10000)], dtype=np.intp)
