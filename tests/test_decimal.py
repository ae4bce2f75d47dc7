"""The vectorized shortest-digits kernel against ``repr``, one float at a time."""

import math

import numpy as np
import pytest

from streamfdr import _decimal

TINY = 2.0**-1022  # the least normal float


def repr_digits(x):
    """(17-digit significand, point) of ``repr(x)``: x = 0.ddd * 10**point."""
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    significand = int(whole + fraction)
    size = len(str(significand))
    return significand * 10 ** (17 - size), int(exponent or 0) - len(fraction) + size


def assert_matches_repr(x):
    x = np.asarray(x, dtype=np.float64)
    digits, point = _decimal.shortest(x)
    assert digits.dtype == np.uint64 and point.dtype == np.int64 and digits.shape == x.shape
    got = list(zip(digits.tolist(), point.tolist()))
    want = [repr_digits(v) for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_repr_digits_reads_both_notations():
    assert repr_digits(0.0001) == (10**16, -3)
    assert repr_digits(9.999999999999999e-05) == (99999999999999990, -4)
    assert repr_digits(0.25) == (25 * 10**15, 0)
    assert repr_digits(1.0) == (10**16, 1)


def test_random_normal_bit_patterns():
    bits = np.random.default_rng(20240).integers(1 << 52, 1023 << 52, 200_000, dtype=np.uint64,
                                                 endpoint=True)
    x = bits.view(np.float64)
    assert x.min() >= TINY and x.max() <= 1.0
    assert_matches_repr(x)


def test_powers_of_two_and_their_neighbours():
    # A power of two above 2**-1022 has a lower neighbour half as far as its
    # upper one (the irregular interval); 2**-25 is a tie between two 17-digit
    # candidates, decided to the even one.
    powers = np.ldexp(1.0, np.arange(-1022, 1))
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0)])
    assert_matches_repr(x[(x >= TINY) & (x <= 1.0)])


def test_short_decimals_across_exponents():
    mantissas = {10**n - 1 for n in range(1, 18)} | {10 ** (n - 1) for n in range(1, 18)}
    mantissas |= {int("31415926535897932"[:n]) for n in range(1, 18)}
    mantissas |= {5 * 10**n + 1 for n in range(16)}
    x = np.array([float(f"{m}e{e}") for m in sorted(mantissas) for e in range(-325, 1)])
    assert_matches_repr(x[(x >= TINY) & (x <= 1.0)])


@pytest.mark.parametrize("pair", [(0.0001, 9.999999999999999e-05), (1e-99, 1e-100),
                                  (TINY, math.nextafter(TINY, 1.0)), (1.0, math.nextafter(1.0, 0.0))])
def test_notation_boundaries(pair):
    assert_matches_repr(pair)


def test_any_shape():
    x = np.random.default_rng(3).random((5, 2, 3))
    digits, point = _decimal.shortest(x)
    assert digits.shape == point.shape == x.shape
    assert_matches_repr(x.ravel())


def test_quad_tables():
    assert _decimal.QUADS.dtype == np.uint32 and len(_decimal.QUADS) == 10000
    assert _decimal.QUADS[[0, 7, 1234, 9999]].tobytes() == b"0000000712349999"
    assert _decimal.SIGNIFICANT[[0, 1, 10, 1200, 1234, 9]].tolist() == [0, 4, 3, 2, 4, 4]
