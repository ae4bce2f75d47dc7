"""Significance-budget sequences consumed by the streaming procedures.

A schedule is a positive, non-increasing sequence ``lambda_i`` whose
infinite sum equals the total FDR budget ``q``. Two kinds are provided:

* power: ``lambda_i = L * i**-nu`` with ``nu > 1`` and ``L = q / zeta(nu)``;
* adaptive: ``lambda_i = L / ((i + 1) * log(i + 1)**2)``, which is summable
  yet decays slower than every power ``i**-nu`` with ``nu > 1``, so it
  needs no tuning of ``nu``.

A value is a function of its index alone: one expression over
``arange(lo, hi)`` builds any range, and numpy's elementwise loops give
each element the same bits wherever it sits in the array, so a value
reads the same through any call and in any order. A schedule is a
frozen dataclass of its four defining fields and keeps nothing else:
``slice`` and ``prefix`` build the range asked for and return it as a
fresh read-only array, and ``lambda_at`` builds its one value. So a
schedule is immutable, hashable and safe to share between threads and
streams, and it holds the same few bytes however far it is read. A
reader that steps through the values keeps its own cursor
(``_ChunkCursor``, which the engine states inherit): the 4096 values
from the index it last missed at, read through ``slice`` when it moves
past them, so a stream builds each value once and holds one window
however long it runs, and streams sharing a schedule never evict each
other's window. A caller that reads one range many times, such as a
simulation grid sharing lambda_1 .. lambda_n across its cells, keeps
the array it got.

Neither kind loads scipy, except a power schedule whose ``nu`` is a
non-integer in (10, 50]: ``make_power_schedule`` evaluates ``zeta(nu)``
in plain floats, bit for bit as ``scipy.special.zeta`` does, and imports
``scipy.special`` for that one range alone. So the cold start of
``streamfdr stream`` and ``schedule`` stays short under either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FieldError", "LambdaSchedule", "make_power_schedule", "make_adaptive_schedule"]

_CHUNK = 4096

# sum_{j>=2} 1/(j log^2 j): the pairwise float sum of its first 1e7 terms
# plus the Euler-Maclaurin tail 1/log(M) + f(M)/2 - f'(M)/12 from
# M = 1e7 + 2, with f(x) = 1/(x log^2 x). Kept to the bit, since every
# adaptive level is derived from it.
_ADAPTIVE_NORM = 2.1097428012368904

# The constants of Cephes ``zetac`` (Stephen L. Moshier's Cephes Math
# Library, which scipy.special carries and evaluates for ``zeta``): the
# rational's coefficients on (1, 10], highest power of 1/x first, the
# denominator's leading 1 implied ...
_ZETAC_P = (5.85746514569725319540E11, 2.57534127756102572888E11, 4.87781159567948256438E10,
            5.15399538023885770696E9, 3.41646073514754094281E8, 1.60837006880656492731E7,
            5.92785467342109522998E5, 1.51129169964938823117E4, 2.01822444485997955865E2)
_ZETAC_Q = (3.90497676373371157516E11, 5.22858235368272161797E10, 5.64451517271280543351E9,
            3.39006746015350418834E8, 1.79410371500126453702E7, 5.66666825131384797029E5,
            1.60382976810944131506E4, 1.96436237223387314144E2)
# ... and zeta(k) - 1 for k = 2 .. 30, each correctly rounded (computed
# once with mpmath at 300 bits).
_ZETAC_INT = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819, 0.03692775514336993,
    0.01734306198444914, 0.008349277381922827, 0.00407735619794434, 0.0020083928260822143,
    0.0009945751278180853, 0.0004941886041194645, 0.0002460865533080483,
    0.00012271334757848915, 6.124813505870483e-05, 3.058823630702049e-05,
    1.528225940865187e-05, 7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
    1.862659723513049e-09, 9.313274324196682e-10,
)


class FieldError(ValueError):
    """An invalid value; ``field`` names the field or argument at fault."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:  # False at NaN too
        raise FieldError("q", f"q must lie in (0, 1), got {q}")
    return q


def _index(name: str, value, least: int) -> int:
    """``value`` as an int; a ``FieldError`` naming it unless a whole number >= least."""
    try:
        if (whole := int(value)) == value >= least:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise FieldError(name, f"{name} must be an integer >= {least}, got {value!r}")


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not nu > 1.0:  # True at NaN too
        raise FieldError("nu", f"nu must exceed 1 (the series diverges otherwise), got {nu}")
    return nu


class _ChunkCursor:
    """Point reads for one reader: ``(schedule, lo, hi, values)`` of the window read last.

    ``values`` is a memoryview of the read-only array that
    ``schedule.slice`` returned for lambda_lo .. lambda_{hi-1}, the
    ``_CHUNK`` values (32 KB) from the index that last missed; the slice
    is fresh, so the cursor alone holds it. The engine states inherit the
    cursor. It is a class-level default shadowed per instance, not a
    field, so it stays out of ``==``, ``repr`` and ``asdict``;
    ``__getstate__`` drops it from pickles and copies (a memoryview cannot
    be pickled), which refill on their first read. Any object whose
    ``slice`` returns a float64 array serves as a schedule.
    """

    _cursor = (None, 1, 1, None)

    def _lambda(self, schedule, i: int) -> float:
        """lambda_i of ``schedule``, i >= 1: one memoryview index on a hit."""
        if not (type(i) is int and i >= 1):
            i = _index("index", i, 1)
        owner, lo, hi, values = self._cursor
        if owner is not schedule or not lo <= i < hi:
            lo, hi = i, i + _CHUNK
            values = memoryview(schedule.slice(lo, hi))
            self._cursor = (schedule, lo, hi, values)
        return values[i - lo]

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "_cursor"}


@dataclass(frozen=True)
class LambdaSchedule:
    """A concrete significance-budget sequence, immutable and hashable.

    ``normalizer`` is the constant L that makes the infinite sum equal
    ``q``. The four fields are the whole state: each value is a function
    of its index alone, every read builds the values it returns and keeps
    nothing, so a schedule is safe to share without a lock.
    """

    kind: str
    q: float
    nu: float | None
    normalizer: float

    def __post_init__(self) -> None:
        if self.kind not in ("power", "adaptive"):
            raise ValueError(f"kind must be 'power' or 'adaptive', got {self.kind!r}")

    def _values(self, lo: int, hi: int) -> np.ndarray:
        """lambda_lo .. lambda_{hi-1}, freshly built by the schedule's expression."""
        i = np.arange(lo, hi, dtype=np.float64)
        return (self.normalizer * i ** (-self.nu) if self.kind == "power"
                else self.normalizer / ((i + 1.0) * np.log(i + 1.0) ** 2))

    def lambda_at(self, i: int) -> float:
        """The i-th budget value, i >= 1.

        A point read: each call builds the one value (2-4 us on a 2-vCPU
        x86 host) and keeps nothing. For runs of values use
        ``slice``/``prefix``, or the steps, whose state keeps the window
        it reads.
        """
        i = _index("index", i, 1)
        return float(self._values(i, i + 1)[0])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Values lambda_lo .. lambda_{hi-1} as a fresh read-only array (lo >= 1).

        Each call builds the range (about 1.3 ms per 1e5 power values) and
        the schedule keeps none of it; a caller reading one range often
        keeps the array.
        """
        lo = _index("lo", lo, 1)
        values = self._values(lo, _index("hi", hi, lo))
        values.flags.writeable = False
        return values

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n as a fresh read-only array: ``slice(1, n + 1)``."""
        return self.slice(1, n + 1)


def _zeta(x: float) -> float:
    """zeta(x) for a float x > 1, with the bits of ``float(scipy.special.zeta(x))``.

    scipy evaluates 1 + Cephes ``zetac(x)``; this runs the same operations
    in the same order on Python floats, whose ``math.pow`` is the C
    library's ``pow`` that scipy calls. Cephes uses a rational exp with
    coefficients not kept here on (10, 50], so a non-integer x there is
    passed to scipy. An integer 31 .. 50 takes the odd-term sum instead;
    at each of those 20 points it gives scipy's bits (the tests check
    every one).
    """
    if x >= 127.0:  # zeta - 1 < 2**-126, far under half an ulp of 1; inf lands here too
        return 1.0
    if x <= 30.0 and x.is_integer():
        return 1.0 + _ZETAC_INT[int(x) - 2]
    if x <= 10.0:
        w = 1.0 / x
        p = _ZETAC_P[0]
        for c in _ZETAC_P[1:]:
            p = p * w + c
        s = w + _ZETAC_Q[0]
        for c in _ZETAC_Q[1:]:
            s = s * w + c
        return 1.0 + (x * p) / (math.pow(2.0, x) * (x - 1.0) * s)
    if x <= 50.0 and not x.is_integer():
        from scipy import special

        return float(special.zeta(x))
    # The odd terms 3**-x + 5**-x + ... until one adds at most 2**-53 of
    # the sum, then (s + 2**-x) / (1 - 2**-x) adds the even terms.
    s, a = 0.0, 1.0
    while True:
        a += 2.0
        b = math.pow(a, -x)
        s += b
        if b / s <= 2.0**-53:
            break
    b = math.pow(2.0, -x)
    return 1.0 + (s + b) / (1.0 - b)


def make_power_schedule(nu: float, q: float) -> LambdaSchedule:
    """Power-law schedule ``lambda_i = L * i**-nu`` summing to ``q``.

    ``nu`` must exceed 1 for the series to converge; L = q / zeta(nu).
    L has the bits of ``q / scipy.special.zeta(nu)`` for every ``nu``:
    ``_zeta`` runs the formula scipy runs, Cephes ``zetac`` plus 1, with
    Cephes's coefficients and a table of zeta(k) - 1 for integers k up
    to 30. scipy is imported only for a non-integer ``nu`` in (10, 50],
    where Cephes uses a rational exp whose coefficients are not kept here.
    """
    nu = _check_nu(nu)
    q = _check_q(q)
    return LambdaSchedule(kind="power", q=q, nu=nu, normalizer=q / _zeta(nu))


def make_adaptive_schedule(q: float) -> LambdaSchedule:
    """Slow-decay schedule ``lambda_i = L / ((i+1) log(i+1)^2)``.

    Summable, strictly decreasing, and ``i**nu * lambda_i`` diverges for
    every ``nu > 1``, so it trades a little early budget for robustness
    when the right power exponent is unknown.
    """
    q = _check_q(q)
    return LambdaSchedule(kind="adaptive", q=q, nu=None, normalizer=q / _ADAPTIVE_NORM)
