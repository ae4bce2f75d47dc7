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

Only ``make_power_schedule`` needs scipy (for ``zeta``), and it imports
``scipy.special`` on its first call; adaptive schedules never load scipy,
which keeps the cold start of ``streamfdr stream --adaptive`` short.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FieldError", "LambdaSchedule", "make_power_schedule", "make_adaptive_schedule"]

_CHUNK = 4096

# sum_{j>=2} 1/(j log^2 j): the pairwise float sum of its first 1e7 terms
# plus the Euler-Maclaurin tail 1/log(M) + f(M)/2 - f'(M)/12 from
# M = 1e7 + 2, with f(x) = 1/(x log^2 x). Kept to the bit, since every
# adaptive level is derived from it.
_ADAPTIVE_NORM = 2.1097428012368904


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


def make_power_schedule(nu: float, q: float) -> LambdaSchedule:
    """Power-law schedule ``lambda_i = L * i**-nu`` summing to ``q``.

    ``nu`` must exceed 1 for the series to converge; L = q / zeta(nu).
    """
    nu = _check_nu(nu)
    q = _check_q(q)
    from scipy import special

    return LambdaSchedule(kind="power", q=q, nu=nu, normalizer=q / float(special.zeta(nu)))


def make_adaptive_schedule(q: float) -> LambdaSchedule:
    """Slow-decay schedule ``lambda_i = L / ((i+1) log(i+1)^2)``.

    Summable, strictly decreasing, and ``i**nu * lambda_i`` diverges for
    every ``nu > 1``, so it trades a little early budget for robustness
    when the right power exponent is unknown.
    """
    q = _check_q(q)
    return LambdaSchedule(kind="adaptive", q=q, nu=None, normalizer=q / _ADAPTIVE_NORM)
