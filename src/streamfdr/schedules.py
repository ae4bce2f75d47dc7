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
reads the same through any call and in any order. Bulk reads from index
1 grow a contiguous read-only prefix lambda_1 .. lambda_m (at least
doubling it) and get views of it; other bulk reads build their range.
The prefix is the only thing a schedule writes after construction, so
``lambda_at`` keeps nothing: past the prefix each call builds its one
value. A reader that steps through the values keeps its own cursor
(``_ChunkCursor``, which the engine states inherit): a copy of the 4096
values from the index it last missed at, refilled through ``slice``
when it moves past them, so a stream builds each value once and holds
one window however long it runs, and streams sharing a schedule never
evict each other's window. ``slice`` and ``prefix`` return read-only
arrays.

Only ``make_power_schedule`` needs scipy (for ``zeta``), and it imports
``scipy.special`` on its first call; adaptive schedules never load scipy,
which keeps the cold start of ``streamfdr stream --adaptive`` short.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    ``values`` is a memoryview of an owned copy of lambda_lo ..
    lambda_{hi-1}, the ``_CHUNK`` values (32 KB) from the index that
    last missed. The engine states inherit the cursor. It is a
    class-level default shadowed per instance, not a field, so it stays
    out of ``==``, ``repr`` and ``asdict``; ``__getstate__`` drops it from
    pickles and copies (a memoryview cannot be pickled), which refill on
    their first read. A miss refills through ``schedule.slice``, so any
    object with that method serves as a schedule.
    """

    _cursor = (None, 1, 1, None)

    def _lambda(self, schedule, i: int) -> float:
        """lambda_i of ``schedule``, i >= 1: one memoryview index on a hit."""
        if not (type(i) is int and i >= 1):
            i = _index("index", i, 1)
        owner, lo, hi, values = self._cursor
        if owner is not schedule or not lo <= i < hi:
            lo, hi = i, i + _CHUNK
            # A copy: a view of the prefix would keep the whole prefix alive.
            values = memoryview(np.array(schedule.slice(lo, hi), dtype=np.float64))
            self._cursor = (schedule, lo, hi, values)
        return values[i - lo]

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "_cursor"}


@dataclass
class LambdaSchedule:
    """A concrete significance-budget sequence.

    ``normalizer`` is the constant L that makes the infinite sum equal
    ``q``. Each value is a function of its index alone, and any range
    is built directly. Safe to share without a lock: the prefix, the one
    attribute written after construction, is replaced whole with correct
    values and never written once published.
    """

    kind: str
    q: float
    nu: float | None
    normalizer: float
    # An empty float64 array, read-only because bytes are immutable.
    _prefix: np.ndarray = field(default_factory=lambda: np.frombuffer(b""), repr=False, compare=False)

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

        A point read: inside the prefix it reads the prefix, past it each
        call builds the one value (2-4 us on a 2-vCPU x86 host) and keeps
        nothing. For runs of values use ``slice``/``prefix``, or the
        steps, whose state keeps the window it reads.
        """
        i = _index("index", i, 1)
        prefix = self._prefix
        return float(prefix[i - 1] if i <= prefix.size else self._values(i, i + 1)[0])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Values lambda_lo .. lambda_{hi-1} as a read-only array (lo >= 1).

        A range inside the prefix is a view of it. From ``lo == 1`` the
        prefix first grows to cover the range, at least doubling; any
        other range is built and leaves the prefix as is.
        """
        lo = _index("lo", lo, 1)
        hi = _index("hi", hi, lo)
        prefix = self._prefix
        if hi - 1 <= prefix.size:
            return prefix[lo - 1 : hi - 1]
        if lo > 1:
            values = self._values(lo, hi)
            values.flags.writeable = False
            return values
        size = prefix.size
        grown = np.concatenate([prefix, self._values(size + 1, max(hi - 1, 2 * size) + 1)])
        grown.flags.writeable = False
        self._prefix = grown
        return grown[: hi - 1]

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n as a read-only view of the grown prefix."""
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
