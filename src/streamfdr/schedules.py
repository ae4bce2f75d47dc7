"""Significance-budget sequences consumed by the streaming procedures.

A schedule is a positive, non-increasing sequence ``lambda_i`` whose
infinite sum equals the total FDR budget ``q``. Two kinds are provided:

* power: ``lambda_i = L * i**-nu`` with ``nu > 1`` and ``L = q / zeta(nu)``;
* adaptive: ``lambda_i = L / ((i + 1) * log(i + 1)**2)``, which is summable
  yet decays slower than every power ``i**-nu`` with ``nu > 1``, so it
  needs no tuning of ``nu``.

Values are built 4096 at a time by one expression. Bulk reads from index
1 grow a contiguous read-only prefix lambda_1 .. lambda_m (at least
doubling it) and get views of it; other bulk reads copy from the prefix
or from freshly built chunks. Point reads past the prefix own one slot
holding the chunk read last; from its second read on, as a Python list
(about 130 KB, against 32 KB as an array), so a hit is one list index
with no numpy scalar. A stream thus builds each chunk once and holds one
chunk however long it runs, and streams reading different chunks in turn
pay one build per read, not a build and a list. Point reads inside the
prefix read it and leave the slot alone.
``slice`` and ``prefix`` return read-only arrays, and lookups and slices
give the same bits in any order.

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
    """``value`` as an int; a ``ValueError`` naming it unless a whole number >= least."""
    try:
        if (whole := int(value)) == value >= least:
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class LambdaSchedule:
    """A concrete significance-budget sequence.

    ``normalizer`` is the constant L that makes the infinite sum equal
    ``q``. The point-read slot holds ``(c, list)`` for chunk ``c``, or
    ``(~c, array)`` after a single read of it. Safe to share without a
    lock: the prefix and the slot (a pair, read once) are replaced whole
    with correct values and never written once published, so a race
    costs at most a rebuild, and no reader pairs one chunk's number with
    another's.
    """

    kind: str
    q: float
    nu: float | None
    normalizer: float
    # An empty float64 array, read-only because bytes are immutable.
    _prefix: np.ndarray = field(default_factory=lambda: np.frombuffer(b""), repr=False, compare=False)
    _last: tuple = field(default=(None, None), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("power", "adaptive"):
            raise ValueError(f"kind must be 'power' or 'adaptive', got {self.kind!r}")

    def _chunk(self, c: int) -> np.ndarray:
        """Values of chunk ``c``: a view of the prefix, else freshly built."""
        prefix = self._prefix
        if (c + 1) * _CHUNK <= prefix.size:
            return prefix[c * _CHUNK : (c + 1) * _CHUNK]
        i = np.arange(c * _CHUNK + 1, (c + 1) * _CHUNK + 1, dtype=np.float64)
        return (self.normalizer * i ** (-self.nu) if self.kind == "power"
                else self.normalizer / ((i + 1.0) * np.log(i + 1.0) ** 2))

    def lambda_at(self, i: int) -> float:
        """The i-th budget value, i >= 1."""
        if not (type(i) is int and i >= 1):
            i = _index("index", i, 1)
        c, offset = divmod(i - 1, _CHUNK)
        key, values = self._last
        if key == c:
            return values[offset]
        prefix = self._prefix
        if i <= prefix.size:
            # No copy into the slot, so streams reading different chunks
            # of the prefix in turn do not rebuild the slot on every step.
            return float(prefix[i - 1])
        if key == ~c:
            # A second read of the chunk: worth the list (tolist() costs
            # about 3 builds, which streams reading different chunks in
            # turn would otherwise pay on every step).
            values = values.tolist()
            self._last = (c, values)
            return values[offset]
        values = self._chunk(c)
        self._last = (~c, values)
        return float(values[offset])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Values lambda_lo .. lambda_{hi-1} as a read-only array (lo >= 1).

        A range inside the prefix is a view of it. From ``lo == 1`` the
        prefix first grows to cover the range, at least doubling; any
        other range is copied from its chunks and leaves the prefix as is.
        """
        lo = _index("lo", lo, 1)
        hi = _index("hi", hi, lo)
        prefix = self._prefix
        if hi - 1 <= prefix.size or hi == lo:
            return prefix[lo - 1 : hi - 1]
        first, stop = (lo - 1) // _CHUNK, (hi - 2) // _CHUNK + 1
        if lo == 1:
            stop = max(stop, 2 * prefix.size // _CHUNK)
        values = np.concatenate([self._chunk(c) for c in range(first, stop)])
        values.flags.writeable = False
        if lo == 1:
            self._prefix = values
        return values[lo - 1 - first * _CHUNK : hi - 1 - first * _CHUNK]

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n as a read-only view of the grown prefix."""
        return self.slice(1, n + 1)


def make_power_schedule(nu: float, q: float) -> LambdaSchedule:
    """Power-law schedule ``lambda_i = L * i**-nu`` summing to ``q``.

    ``nu`` must exceed 1 for the series to converge; L = q / zeta(nu).
    """
    nu = float(nu)
    if not nu > 1.0:  # True at NaN too
        raise FieldError("nu", f"nu must exceed 1 (the series diverges otherwise), got {nu}")
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
