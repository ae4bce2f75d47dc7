"""Significance-budget sequences consumed by the streaming procedures.

A schedule is a positive, non-increasing sequence ``lambda_i`` whose
infinite sum equals the total FDR budget ``q``. Two kinds are provided:

* power: ``lambda_i = L * i**-nu`` with ``nu > 1`` and ``L = q / zeta(nu)``;
* adaptive: ``lambda_i = L / ((i + 1) * log(i + 1)**2)``, which is summable
  yet decays slower than every power ``i**-nu`` with ``nu > 1``, so it
  needs no tuning of ``nu``.

Values are materialized lazily in fixed-size chunks; scalar lookups and
array slices read the same chunk arrays, so both return bit-identical
floats no matter the access order. Chunks starting at or below
``_CACHE_LIMIT`` are kept; past it a schedule keeps only the chunk it
built last (the far slot), so a stream reading indices in order builds
each far chunk once and memory stays bounded however long it runs.

Only ``make_power_schedule`` needs scipy (for ``zeta``), and it imports
``scipy.special`` on its first call; adaptive schedules never load scipy,
which keeps the cold start of ``streamfdr stream --adaptive`` short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LambdaSchedule", "make_power_schedule", "make_adaptive_schedule"]

_CHUNK = 4096
# Chunks starting at or below this index are cached; beyond it only the
# most recently built chunk is kept (one per schedule), so unbounded
# streams cannot exhaust memory.
_CACHE_LIMIT = 10**7

# sum_{j>=2} 1/(j log^2 j): the pairwise float sum of its first 1e7 terms
# plus the Euler-Maclaurin tail 1/log(M) + f(M)/2 - f'(M)/12 from
# M = 1e7 + 2, with f(x) = 1/(x log^2 x). Kept to the bit, since every
# adaptive level is derived from it.
_ADAPTIVE_NORM = 2.1097428012368904


def _check_q(q: float) -> float:
    q = float(q)
    if math.isnan(q) or not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    return q


@dataclass
class LambdaSchedule:
    """A concrete significance-budget sequence.

    ``normalizer`` is the constant L that makes the infinite sum equal
    ``q``. Instances are immutable apart from the internal chunk cache
    and the far slot, and safe to share once constructed: the slot holds a
    ``(chunk number, values)`` pair replaced whole and read once, so no
    reader pairs one chunk's number with another chunk's values.
    """

    kind: str
    q: float
    nu: float | None
    normalizer: float
    _chunks: dict = field(default_factory=dict, repr=False, compare=False)
    _far: tuple = field(default=(-1, None), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("power", "adaptive"):
            raise ValueError(f"kind must be 'power' or 'adaptive', got {self.kind!r}")

    def _chunk(self, c: int) -> np.ndarray:
        cached = self._chunks.get(c)
        if cached is not None:
            return cached
        far_c, far_values = self._far
        if far_c == c:
            return far_values
        start = c * _CHUNK + 1
        i = np.arange(start, start + _CHUNK, dtype=np.float64)
        if self.kind == "power":
            values = self.normalizer * i ** (-self.nu)
        else:
            values = self.normalizer / ((i + 1.0) * np.log(i + 1.0) ** 2)
        if start <= _CACHE_LIMIT:
            self._chunks[c] = values
        else:
            self._far = (c, values)
        return values

    def lambda_at(self, i: int) -> float:
        """The i-th budget value, i >= 1."""
        if i != int(i) or i < 1:
            raise ValueError(f"index must be a positive integer, got {i}")
        c, offset = divmod(int(i) - 1, _CHUNK)
        return float(self._chunk(c)[offset])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Values lambda_lo .. lambda_{hi-1} as an array (lo >= 1)."""
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid index range [{lo}, {hi})")
        out = np.empty(hi - lo, dtype=np.float64)
        pos = lo
        while pos < hi:
            c, offset = divmod(pos - 1, _CHUNK)
            take = min(hi - pos, _CHUNK - offset)
            out[pos - lo : pos - lo + take] = self._chunk(c)[offset : offset + take]
            pos += take
        return out

    def prefix(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n as an array."""
        return self.slice(1, n + 1)


def make_power_schedule(nu: float, q: float) -> LambdaSchedule:
    """Power-law schedule ``lambda_i = L * i**-nu`` summing to ``q``.

    ``nu`` must exceed 1 for the series to converge; L = q / zeta(nu).
    """
    nu = float(nu)
    if math.isnan(nu) or nu <= 1.0:
        raise ValueError(f"nu must exceed 1 (the series diverges otherwise), got {nu}")
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
