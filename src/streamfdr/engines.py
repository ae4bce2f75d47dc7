"""Sequential decision procedures and the static step-up baseline.

Two one-pass streaming rules share a budget schedule: one resets the
budget clock at each discovery (``lord_step``), the other scales the
budget by the discovery count (``lond_step``). Both decide each
hypothesis from past P-values only. ``bh_reject`` is the classic static
step-up rule over a complete P-value vector, used as a non-sequential
baseline.

``run_stream`` and the ``*_levels`` array forms compute exactly what
folding the step functions would, through one core shared by both
rules. A rule is three small functions: the levels of a stretch of
indices from each index's discovery state (last discovery ``t`` for
lord, count ``D`` for lond), the states that a stretch of rejections
leaves (a running max of rejected indices, a running sum), and the
state that one rejection leaves, which keeps the scan below free of
array work per discovery.

The core reads the schedule once and solves the sequence as a fixpoint:
states -> levels -> rejections -> states, started from "no discoveries".
The map is causal (the state before index i depends on rejections
before i only), so any fixpoint is the sequential solution. Better, if
two consecutive state vectors agree on positions before m, those
positions are already exact: by induction, position 0 always has the
empty state, and an exact prefix of states yields exact rejections and
so an exact next state. Each round therefore settles at least one more
position; in dense streams the iterates climb to the fixpoint in a few
rounds (the schedule is non-increasing, so more discoveries only raise
levels). Sparse streams, and any stream still unsettled after a capped
number of rounds, finish with a galloping block scan from the first
unsettled position: within a stretch of acceptances the levels are a
fixed slice of the schedule, so each block is one vectorized comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import LambdaSchedule, _check_q

__all__ = [
    "LordState",
    "LondState",
    "Decision",
    "lord_step",
    "lond_step",
    "lord_levels",
    "lond_levels",
    "run_stream",
    "bh_reject",
    "bh_mask",
]

# Block scans gallop: start small so dense-discovery streams pay per
# discovery, double on every miss so long acceptance runs stay vectorized.
_SCAN_MIN = 64
_SCAN_MAX = 65536
# A fixpoint round (1-2 ms at n=1e5) costs ~200 scanned discoveries (6-16 us each): 1 in 500.
_DENSE_SHARE = 1 / 500
# Dense mixtures settle in 5-8 rounds; 16 (~30 ms at n=1e5) cap what a slow-settling stream wastes.
_MAX_ROUNDS = 16


@dataclass
class LordState:
    """Per-stream state: 1-based next index and last discovery (0 = none)."""

    next_index: int = 1
    last_discovery: int = 0


@dataclass
class LondState:
    """Per-stream state: 1-based next index and discovery count."""

    next_index: int = 1
    discoveries: int = 0


@dataclass(frozen=True)
class Decision:
    """One step's record; ``rejected`` holds iff ``p <= alpha``."""

    index: int
    alpha: float
    p: float
    rejected: bool


def _check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"P-value must lie in [0, 1], got {p}")
    return p


def _check_p_array(pvalues) -> np.ndarray:
    arr = np.asarray(pvalues, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    ok = (arr >= 0.0) & (arr <= 1.0)  # False at NaN too
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(
            f"P-values must lie in [0, 1]: position {k} (0-based) holds {float(arr[k])}"
        )
    return arr


def lord_step(state: LordState, schedule: LambdaSchedule, p: float) -> Decision:
    """Decide one hypothesis with the level set by time since last discovery.

    ``alpha_i = lambda_{i - t}`` where ``t`` is the index of the most
    recent rejection (0 before any). Equality ``p == alpha`` rejects.
    """
    p = _check_p(p)
    i = state.next_index
    alpha = schedule.lambda_at(i - state.last_discovery)
    rejected = p <= alpha
    if rejected:
        state.last_discovery = i
    state.next_index = i + 1
    return Decision(i, alpha, p, rejected)


def lond_step(state: LondState, schedule: LambdaSchedule, p: float) -> Decision:
    """Decide one hypothesis with the level scaled by discoveries so far.

    ``alpha_i = lambda_i * (D + 1)`` with D the discovery count before
    step i, clamped to 1 (the product can exceed 1 for large D).
    """
    p = _check_p(p)
    i = state.next_index
    alpha = min(1.0, schedule.lambda_at(i) * (state.discoveries + 1))
    rejected = p <= alpha
    if rejected:
        state.discoveries += 1
    state.next_index = i + 1
    return Decision(i, alpha, p, rejected)


def _lord_level(lam: np.ndarray, lo: int, hi: int, t) -> np.ndarray:
    """Levels ``lambda_{i - t}`` of indices lo+1..hi, t the last discovery before each."""
    if isinstance(t, int):  # one state for the whole stretch (the scan): a view
        return lam[lo - t : hi - t]
    return lam[np.arange(lo, hi) - t]


def _lord_state(rejected: np.ndarray, lo: int, t: int) -> np.ndarray:
    """Last discovery after each of indices lo+1..: running max of rejected indices."""
    return np.maximum.accumulate(np.where(rejected, np.arange(lo + 1, lo + rejected.size + 1), t))


def _lord_hit(i: int, t: int) -> int:
    """Last discovery after a rejection at index i."""
    return i


def _lond_level(lam: np.ndarray, lo: int, hi: int, d) -> np.ndarray:
    """Levels ``min(1, lambda_i (D + 1))`` of indices lo+1..hi, D the count before each."""
    return np.minimum(1.0, lam[lo:hi] * (d + 1))


def _lond_state(rejected: np.ndarray, lo: int, d: int) -> np.ndarray:
    """Discovery count after each of indices lo+1..: running sum of rejections."""
    return d + np.cumsum(rejected)


def _lond_hit(i: int, d: int) -> int:
    """Discovery count after a rejection at index i."""
    return d + 1


_RULES = {
    "lord": (_lord_level, _lord_state, _lord_hit),
    "lond": (_lond_level, _lond_state, _lond_hit),
}


def _levels(p: np.ndarray, schedule, rule):
    """Shared core of ``lord_levels``/``lond_levels`` on a validated array.

    ``rule`` is a rule's ``(level, state, hit)`` functions, as in ``_RULES``.
    """
    n = p.size
    lam = schedule.slice(1, n + 1)
    alpha = np.empty(n, dtype=np.float64)
    rejected = np.zeros(n, dtype=bool)
    i, s = 0, 0
    # Round 1 of the fixpoint, from "no discoveries" (lond's clamp cannot
    # change p <= lam for p in [0, 1]); its count is a lower bound on the
    # discoveries for a non-increasing schedule.
    if np.count_nonzero(p <= lam) > _DENSE_SHARE * n:
        i, s = _fixpoint(p, lam, rule, alpha, rejected)
    _scan(p, lam, rule, alpha, rejected, i, s)
    return alpha, rejected


def _fixpoint(p, lam, rule, alpha, rejected):
    """Iterate states -> levels -> rejections -> states from "no discoveries".

    Fills the settled prefix of ``alpha``/``rejected`` and returns the
    first unsettled position with its exact state.
    """
    level, state, _ = rule
    n = p.size
    lo = 0
    states = np.zeros(n, dtype=np.int64)  # state before each position lo..n-1
    for _ in range(_MAX_ROUNDS):
        a = level(lam, lo, n, states)
        r = p[lo:] <= a
        after = state(r, lo, int(states[0]))
        moved = np.flatnonzero(after[:-1] != states[1:])
        k = int(moved[0]) + 1 if moved.size else n - lo
        alpha[lo : lo + k] = a[:k]
        rejected[lo : lo + k] = r[:k]
        lo += k
        if lo == n:
            return n, 0
        states = after[k - 1 : -1]
    return lo, int(states[0])


def _scan(p, lam, rule, alpha, rejected, i, s):
    """Galloping block scan from position ``i`` with exact state ``s``."""
    level, _, hit = rule
    n = p.size
    block = _SCAN_MIN
    while i < n:
        stop = min(n, i + block)
        a = level(lam, i, stop, s)
        hits = np.flatnonzero(p[i:stop] <= a)
        if hits.size:
            h = int(hits[0]) + 1
            alpha[i : i + h] = a[:h]
            rejected[i + h - 1] = True
            i += h
            s = hit(i, s)
            block = _SCAN_MIN
        else:
            alpha[i:stop] = a
            i = stop
            block = min(2 * block, _SCAN_MAX)


def lord_levels(pvalues, schedule: LambdaSchedule):
    """Vectorized one-pass run of the recent-discovery rule.

    Returns ``(alpha, rejected)`` arrays bit-identical to folding
    ``lord_step`` over the stream.
    """
    return _levels(_check_p_array(pvalues), schedule, _RULES["lord"])


def lond_levels(pvalues, schedule: LambdaSchedule):
    """Vectorized one-pass run of the discovery-count rule.

    Returns ``(alpha, rejected)`` arrays bit-identical to folding
    ``lond_step`` over the stream.
    """
    return _levels(_check_p_array(pvalues), schedule, _RULES["lond"])




def run_stream(engine: str, schedule: LambdaSchedule, pvalues) -> list[Decision]:
    """Run a streaming procedure over a finite P-value list.

    The output equals folding the corresponding step function over the
    list from a fresh state; in particular the first m decisions depend
    only on the first m P-values.
    """
    try:
        rule = _RULES[engine.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"engine must be one of {sorted(_RULES)}, got {engine!r}") from None
    p = _check_p_array(pvalues)
    alpha, rejected = _levels(p, schedule, rule)
    return [
        Decision(k + 1, float(alpha[k]), float(p[k]), bool(rejected[k]))
        for k in range(p.size)
    ]


def bh_mask(pvalues, q: float) -> np.ndarray:
    """Boolean rejection mask of the static step-up rule at level ``q``.

    With sorted P-values p_(1) <= ... <= p_(n), find the largest j with
    ``p_(j) <= q * j / n`` and reject everything at or below p_(j); ties
    at the threshold value are all included. The thresholds rise with j
    (in floats too), so a passing rank has ``p_(j) <= q * n / n``: only
    the P-values up to that bound are sorted, and they are the first
    ranks of the full order. (In floats ``q * n / n`` can exceed q.)
    """
    q = _check_q(q)
    p = _check_p_array(pvalues)
    n = p.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    sorted_p = np.sort(p[p <= q * n / n])
    passed = sorted_p <= q * np.arange(1, sorted_p.size + 1, dtype=np.float64) / n
    if not passed.any():
        return np.zeros(n, dtype=bool)
    cutoff = sorted_p[int(np.flatnonzero(passed)[-1])]
    return p <= cutoff


def bh_reject(pvalues, q: float) -> set[int]:
    """1-based indices rejected by the step-up rule; empty input -> empty set."""
    mask = bh_mask(pvalues, q)
    return set((np.flatnonzero(mask) + 1).tolist())
