"""Sequential decision procedures and the static step-up baseline.

Two one-pass streaming rules share a budget schedule: one resets the
budget clock at each discovery (``lord_step``), the other scales the
budget by the discovery count (``lond_step``). Both decide each
hypothesis from past P-values only. On an unbounded stream the step is
the whole cost, so a step returns a ``Decision`` named tuple (immutable,
and about the cheapest record Python builds) and reads its level through
``schedule.lambda_at``, one list index when the schedule's point-read
slot holds the index's chunk. ``bh_reject`` is the classic static
step-up rule over a complete P-value vector, used as a non-sequential
baseline.

``run_stream`` and the ``*_levels`` array forms compute exactly what
folding the step functions would, through one core shared by both
rules. A rule is three small functions: the levels of a stretch of
indices from each index's discovery state (last discovery ``t`` for
lord, count ``D`` for lond), the states that a stretch of rejections
leaves (a running max of rejected indices, a running sum), and the
state that one rejection leaves, which keeps a round free of array work
for the state it hands on.

The core reads the schedule once and solves states -> levels ->
rejections -> states in rounds over a window of positions. The map is
causal (the state before index i depends on rejections before i only),
so from the exact state at the window's start and any guess of the
window's rejections, the outcome is exact up to and including the first
position where it differs from the guess: an exact prefix of states
yields exact rejections and so an exact next state. Each round thus
settles at least one position, and the next round starts there, guessing
what this one decided past it. A window is a few times the last round's
settled count, capped: a stretch of acceptances (empty guess, one state,
levels a fixed slice of the schedule) is a few vectorized comparisons,
a dense stream settles long runs per round once the guess has caught up,
and a discovery chain, where each rejection enables the next, settles
one link per round on a small window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

# A window holds 8 times the positions the last round settled, so a
# discovery chain pays one 8-value round per link, and the emptiness test
# is count_nonzero (0.5 us on 8 values; .any() takes 1.8 us). Measured at
# n = 1e5 on a 2-vCPU VM (Python 3.11, numpy 2.4): growing by 4 took
# beta = 0.2 lord mixtures from 12 to 22 ms, growing by 16 took the lord
# chain p_i = lambda_1 from 455 to 593 ms.
_GROW = 8
# A round whose guess holds a discovery rebuilds the states of its whole
# window. At n = 1e5, beta = 0.6 mixtures with hits ran up to 2.3 times
# slower under a cap of 65536 than under 8192.
_WINDOW_MAX = 8192


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


class Decision(NamedTuple):
    """One step's record; ``rejected`` holds iff ``p <= alpha``.

    A named tuple, so immutable and cheap to build once per step; it
    compares and unpacks as the tuple ``(index, alpha, p, rejected)``.
    """

    index: int
    alpha: float
    p: float
    rejected: bool


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:  # False at NaN too
        raise ValueError(f"P-value must lie in [0, 1], got {p}")
    return p


def _check_p_array(pvalues) -> np.ndarray:
    arr = np.asarray(pvalues, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"P-values must form a 1-D sequence, got shape {arr.shape}")
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
    alpha = schedule.lambda_at(i) * (state.discoveries + 1)
    alpha = alpha if alpha < 1.0 else 1.0  # min(1.0, alpha) without the call
    rejected = p <= alpha
    if rejected:
        state.discoveries += 1
    state.next_index = i + 1
    return Decision(i, alpha, p, rejected)


def _lord_level(lam: np.ndarray, lo: int, hi: int, t) -> np.ndarray:
    """Levels ``lambda_{i - t}`` of indices lo+1..hi, t the last discovery before each."""
    if isinstance(t, int):  # one state for the whole stretch (an empty guess): a view
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
    Each round covers a window ``[lo, hi)`` from the exact state ``s``
    before ``lo``. Its guess is ``rejected[lo:hi]``, what earlier rounds
    wrote there (nothing at first): any guess is safe, since the outcome
    is exact up to and including its first difference from the guess,
    and those ``k`` positions are settled. A round writes ``alpha`` and
    ``rejected`` over its whole window, so a position keeps the values of
    the round that settles it, and the rest are the next round's guess.
    The next state is the one before the last settled position, moved on
    by ``hit`` if that position rejects.
    """
    level, state, hit = rule
    n = p.size
    lam = schedule.slice(1, n + 1)
    alpha = np.empty(n, dtype=np.float64)
    rejected = np.zeros(n, dtype=bool)
    lo, s, k = 0, 0, 1
    while lo < n:
        hi = min(n, lo + min(_WINDOW_MAX, _GROW * k))
        guess = rejected[lo:hi]
        # The state before each window position, or one int under an empty guess.
        states = np.concatenate(([s], state(guess[:-1], lo, s))) if np.count_nonzero(guess) else s
        a = level(lam, lo, hi, states)
        r = p[lo:hi] <= a
        moved = (r != guess).nonzero()[0]  # np.flatnonzero adds ~2 us a round
        k = int(moved[0]) + 1 if moved.size else hi - lo
        alpha[lo:hi] = a
        rejected[lo:hi] = r
        if isinstance(states, np.ndarray):
            s = int(states[k - 1])
        lo += k
        if r[k - 1]:
            s = hit(lo, s)
    return alpha, rejected


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
    return list(map(Decision, range(1, p.size + 1), alpha.tolist(), p.tolist(), rejected.tolist()))


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
