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
rules. A rule is three small functions: a bound on every level the rule
can give a position, a walk over the positions whose P-values meet it,
and the levels that a set of rejections implies.

The core reads the schedule once and finds the candidates, the
positions whose P-value is at or below the largest level any past could
give there: the largest schedule value for lord (lambda_1 when the
schedule does not increase), ``lambda_i * i`` for lond (``D <= i - 1``,
multiplying a float by an exact integer is monotone, and lambda >= 0).
Only a candidate can reject, and a rule's state (last discovery ``t``,
discovery count ``D``) changes only at a rejection, so walking the
candidates in order with the step's own float expression, and nothing
else, yields every rejection and the exact state before each position.
The levels then follow from the rejected positions in one vectorized
pass. The cost is O(n) vectorized work plus one Python iteration (about
0.3 us) per candidate: a discovery chain costs what an all-zero stream
costs, and a stream of acceptances walks nothing.
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


def _lord_bound(p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Candidates of lord: every level is some lambda_j, so at most the largest."""
    return p <= lam.max(initial=0.0)


def _lord_walk(lam: memoryview, positions: list, values: list) -> list:
    """Rejected positions among the candidates; ``t`` is the last discovery (1-based)."""
    hits, t = [], 0
    for k, x in zip(positions, values):
        if x <= lam[k - t]:  # alpha_{k+1} = lambda_{k+1-t}
            t = k + 1
            hits.append(k)
    return hits


def _lord_levels(lam: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Levels ``lambda_{i - t}``: each run reads the schedule from lambda_1 again."""
    offset = np.arange(lam.size)
    offset -= np.repeat(np.cumsum(runs) - runs, runs)
    return lam.take(offset)


def _lond_bound(p: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Candidates of lond: with ``D <= i - 1`` every level is at most ``lambda_i * i``."""
    bound = np.arange(1.0, lam.size + 1.0)
    return p <= np.multiply(bound, lam, out=bound)


def _lond_walk(lam: memoryview, positions: list, values: list) -> list:
    """Rejected positions among the candidates; ``d`` is the discovery count plus one.

    The ``min(1, .)`` clamp of the step cannot change a decision, as p <= 1.
    """
    hits, d = [], 1
    for k, x in zip(positions, values):
        if x <= lam[k] * d:
            d += 1
            hits.append(k)
    return hits


def _lond_levels(lam: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Levels ``min(1, lambda_i (D + 1))``: ``D + 1`` counts the runs so far."""
    alpha = np.repeat(np.arange(1.0, runs.size + 1.0), runs)
    np.multiply(alpha, lam, out=alpha)
    return np.minimum(alpha, 1.0, out=alpha)


_RULES = {
    "lord": (_lord_bound, _lord_walk, _lord_levels),
    "lond": (_lond_bound, _lond_walk, _lond_levels),
}


def _levels(p: np.ndarray, schedule, rule):
    """Shared core of ``lord_levels``/``lond_levels`` on a validated array.

    ``rule`` is a rule's ``(bound, walk, levels)`` functions, as in
    ``_RULES``. The walk reads the schedule through a memoryview and the
    candidates as lists, so each step of it handles Python floats only.
    ``levels`` gets the lengths of the runs of positions that share a
    state: the first run starts the stream, and a new one starts right
    after each rejection inside it.
    """
    bound, walk, levels = rule
    n = p.size
    lam = schedule.slice(1, n + 1)
    positions = np.flatnonzero(bound(p, lam))
    hits = np.array(walk(memoryview(lam), positions.tolist(), p[positions].tolist()), dtype=np.intp)
    rejected = np.zeros(n, dtype=bool)
    rejected[hits] = True
    after = hits + 1
    return levels(lam, np.diff(after[after < n], prepend=0, append=n)), rejected


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
