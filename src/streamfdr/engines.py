"""Sequential decision procedures and the static step-up baseline.

Two one-pass streaming rules share a budget schedule: one resets the
budget clock at each discovery (``lord_step``), the other scales the
budget by the discovery count (``lond_step``). Both decide each
hypothesis from past P-values only. On an unbounded stream the step is
the whole cost, so a step returns a ``Decision`` named tuple (immutable,
and about the cheapest record Python builds) and reads its level through
the state's own cursor (``schedules._ChunkCursor``), one memoryview index
while the index stays in the window of values read last. ``bh_reject``
is the classic static step-up rule over a complete P-value vector, used
as a non-sequential baseline.

A block reaches the decision core through one entry per rule, its step
state's ``_decide``: one block of a stream from the state the stream
carries, as ``streamfdr stream`` decides it. ``run_stream`` and the
``*_levels`` array forms decide through a fresh state. All of them
compute exactly what folding the step functions would, through one core
function (``_rejected``) shared by both rules and by the simulation
cells. The core starts from any carried state: the stream index of its
first value and the rule's state before it. A rule (``_Rule``) is its
step state type and a few small functions: a bound on every level the
rule can give a position, a round's comparisons, the state that settled
rejections leave, and a walk with the step's own expression.

Lond reads the block's own lambda_{s+1} .. lambda_e and runs the core
from ``D + 1``. Lord's state before the block's first rejection is the
carried one, so one compare with the carried slice lambda_{s+1-t} ..
lambda_{e-t} finds that rejection; the rest of the block is a lord run
from a fresh state over lambda_1 ... So no call reads the schedule from
lambda_1 to a far index.

The core takes the positions it may reject from, with their P-values,
and returns the rejected ones; the array forms give it every position
(``None``, so they build no index array).
It finds the candidates, the positions whose P-value is at or below the
largest level any past could give there: the largest schedule value
for lord (lambda_1 when the schedule does not increase),
``lambda_i * (D + 1 + k)`` at block position k for lond (at most k
discoveries come before it in the block, multiplying a float by an
exact integer is monotone, and lambda >= 0). Only a candidate can
reject, and a rule's state (last discovery ``t``, discovery count ``D``)
changes only at a rejection. A position left out must therefore hold a
P-value no level reaches (such as 1.0 when every level is below 1), and
it changes nothing.

Both rules are monotone: more past rejections never lower a level. A
later last discovery reads the schedule nearer lambda_1, which is no
smaller since a schedule does not increase (lord needs this); a larger
count multiplies lambda_i by a larger whole number, which is no smaller
in floats too (lond). So the core decides the candidates in rounds. It
starts with no rejection of the block settled. Each round gives every
open candidate the level that the settled rejections imply and settles
those at or below it: the true state holds at least those rejections, so
its level is no lower, and by induction every settled candidate is a
true rejection. A candidate above the level it would have were every
open candidate before it rejected is an acceptance. A round that settles
nothing has found every rejection, as the first one missed would have
had its exact state and been settled. When the rounds stop short of
that, the step's own float expressions walk the candidates from the
first one left open, from its exact state, since every candidate before
it is decided.

So the cost is a few vectorized passes per round over the open
candidates, plus one Python iteration (about 0.1-0.3 us) per walked
candidate. An all-zero stream settles in one round and a dense mixture
in a few; neither walks. A stream of acceptances has no candidate. A
discovery chain settles one link per round, so its rounds stop after
the first and it walks every link. The block entries then rebuild the
levels from the rejected positions in one vectorized pass.

The step-up rule's cutoff likewise reads only the P-values at or below
``q * n / n`` with the full count n, so it can be given just those.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .schedules import LambdaSchedule, _check_q, _ChunkCursor

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
class LordState(_ChunkCursor):
    """Per-stream state: 1-based next index and last discovery (0 = none)."""

    next_index: int = 1
    last_discovery: int = 0

    def _decide(self, schedule, p: np.ndarray):
        """``(alpha, rejected)`` of the validated block ``p`` from this state, which then moves past it.

        The same as folding ``lord_step`` over the block, through the core.
        Before the first rejection the state is the carried one, so the
        levels are the carried slice lambda_{i - t} .. (i the next index,
        t the last discovery) and the first P-value at or below it is the
        first rejection, found in one compare. After it comes a fresh lord
        run over lambda_1 .., a view of the carried slice when that starts
        at lambda_1 (``t = i - 1``, or a fresh state); no call reads from
        lambda_1 to a far index. Each run of positions between rejections
        reads the schedule from lambda_1 again: a rest without a rejection
        is one copy of its slice, and only one with rejections is gathered.
        """
        i, t, n = self.next_index, self.last_discovery, p.size
        lam = schedule.slice(i - t, i - t + n)
        alpha, rejected = lam.copy(), p <= lam
        if rejected.any():
            skip = int(rejected.argmax()) + 1  # the positions up to the first rejection
            rejected[skip:] = False
            rest = p[skip:]
            if rest.size:
                head = lam[:rest.size] if i - t == 1 else schedule.slice(1, rest.size + 1)
                hits = _rejected(_RULES["lord"], head, rest)
                if hits.size:
                    rejected[hits + skip] = True
                    after = hits + 1
                    runs = np.diff(after[after < rest.size], prepend=0, append=rest.size)
                    offset = np.arange(rest.size)
                    offset -= np.repeat(np.cumsum(runs) - runs, runs)
                    head = head.take(offset)
                alpha[skip:] = head
            self.last_discovery = i + n - 1 - int(rejected[::-1].argmax())
        self.next_index = i + n
        return alpha, rejected


@dataclass
class LondState(_ChunkCursor):
    """Per-stream state: 1-based next index and discovery count."""

    next_index: int = 1
    discoveries: int = 0

    def _decide(self, schedule, p: np.ndarray):
        """``(alpha, rejected)`` of the validated block ``p`` from this state, which then moves past it.

        The same as folding ``lond_step`` over the block, through the core.
        The core runs over the block's own schedule values from ``d = D +
        1``, D the discovery count; the level at stream index j is
        ``min(1, lambda_j (d + c))``, c the block's rejections before j.
        """
        i, n = self.next_index, p.size
        lam = schedule.slice(i, i + n)
        d = self.discoveries + 1
        hits = _rejected(_RULES["lond"], lam, p, state=d)
        rejected = np.zeros(n, dtype=bool)
        rejected[hits] = True
        after = hits + 1
        runs = np.diff(after[after < n], prepend=0, append=n)  # each run shares d + c
        alpha = np.repeat(np.arange(d, d + runs.size, dtype=np.float64), runs)
        np.multiply(alpha, lam, out=alpha)
        self.discoveries += hits.size
        self.next_index = i + n
        return np.minimum(alpha, 1.0, out=alpha), rejected


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
    alpha = state._lambda(schedule, i - state.last_discovery)
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
    alpha = state._lambda(schedule, i) * (state.discoveries + 1)
    alpha = alpha if alpha < 1.0 else 1.0  # min(1.0, alpha) without the call
    rejected = p <= alpha
    if rejected:
        state.discoveries += 1
    state.next_index = i + 1
    return Decision(i, alpha, p, rejected)


def _lord_bound(values: np.ndarray, lam: np.ndarray, *_) -> np.ndarray:
    """Candidates of lord: every level is some lambda_j, so at most the largest.

    This holds for any schedule, position and start state. The rounds of
    ``_rejected`` need more: a schedule that does not increase, as
    ``LambdaSchedule`` defines one, so that a later last discovery never
    lowers a level.
    """
    return values <= lam.max(initial=0.0)


def _lord_round(lam: np.ndarray, positions: np.ndarray, values: np.ndarray, t):
    """``(hit, live)``: which open candidates meet ``lambda_{i - t}`` now, and which still can.

    ``hit`` compares with the level that the settled rejections give:
    ``t`` is 1 + the last settled position before each candidate (0 for
    none). ``live`` compares with the largest level, which takes every
    open candidate before it as a rejection too, so its ``t`` is 1 + the
    open candidate just before it when that is later.
    """
    at = positions - t
    hit = values <= lam.take(at)
    np.minimum(at[1:], np.diff(positions) - 1, out=at[1:])
    return hit, values <= lam.take(at)


def _lord_settle(t, positions: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """``t`` at each position once the ``hit`` ones are settled (read where ``hit`` is False)."""
    last = np.where(hit, positions, -1)
    np.maximum.accumulate(last, out=last)
    last += 1
    return np.maximum(t, last, out=last)


def _lord_walk(lam: memoryview, positions: list, values: list, t: int) -> list:
    """Rejected positions among the candidates; ``t`` is the last discovery (1-based)."""
    hits = []
    for k, x in zip(positions, values):
        if x <= lam[k - t]:  # alpha_{k+1} = lambda_{k+1-t}
            t = k + 1
            hits.append(k)
    return hits


def _lond_bound(values: np.ndarray, lam: np.ndarray, positions, d) -> np.ndarray:
    """Candidates of lond from ``d`` (1 + the discovery count before position 0).

    With at most k discoveries before position k, every level there is at
    most ``lambda_i * (d + k)``; multiplying a float by a larger whole
    number gives no smaller a float.
    """
    if positions is None:
        at, count = lam, np.arange(d, d + lam.size, dtype=np.float64)
    else:
        at, count = lam.take(positions), positions + float(d)
    return values <= np.multiply(at, count, out=count)


def _lond_round(lam: np.ndarray, positions: np.ndarray, values: np.ndarray, d):
    """``(hit, live)``: which open candidates meet ``lambda_i d`` now, and which still can.

    ``hit`` compares with the level that the settled rejections give:
    ``d`` is 1 + the settled count before each candidate. ``live``
    compares with the largest level, which counts every open candidate
    before it as a discovery too; a float times a larger whole number is
    no smaller. Neither needs the step's ``min(1, .)`` clamp, which
    cannot change a decision as p <= 1.
    """
    at = lam.take(positions)
    hit = values <= at * d
    count = np.arange(positions.size)
    count += d
    return hit, values <= np.multiply(at, count, out=at)


def _lond_settle(d, positions: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """``d`` at each position once the ``hit`` ones are settled (read where ``hit`` is False)."""
    count = np.cumsum(hit)
    count += d
    return count


def _lond_walk(lam: memoryview, positions: list, values: list, d: int) -> list:
    """Rejected positions among the candidates; ``d`` is the discovery count plus one."""
    hits = []
    for k, x in zip(positions, values):
        if x <= lam[k] * d:
            d += 1
            hits.append(k)
    return hits


class _Rule(NamedTuple):
    """A streaming rule as the core runs it; ``fresh`` is the core's state before any discovery.

    ``state`` is the rule's step state type, whose ``_decide`` is the one
    way a block reaches the core from a carried state.
    """

    name: str
    bound: Callable
    round: Callable
    settle: Callable
    walk: Callable
    state: type
    fresh: int


_RULES = {
    "lord": _Rule("lord", _lord_bound, _lord_round, _lord_settle, _lord_walk, LordState, 0),
    "lond": _Rule("lond", _lond_bound, _lond_round, _lond_settle, _lond_walk, LondState, 1),
}

# A walk step (one Python iteration) costs about as much as this many
# candidates' levels in a round: about 0.12 us against 0.04 us per open
# candidate and round on the dense mixtures of the benchmark (n = 1e5).
_WALK_COST = 4


def _rejected(rule: _Rule, lam: np.ndarray, values: np.ndarray, positions=None,
              state=None, stats=None) -> np.ndarray:
    """Rejected positions of a stream of ``lam.size`` P-values, from those it may reject, in order.

    ``rule`` is one of ``_RULES``; ``lam`` holds the schedule values the
    core reads: lambda_1 .. lambda_n for lord, the block's own for lond.
    ``positions`` are increasing, distinct 0-based positions and
    ``values`` their P-values; every other position must hold a P-value
    above every level the rule can give it; ``None`` stands for every
    position. ``state`` is the core's state before position 0 (lord: the
    last discovery, 1-based, on ``lam``'s clock; lond: 1 + the discovery
    count), ``rule.fresh`` when ``None``.

    The rule's bound picks the candidates; rounds, then a walk if need
    be, decide them. Each round takes the candidates still open, with the
    state that the settled rejections give each (``rule.round``). One
    whose P-value is at or below that level is settled as a rejection;
    one above the level it would have with every open candidate before it
    rejected is decided as an acceptance; the rest stay open. A round
    that settles nothing ends the rounds: the settled set is then the
    rule's.

    The rounds also stop when going on would cost more than walking.
    A round that decides ``k`` candidates and leaves ``left`` open
    predicts about ``left / k`` more rounds over at most ``left``
    candidates each, so ``left**2 / k`` levels; walking the ``w``
    candidates from the first open one costs ``_WALK_COST * w``. That
    prediction holds where progress is steady, as on a discovery chain,
    which settles one link per round. Where it grows, it fails: a dense
    stream's first round settles only its smallest P-values, and each of
    those lets its neighbours settle in the next. So a round that decides
    at least twice what the round before it did goes on; for the first
    round, twice what it decided in front of the first open candidate
    (a chain's first round decides only there). A streak of doubling
    rounds is at most about log2 of the candidates long, and any other
    round that goes on decides at least ``left**2 / (_WALK_COST * w)``
    candidates, so the rounds never cost much more than the walk they
    spare, and never a quadratic amount.

    When the rounds stop, the walk starts at the first open candidate,
    whose state is exact since every candidate before it is decided: the
    one ``rule.settle`` gives it, as the next round would have read it.
    The walk runs the rule's step expressions over every later candidate;
    it reads the schedule through a memoryview and the candidates as
    lists, so each step handles Python floats only.

    Given a dict, ``stats[rule.name]`` (a ``Counter``) gains the
    candidates, the rounds, the positions walked and the rejections.
    """
    state = rule.fresh if state is None else state
    candidates = np.flatnonzero(rule.bound(values, lam, positions, state))
    positions = candidates if positions is None else positions[candidates]
    values = values[candidates]
    n = positions.size
    rejected = np.zeros(n, dtype=bool)  # settled, by candidate
    index, open_, x = None, positions, values  # index None: every candidate
    rounds, start, decided = 0, n, None  # the walk takes the candidates from start on
    while open_.size:
        rounds += 1
        hit, live = rule.round(lam, open_, x, state)
        if not hit.any():
            break
        live ^= hit  # a settled candidate is at or below both levels
        rejected[hit if index is None else index[hit]] = True
        left = np.count_nonzero(live)
        if not left:
            break
        first = int(live.argmax())
        begin = first if index is None else int(index[first])  # the first open candidate
        grown = open_.size - left >= 2 * (first if decided is None else decided)
        decided = open_.size - left
        settled = rule.settle(state, open_, hit)
        if not grown and left * left > _WALK_COST * decided * (n - begin):
            state, start = int(settled[first]), begin
            break
        state = settled[live]
        index = np.flatnonzero(live) if index is None else index[live]
        open_, x = positions.take(index), values.take(index)
    hits = positions[:start][rejected[:start]]
    if start < n:
        more = rule.walk(memoryview(lam), positions[start:].tolist(), values[start:].tolist(), state)
        more = np.array(more, dtype=np.intp)
        hits = np.concatenate((hits, more)) if hits.size else more
    if stats is not None:
        stats.setdefault(rule.name, Counter()).update(
            candidates=n, rounds=rounds, walked=n - start, rejections=hits.size)
    return hits


def lord_levels(pvalues, schedule: LambdaSchedule):
    """Vectorized one-pass run of the recent-discovery rule.

    Returns ``(alpha, rejected)`` arrays bit-identical to folding
    ``lord_step`` over the stream.
    """
    return LordState()._decide(schedule, _check_p_array(pvalues))


def lond_levels(pvalues, schedule: LambdaSchedule):
    """Vectorized one-pass run of the discovery-count rule.

    Returns ``(alpha, rejected)`` arrays bit-identical to folding
    ``lond_step`` over the stream.
    """
    return LondState()._decide(schedule, _check_p_array(pvalues))


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
    alpha, rejected = rule.state()._decide(schedule, p)
    return list(map(Decision, range(1, p.size + 1), alpha.tolist(), p.tolist(), rejected.tolist()))


def _bh_cutoff(values: np.ndarray, q: float, n: int) -> float:
    """The largest P-value the step-up rule at level ``q`` rejects among n; -inf for none.

    With sorted P-values p_(1) <= ... <= p_(n), the rule finds the largest
    j with ``p_(j) <= q * j / n``. The thresholds rise with j (in floats
    too), so a passing rank has ``p_(j) <= q * n / n``: only the P-values
    up to that bound are sorted, and they are the first ranks of the full
    order. So ``values`` may be any part of the n P-values that holds every
    one at or below ``q * n / n``. (In floats ``q * n / n`` can exceed q.)
    """
    if not values.size:  # n = 0 too
        return -np.inf
    sorted_p = np.sort(values[values <= q * n / n])
    passed = np.flatnonzero(sorted_p <= q * np.arange(1, sorted_p.size + 1, dtype=np.float64) / n)
    return sorted_p[passed[-1]] if passed.size else -np.inf


def bh_mask(pvalues, q: float) -> np.ndarray:
    """Boolean rejection mask of the static step-up rule at level ``q``.

    With sorted P-values p_(1) <= ... <= p_(n), find the largest j with
    ``p_(j) <= q * j / n`` and reject everything at or below p_(j); ties
    at the threshold value are all included.
    """
    q = _check_q(q)
    p = _check_p_array(pvalues)
    return p <= _bh_cutoff(p, q, p.size)


def bh_reject(pvalues, q: float) -> set[int]:
    """1-based indices rejected by the step-up rule; empty input -> empty set."""
    mask = bh_mask(pvalues, q)
    return set((np.flatnonzero(mask) + 1).tolist())
