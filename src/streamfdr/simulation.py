"""Sparse location-mixture generation and desk-scale experiment grids.

Datasets follow the sparse mixture parameterized by (beta, r, gamma):
``epsilon = n**-beta`` of the statistics (exactly ``round(n**(1-beta))``
of them, at uniformly random positions) are shifted right by
``mu = (gamma * r * log n)**(1/gamma)``; the rest are null draws.
Each (cell, replicate) dataset is generated once and every procedure of
the cell decides on it (paired comparison). A cell computes P-values
only where a decision can read them: where the statistic reaches the
null quantile of 2q, q the cell's budget. Every procedure decides on
that subset alone, with the full n; a P-value of 1.0 at the other
positions would change no decision (see ``_cell_records``), so none is
stored.

Replicates are seeded by (seed, cell parameters, replicate), so cells
are independent of one another and of execution order, and any subset
of a grid can be recomputed on its own with identical results. So
``run_grid`` runs each (cell, replicate) unit whole on a pool of
threads, from its dataset to its records, and puts the records back in
the fixed order (see ``_run``).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .distributions import GGKernel, _as_finite_array, _check_gamma, gg_quantile, gg_sample, pvalue
from .engines import _RULES, _bh_cutoff, _check_p_array, _rejected
from .metrics import CSV_COLUMNS, MetricsRecord, TruthLabels, _fdp_fnp, pool
from .schedules import (FieldError, LambdaSchedule, _check_nu, _check_q, _index,
                        make_adaptive_schedule, make_power_schedule)

__all__ = [
    "PROCEDURES",
    "FieldError",
    "MixtureConfig",
    "MixtureDataset",
    "make_mixture",
    "run_cell",
    "run_grid",
    "write_csv",
]

PROCEDURES = ("lord", "lond", "bh")


@dataclass(frozen=True)
class MixtureConfig:
    """One experiment cell: model, budget rule, seeding and procedures.

    ``n`` (>= 1), ``seed`` (>= 0) and ``reps`` (>= 1) take any whole number
    in range and are stored as ``int``; any other value, a string or
    ``None`` included, raises a ``FieldError`` naming the field.
    """

    n: int
    beta: float
    r: float
    gamma: float = 2.0
    q: float = 0.1
    q_rule: str = "fixed"  # "fixed" | "inverse-log" (q = 1/log n)
    seed: int = 0
    reps: int = 100
    procedures: tuple = PROCEDURES
    schedule: str = "power"  # "power" | "adaptive"
    nu: float = 1.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index("n", self.n, 1))
        if not 0.0 < self.beta < 1.0:  # False at NaN too
            raise FieldError("beta", f"beta must lie in (0, 1), got {self.beta}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise FieldError("r", f"r must be finite and >= 0, got {self.r}")
        _check_gamma(self.gamma)
        if not math.isfinite(self.mu):
            # The larger of the two is the absurd value.
            raise FieldError(
                "r" if self.r > self.gamma else "gamma",
                f"mu must be finite: gamma {self.gamma} and r {self.r} overflow it",
            )
        if self.q_rule not in ("fixed", "inverse-log"):
            raise FieldError(
                "q_rule", f"q_rule must be 'fixed' or 'inverse-log', got {self.q_rule!r}"
            )
        if self.q_rule == "fixed":
            _check_q(self.q)
        elif self.n < 3:
            raise FieldError("n", f"the inverse-log rule needs n >= 3 so q < 1, got n = {self.n}")
        for name, least in (("seed", 0), ("reps", 1)):
            object.__setattr__(self, name, _index(name, getattr(self, name), least))
        if not self.procedures:
            raise FieldError(
                "procedures", "procedures must be a non-empty subset of " + repr(PROCEDURES)
            )
        for k, proc in enumerate(self.procedures):
            if proc not in PROCEDURES:
                raise FieldError(
                    "procedures", f"procedures: unknown entry {proc!r}; choose from {PROCEDURES}"
                )
            if proc in self.procedures[:k]:
                raise FieldError("procedures", f"procedures: repeated entry {proc!r}")
        if self.schedule not in ("power", "adaptive"):
            raise FieldError(
                "schedule", f"schedule must be 'power' or 'adaptive', got {self.schedule!r}"
            )
        if self.schedule == "power":
            _check_nu(self.nu)

    @property
    def epsilon(self) -> float:
        """Signal fraction n**-beta."""
        return float(self.n) ** -self.beta

    @property
    def signal_count(self) -> int:
        """Number of planted signals, round(n**(1-beta))."""
        return int(round(float(self.n) ** (1.0 - self.beta)))

    @property
    def mu(self) -> float:
        """Location shift (gamma * r * log n)**(1/gamma)."""
        return (self.gamma * self.r * math.log(self.n)) ** (1.0 / self.gamma)

    @property
    def kernel(self) -> GGKernel:
        return GGKernel(self.gamma)

    def effective_q(self) -> float:
        """The FDR budget actually used: q, or 1/log n under inverse-log."""
        if self.q_rule == "inverse-log":
            return 1.0 / math.log(self.n)
        return self.q

    def make_schedule(self) -> LambdaSchedule:
        if self.schedule == "power":
            return make_power_schedule(self.nu, self.effective_q())
        return make_adaptive_schedule(self.effective_q())


@dataclass(frozen=True)
class MixtureDataset:
    """One replicate: raw statistics and ground truth."""

    statistics: np.ndarray = field(repr=False)
    truth: TruthLabels


def _replicate_rng(config: MixtureConfig, replicate: int) -> np.random.Generator:
    # Cell parameters enter the seed material so cells sharing a base seed
    # still draw independent streams.
    def bits(x: float) -> int:
        return int(np.float64(x).view(np.uint64))

    entropy = [
        config.seed,
        replicate,
        config.n,
        bits(config.beta),
        bits(config.r),
        bits(config.gamma),
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def make_mixture(config: MixtureConfig, replicate: int) -> MixtureDataset:
    """Generate one replicate's statistics; deterministic in (config, replicate).

    ``replicate`` takes any whole number >= 0; other values raise a
    ``FieldError`` naming ``replicate``.
    """
    replicate = _index("replicate", replicate, 0)
    m = config.signal_count
    rng = _replicate_rng(config, replicate)
    stats = gg_sample(config.kernel, rng, config.n)
    positions = rng.choice(config.n, size=m, replace=False)
    stats[positions] += config.mu
    return MixtureDataset(statistics=stats, truth=TruthLabels(config.n, positions + 1))


class _Cell(NamedTuple):
    """What every replicate of one cell reads: built once, then only read, so threads share it."""

    config: MixtureConfig  # its ``procedures`` decide, in order
    lam: np.ndarray | None  # lambda_1 .. lambda_n, read-only; None when only bh decides
    cut: float  # P-values are computed where the statistic reaches it


def _no_room(config: MixtureConfig) -> FieldError:
    """The error for a cell whose arrays of n values do not fit in memory: it names ``n``."""
    return FieldError("n", f"n = {config.n} does not fit in memory")


def _cell(config: MixtureConfig, lam: np.ndarray | None = None) -> _Cell:
    """The cell's shared inputs; lambda_1 .. lambda_n is built unless given.

    It is built only when a streaming rule of ``config.procedures``
    decides, so the cells of one n can pass on the array that the first
    of them built. An array too large to hold raises ``_no_room``.
    """
    if lam is None and any(proc != "bh" for proc in config.procedures):
        try:
            lam = config.make_schedule().prefix(config.n)
        except MemoryError:
            raise _no_room(config) from None
    budget = 2.0 * config.effective_q()
    # gamma = 1 takes no cut: its survival is one exp, and the quantile would load scipy.
    cut = -np.inf if budget >= 1.0 or config.gamma == 1.0 else gg_quantile(config.kernel, budget)
    return _Cell(config, lam, cut)


def _decided(procedure: str, n: int, keep: np.ndarray, val: np.ndarray, q: float,
             lam: np.ndarray | None) -> np.ndarray:
    """Rejected positions of ``procedure`` among n, given the kept P-values ``val`` at ``keep``."""
    if procedure == "bh":
        return keep[val <= _bh_cutoff(val, q, n)]
    return _rejected(_RULES[procedure], lam, val, keep)


def _unit(cell: _Cell, rep: int) -> list[MetricsRecord]:
    """One record per procedure of the cell, in its order, from replicate ``rep``.

    The unit generates the replicate, keeps the positions at or above the
    cell's cut, computes their P-values, lets every procedure decide on
    them and counts the rejected positions and the signals among them
    (see ``_cell_records``). It reads the cell and writes only the arrays
    it makes, so units run side by side on threads. Arrays too large to
    hold raise ``_no_room``.
    """
    config = cell.config
    n, q = config.n, config.effective_q()
    try:
        dataset = make_mixture(config, rep)
        stats = _as_finite_array(dataset.statistics)  # every position, skipped ones too
        keep = np.flatnonzero(stats >= cell.cut)
        val = _check_p_array(pvalue(config.kernel, stats[keep]))
        truth = dataset.truth
        del dataset, stats  # frees the n statistics: the decisions read the kept ones alone
        signal = truth.signal_mask()  # one mask serves every procedure's count
        signals = truth.false_null_indices.size
        records = []
        for proc in config.procedures:
            hits = _decided(proc, n, keep, val, q, cell.lam)
            f, g = _fdp_fnp(hits.size, int(np.count_nonzero(signal[hits])), signals)
            records.append(MetricsRecord(n=n, fdp=f, fnp=g, rejections=hits.size, replicate_id=rep))
    except MemoryError:
        raise _no_room(config) from None
    return records


# Bytes one unit holds at its peak, per statistic of its cell, at most: the
# statistics, positions and signal labels, kept positions, P-values and their
# temporaries while it makes them, then the kept positions and P-values, the
# signal mask and one procedure's candidates and rounds' temporaries (or a
# walk's lists) while it decides. A cell that keeps every position of a
# near-dense mixture (beta 0.01, gamma = 1) peaks at about 99 under tracemalloc
# when rounds decide it, and at about 126 when it walks every candidate.
_UNIT_BYTES_PER_N = 128
# The working arrays of the units running at once stay under this, unless one
# unit alone needs more: then the units run in this thread, one at a time.
_POOL_BYTES = 1 << 30


def _cpus() -> list[int]:
    """The CPUs this process may use, in order; empty where the platform cannot tell."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return []


def _workers(units: int, n: int) -> int:
    """Threads for ``units`` units of at most ``n`` statistics each.

    One per CPU this process may use (``_cpus``, else ``os.cpu_count()``),
    at most one per unit, and no more than hold ``_UNIT_BYTES_PER_N``
    bytes per statistic each within ``_POOL_BYTES``; at least one.
    """
    usable = len(_cpus()) or os.cpu_count() or 1
    return max(1, min(usable, units, _POOL_BYTES // (_UNIT_BYTES_PER_N * n)))


def _place(cpus) -> None:
    """Move the calling thread to the next CPU of the iterator ``cpus``, then let it run on any.

    Where the kernel does not balance load across CPUs (a cpuset with load
    balancing off, as on some container hosts), a new thread stays on the
    CPU of the thread that started it, so a pool's threads would take turns
    on one CPU. Setting the thread's affinity to one CPU moves it there, and
    setting it back leaves it there until the scheduler moves it.
    """
    cpu = next(cpus)
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, allowed)
    except OSError:  # the CPU is not this thread's to take: it stays where it is
        pass


def _run(cells: list[_Cell]) -> list[list[list[MetricsRecord]]]:
    """For each cell, one record list per procedure: every (cell, replicate) unit run once.

    With ``_workers`` above 1, a pool of that many threads, each started
    on a CPU of its own (``_place``), runs the units (``_unit``), each
    thread taking the next unit as it finishes one. A running unit holds
    at most ``_UNIT_BYTES_PER_N`` bytes per statistic and a finished one
    only its records, so the units in flight stay under ``_POOL_BYTES``.
    With one worker, the units run in order in this thread and no pool
    is made. Threads share only the read-only lambda arrays and the
    frozen configs. Each unit is seeded by (seed, cell, replicate) alone,
    so the records, and the order they are put back in, are the same for
    every thread count. An exception raised in a unit reaches the caller
    unchanged.
    """
    units = [(cell, rep) for cell in cells for rep in range(cell.config.reps)]
    workers = _workers(len(units), max(cell.config.n for cell in cells))
    if workers == 1:
        done = [_unit(cell, rep) for cell, rep in units]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used

        cpus = _cpus()
        place = {"initializer": _place, "initargs": (iter(cpus),)} if cpus else {}
        with ThreadPoolExecutor(workers, **place) as executor:
            done = list(executor.map(_unit, *zip(*units)))
    out, start = [], 0
    for cell in cells:  # replicate-major back to procedure-major
        stop = start + cell.config.reps
        out.append([list(column) for column in zip(*done[start:stop])])
        start = stop
    return out


def _cell_records(config: MixtureConfig, procedures) -> list[list[MetricsRecord]]:
    """One record list per entry of ``procedures``, in order, for one cell.

    The cell is ``config`` with its procedures replaced by ``procedures``,
    so a name outside ``PROCEDURES``, a repeated one or none at all
    raises ``MixtureConfig``'s ``FieldError`` naming ``procedures``.

    Each replicate's dataset and P-values are built once and every
    procedure decides on them (``_unit``). The replicates run on threads
    as in ``run_grid``, with the same records for every thread count.

    Only P-values at or below the budget q can be rejected: a step-up
    threshold q j / n is at most q, a lord level is one schedule value and
    each is at most their sum q, and a lond level is at most
    ``lambda_i (D + 1) <= lambda_i i <= lambda_1 + ... + lambda_i <= q``,
    as the power and adaptive schedules do not increase. So P-values are
    computed only at ``keep``, where the statistic reaches ``cut``, the
    null quantile of 2q. Survival and quantile err by far less than a
    factor of 2, so every P-value skipped exceeds q. When 2q >= 1, or for
    gamma = 1, the cut is -inf and every position is kept.

    Every procedure decides on the kept positions alone, with the full n,
    and no n-length P-value, mask or level array is built. This is exact:
    a position is skipped only when 2q < 1, and then every lord level,
    every lond level and every step-up threshold ``q j / n <= q n / n`` is
    below 1. So a P-value of 1.0 at a skipped position would never be a
    candidate, never enter the step-up sort and never be rejected, and
    deciding on the subset gives the rejections, rows and CSV bytes that
    the full vector with 1.0 there gives. FDP and FNP come from the count
    of rejected positions and of those that are signals.
    """
    return _run([_cell(replace(config, procedures=tuple(procedures)))])[0]


def run_cell(config: MixtureConfig, procedure: str) -> list[MetricsRecord]:
    """All replicates of one (config, procedure) cell, one record each.

    The streaming rules consume P-values in index order 1..n; the static
    baseline sees the whole vector at once. Each replicate is generated
    once here; ``run_grid`` generates it once for all procedures of a cell.
    The replicates run on threads as in ``run_grid``. A ``procedure``
    outside ``PROCEDURES`` raises ``MixtureConfig``'s ``FieldError`` (a
    ``ValueError``) naming ``procedures``.
    """
    return _cell_records(config, (procedure,))[0]


def _row(config: MixtureConfig, procedure: str, record: MetricsRecord) -> dict:
    return {
        "replicate": "pooled" if record.replicate_id < 0 else record.replicate_id,
        "n_eval": record.n,
        "procedure": procedure,
        "beta": config.beta,
        "r": config.r,
        "gamma": config.gamma,
        "q": config.effective_q(),
        "fdp": record.fdp,
        "fnp": record.fnp,
        "rejections": record.rejections,
    }


def run_grid(base: MixtureConfig, r_values, n_values) -> list[dict]:
    """Cross product of (n, r) cells; per-replicate rows plus pooled rows.

    Cells are enumerated in deterministic order (n outer, r inner,
    procedure innermost) and seeded independently, so a rerun of any
    subset reproduces the same rows. Each replicate is generated once per
    cell and decided by every procedure, so the rows equal those of
    ``run_cell`` per procedure plus ``pool``. The cells of one n share
    one lambda array.

    Each (cell, replicate) unit runs whole on one thread of a pool: its
    dataset, P-values, every procedure's decisions and its records
    (``_run``). The pool has one thread per CPU this process may use
    (``os.sched_getaffinity``), at most one per unit, and no more than
    fit in about 1 GiB of working arrays at the grid's largest n
    (``_workers``). With one, the units run in order in this thread and
    no pool is made. The threads share only the read-only lambda arrays
    and the frozen configs, and the rows are put back in the fixed
    order, so rows and CSV bytes are the same for every thread count.
    """
    r_values = list(r_values)
    n_values = list(n_values)
    if not r_values or not n_values:
        raise ValueError("r_values and n_values must be non-empty")
    cells = []
    for n in n_values:
        lam = None  # one build per n: the budget, hence lambda, may vary with n
        for r in r_values:
            cells.append(_cell(replace(base, n=n, r=float(r)), lam))
            lam = cells[-1].lam
    rows = []
    for cell, cell_records in zip(cells, _run(cells)):
        for procedure, records in zip(cell.config.procedures, cell_records):
            rows.extend(_row(cell.config, procedure, rec) for rec in records)
            rows.append(_row(cell.config, procedure, pool(records)))
    return rows


def write_csv(rows, path) -> None:
    """Write experiment rows with the fixed header; floats keep full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
