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
of a grid can be recomputed on its own with identical results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

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


def _hits(procedure: str, n: int, keep: np.ndarray, val: np.ndarray, q: float,
          lam: np.ndarray | None) -> np.ndarray:
    """Rejected positions of ``procedure`` among n, decided on the kept P-values ``val``."""
    if procedure == "bh":
        return keep[val <= _bh_cutoff(val, q, n)]
    return _rejected(_RULES[procedure], lam, val, keep)


def _cell_records(config: MixtureConfig, procedures,
                  lam: np.ndarray | None = None) -> list[list[MetricsRecord]]:
    """One record list per entry of ``procedures``, in order, for one cell.

    Each replicate's dataset and P-values are built once and every
    procedure decides on them. ``lam``, when given, must be
    ``config.make_schedule().prefix(config.n)``, so the cells of one n
    share one lambda array; otherwise the cell builds it if a streaming
    rule needs it.

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
    if lam is None and any(proc != "bh" for proc in procedures):
        lam = config.make_schedule().prefix(config.n)
    kernel = config.kernel
    q = config.effective_q()
    budget = 2.0 * q
    # gamma = 1 takes no cut: its survival is one exp, and the quantile would load scipy.
    cut = -np.inf if budget >= 1.0 or config.gamma == 1.0 else gg_quantile(kernel, budget)
    records = [[] for _ in procedures]
    for rep in range(config.reps):
        dataset = make_mixture(config, rep)
        stats = _as_finite_array(dataset.statistics)  # every position, skipped ones too
        keep = np.flatnonzero(stats >= cut)
        val = _check_p_array(pvalue(kernel, stats[keep]))
        signals = dataset.truth.false_null_indices - 1
        for proc, out in zip(procedures, records):
            hits = _hits(proc, config.n, keep, val, q, lam)
            n_true = int(np.count_nonzero(np.isin(hits, signals, assume_unique=True)))
            f, g = _fdp_fnp(hits.size, n_true, signals.size)
            out.append(MetricsRecord(n=config.n, fdp=f, fnp=g, rejections=hits.size,
                                     replicate_id=rep))
    return records


def run_cell(config: MixtureConfig, procedure: str) -> list[MetricsRecord]:
    """All replicates of one (config, procedure) cell, one record each.

    The streaming rules consume P-values in index order 1..n; the static
    baseline sees the whole vector at once. Each replicate is generated
    once here; ``run_grid`` generates it once for all procedures of a cell.
    """
    if procedure not in PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}; choose from {PROCEDURES}")
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
    """
    r_values = list(r_values)
    n_values = list(n_values)
    if not r_values or not n_values:
        raise ValueError("r_values and n_values must be non-empty")
    rows = []
    for n in n_values:
        lam = None  # one build per n: the budget, hence lambda, may vary with n
        for r in r_values:
            cell = replace(base, n=n, r=float(r))
            if lam is None and any(proc != "bh" for proc in cell.procedures):
                lam = cell.make_schedule().prefix(n)
            cell_records = _cell_records(cell, cell.procedures, lam)
            for procedure, records in zip(cell.procedures, cell_records):
                rows.extend(_row(cell, procedure, rec) for rec in records)
                rows.append(_row(cell, procedure, pool(records)))
    return rows


def write_csv(rows, path) -> None:
    """Write experiment rows with the fixed header; floats keep full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
