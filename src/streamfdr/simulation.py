"""Sparse location-mixture generation and desk-scale experiment grids.

Datasets follow the sparse mixture parameterized by (beta, r, gamma):
``epsilon = n**-beta`` of the statistics (exactly ``round(n**(1-beta))``
of them, at uniformly random positions) are shifted right by
``mu = (gamma * r * log n)**(1/gamma)``; the rest are null draws.
P-values are computed from the statistics. Each (cell, replicate)
dataset is generated once, with its P-values and signal mask, and every
procedure of the cell decides on it (paired comparison).

Replicates are seeded by (seed, cell parameters, replicate), so cells
are independent of one another and of execution order, and any subset
of a grid can be recomputed on its own with identical results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import GGKernel, gg_sample, pvalue
from .engines import bh_mask, lond_levels, lord_levels
from .metrics import CSV_COLUMNS, MetricsRecord, TruthLabels, fdp_fnp_from_mask, pool
from .schedules import FieldError, LambdaSchedule, make_adaptive_schedule, make_power_schedule

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
    """One experiment cell: model, budget rule, seeding and procedures."""

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
        if self.n < 1:
            raise FieldError("n", f"n must be a positive integer, got {self.n}")
        if not 0.0 < self.beta < 1.0:  # False at NaN too
            raise FieldError("beta", f"beta must lie in (0, 1), got {self.beta}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise FieldError("r", f"r must be finite and >= 0, got {self.r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise FieldError("gamma", f"gamma must be finite and >= 1, got {self.gamma}")
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
            if not 0.0 < self.q < 1.0:
                raise FieldError("q", f"q must lie in (0, 1), got {self.q}")
        elif self.n < 3:
            raise FieldError("n", f"the inverse-log rule needs n >= 3 so q < 1, got n = {self.n}")
        if self.seed < 0:
            raise FieldError("seed", f"seed must be >= 0, got {self.seed}")
        if self.reps < 1:
            raise FieldError("reps", f"reps must be >= 1, got {self.reps}")
        if not self.procedures:
            raise FieldError(
                "procedures", "procedures must be a non-empty subset of " + repr(PROCEDURES)
            )
        for proc in self.procedures:
            if proc not in PROCEDURES:
                raise FieldError(
                    "procedures", f"procedures: unknown entry {proc!r}; choose from {PROCEDURES}"
                )
        if self.schedule not in ("power", "adaptive"):
            raise FieldError(
                "schedule", f"schedule must be 'power' or 'adaptive', got {self.schedule!r}"
            )
        if self.schedule == "power" and not self.nu > 1.0:
            raise FieldError("nu", f"nu must exceed 1, got {self.nu}")

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
        int(config.seed),
        int(replicate),
        int(config.n),
        bits(config.beta),
        bits(config.r),
        bits(config.gamma),
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def make_mixture(config: MixtureConfig, replicate: int) -> MixtureDataset:
    """Generate one replicate's statistics; deterministic in (config, replicate)."""
    if replicate < 0:
        raise ValueError(f"replicate must be >= 0, got {replicate}")
    m = config.signal_count
    rng = _replicate_rng(config, replicate)
    stats = gg_sample(config.kernel, rng, config.n)
    positions = rng.choice(config.n, size=m, replace=False)
    stats[positions] += config.mu
    return MixtureDataset(statistics=stats, truth=TruthLabels(config.n, positions + 1))


def _rejections(procedure: str, pvals: np.ndarray, config: MixtureConfig,
                schedule: LambdaSchedule | None) -> np.ndarray:
    if procedure == "bh":
        return bh_mask(pvals, config.effective_q())
    if procedure == "lord":
        return lord_levels(pvals, schedule)[1]
    return lond_levels(pvals, schedule)[1]


def _cell_records(config: MixtureConfig, procedures,
                  schedule: LambdaSchedule | None = None) -> list[list[MetricsRecord]]:
    """One record list per entry of ``procedures``, in order, for one cell.

    Each replicate's dataset, P-values and signal mask are built once and
    every procedure decides on them. ``schedule``, when given, must be the
    one ``config.make_schedule()`` builds; otherwise the cell builds it if a
    streaming rule needs it.
    """
    if schedule is None and any(proc != "bh" for proc in procedures):
        schedule = config.make_schedule()
    records = [[] for _ in procedures]
    for rep in range(config.reps):
        dataset = make_mixture(config, rep)
        pvals = pvalue(config.kernel, dataset.statistics)
        signal = dataset.truth.signal_mask()
        for proc, out in zip(procedures, records):
            rejected = _rejections(proc, pvals, config, schedule)
            f, g = fdp_fnp_from_mask(rejected, signal)
            out.append(
                MetricsRecord(
                    n=config.n,
                    fdp=f,
                    fnp=g,
                    rejections=int(rejected.sum()),
                    replicate_id=rep,
                )
            )
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
    pooled = record.reps > 1 or record.replicate_id < 0
    return {
        "replicate": "pooled" if pooled else record.replicate_id,
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
    ``run_cell`` per procedure plus ``pool``. Cells that share a schedule
    (same kind, budget and exponent) read one schedule object.
    """
    r_values = list(r_values)
    n_values = list(n_values)
    if not r_values or not n_values:
        raise ValueError("r_values and n_values must be non-empty")
    schedules = {}  # by (kind, budget, exponent); under inverse-log the budget varies with n
    rows = []
    for n in n_values:
        for r in r_values:
            cell = replace(base, n=int(n), r=float(r))
            key = (cell.schedule, cell.effective_q(), cell.nu)
            if key not in schedules and any(proc != "bh" for proc in cell.procedures):
                schedules[key] = cell.make_schedule()
            cell_records = _cell_records(cell, cell.procedures, schedules.get(key))
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
