"""False discovery / non-discovery proportions and Monte-Carlo pooling.

Per-replicate proportions use the 0/0 = 0 convention throughout: a run
with no rejections has FDP 0, a dataset with no signals has FNP 0.
Pooled means over replicates estimate FDR and FNR; their sum is the
risk. All functions are pure and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import _index

__all__ = [
    "TruthLabels",
    "MetricsRecord",
    "CSV_COLUMNS",
    "fdp",
    "fnp",
    "fdp_fnp_from_mask",
    "fdp_at_horizons",
    "horizon_grid",
    "pool",
]

# Fixed schema of the experiment CSV emitted by the simulation layer.
CSV_COLUMNS = [
    "replicate",
    "n_eval",
    "procedure",
    "beta",
    "r",
    "gamma",
    "q",
    "fdp",
    "fnp",
    "rejections",
]

# replicate_id of a pooled record; serialized as the literal "pooled".
POOLED_ID = -1

_HORIZON_FLOOR = 10  # the least horizon of horizon_grid


@dataclass(frozen=True)
class TruthLabels:
    """Ground truth for a stream: which 1-based indices carry a signal.

    ``n`` takes any whole number >= 0 and is stored as ``int``; any other
    value raises a ``FieldError`` naming ``n``. Any iterable of indices is
    stored as a sorted, unique, read-only int64 array.
    """

    n: int
    false_null_indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _index("n", self.n, 0))
        idx = self.false_null_indices
        arr = np.asarray(idx if isinstance(idx, np.ndarray) else list(idx), dtype=np.float64)
        ok = (arr >= 1) & (arr <= self.n) & (np.floor(arr) == arr)  # False at NaN too
        if not ok.all():
            raise ValueError(f"signal index {arr[np.argmin(ok)]:g} not an integer in 1..{self.n}")
        # np.unique is ~15x faster on float64 than on int64 (numpy 2.4, 1e4 indices).
        arr = np.unique(arr).astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "false_null_indices", arr)

    def signal_mask(self) -> np.ndarray:
        """Boolean array, position k True iff index k+1 is a signal."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.false_null_indices - 1] = True
        return mask


@dataclass
class MetricsRecord:
    """FDP/FNP of one replicate, or their means when pooled.

    Pooled records carry ``replicate_id = POOLED_ID``, the replicate
    count in ``reps``, mean rejections in ``rejections`` and standard
    errors of the means in ``fdp_se`` / ``fnp_se``.
    """

    n: int
    fdp: float
    fnp: float
    rejections: float
    replicate_id: int = 0
    reps: int = 1
    fdp_se: float = 0.0
    fnp_se: float = 0.0

    @property
    def risk(self) -> float:
        return self.fdp + self.fnp


def _masks_from_decisions(decisions, truth: TruthLabels):
    if len(decisions) != truth.n:
        raise ValueError(
            f"decisions cover {len(decisions)} indices but truth.n = {truth.n}"
        )
    rejected = np.empty(truth.n, dtype=bool)
    for k, d in enumerate(decisions):
        if d.index != k + 1:
            raise ValueError(f"decision at position {k} has index {d.index}, expected {k + 1}")
        rejected[k] = d.rejected
    return rejected, truth.signal_mask()


def _bool_masks(rejected, signal):
    rejected = np.asarray(rejected, dtype=bool)
    signal = np.asarray(signal, dtype=bool)
    if rejected.shape != signal.shape:
        raise ValueError("rejection and signal masks must have equal length")
    return rejected, signal


def _fdp_fnp(n_rej: int, n_true: int, n_sig: int):
    """(FDP, FNP) from the counts of rejections, true rejections and signals (0/0 = 0)."""
    out_fdp = (n_rej - n_true) / n_rej if n_rej else 0.0
    out_fnp = (n_sig - n_true) / n_sig if n_sig else 0.0
    return out_fdp, out_fnp


def fdp_fnp_from_mask(rejected: np.ndarray, signal: np.ndarray):
    """(FDP, FNP) from boolean rejection and signal masks of equal shape."""
    rejected, signal = _bool_masks(rejected, signal)
    return _fdp_fnp(int(np.count_nonzero(rejected)), int(np.count_nonzero(rejected & signal)),
                    int(np.count_nonzero(signal)))


def fdp(decisions, truth: TruthLabels) -> float:
    """Share of rejections that are true nulls (0 when nothing is rejected)."""
    rejected, signal = _masks_from_decisions(decisions, truth)
    return fdp_fnp_from_mask(rejected, signal)[0]


def fnp(decisions, truth: TruthLabels) -> float:
    """Share of signals left unrejected (0 when there are no signals)."""
    rejected, signal = _masks_from_decisions(decisions, truth)
    return fdp_fnp_from_mask(rejected, signal)[1]


def horizon_grid(n: int) -> list[int]:
    """Logarithmic evaluation horizons ceil(n / 2**k), descending to 10.

    ``n`` must be a whole number >= 1; otherwise a ``FieldError`` names it.
    An ``n`` below 10 is its own single horizon.
    """
    n = _index("n", n, 1)
    grid = {-(-n // 2**k) for k in range(n.bit_length() + 1)}  # ceil(n / 2**k), down to 1
    return sorted(h for h in grid if h >= _HORIZON_FLOOR) or [n]


def fdp_at_horizons(rejected: np.ndarray, signal: np.ndarray, horizons) -> np.ndarray:
    """FDP of the first h decisions for each horizon h (0/0 = 0).

    The masks must have equal shape, and each horizon must be a whole
    number in 1..len(rejected); otherwise a ``ValueError`` is raised (a
    ``FieldError`` naming ``horizon`` when it is not a whole number >= 1).
    """
    rejected, signal = _bool_masks(rejected, signal)
    cum_rej = np.cumsum(rejected)
    cum_false = np.cumsum(rejected & ~signal)
    out = np.zeros(len(horizons), dtype=np.float64)
    for k, h in enumerate(horizons):
        h = _index("horizon", h, 1)
        if h > rejected.size:
            raise ValueError(f"horizon {h} outside 1..{rejected.size}")
        r = cum_rej[h - 1]
        out[k] = cum_false[h - 1] / r if r else 0.0
    return out


def pool(records) -> MetricsRecord:
    """Average replicate records into FDR/FNR estimates with standard errors.

    All records must share the evaluation horizon. Standard errors use
    the unbiased sample variance; a single record pools to itself with
    se = 0 by convention.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot pool an empty record list")
    horizons = {rec.n for rec in records}
    if len(horizons) != 1:
        raise ValueError(f"records mix evaluation horizons {sorted(horizons)}")
    k = len(records)
    fdps = np.array([rec.fdp for rec in records], dtype=np.float64)
    fnps = np.array([rec.fnp for rec in records], dtype=np.float64)
    rej = np.array([rec.rejections for rec in records], dtype=np.float64)
    if k == 1:
        fdp_se = fnp_se = 0.0
    else:
        fdp_se = float(fdps.std(ddof=1) / np.sqrt(k))
        fnp_se = float(fnps.std(ddof=1) / np.sqrt(k))
    return MetricsRecord(
        n=records[0].n,
        fdp=float(fdps.mean()),
        fnp=float(fnps.mean()),
        rejections=float(rej.mean()),
        replicate_id=POOLED_ID,
        reps=k,
        fdp_se=fdp_se,
        fnp_se=fnp_se,
    )
