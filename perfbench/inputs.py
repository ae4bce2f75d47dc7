"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here imports streamfdr: a change to the package's simulation or
distribution layers cannot change what the stream workloads are fed.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# Workload sizes. "full" is what the benchmark measures; "tiny" only
# proves that every path runs (self-tests). ``loop_lines`` of the
# stream file go through the closed loop, the rest is piped in whole.
SIZES = {
    "full": {"sim_n": 100_000, "sim_reps": 2, "stream_lines": 60_000, "loop_lines": 10_000, "online_block": 2_500},
    "tiny": {"sim_n": 2_000, "sim_reps": 1, "stream_lines": 400, "loop_lines": 100, "online_block": 50},
}

SIM_BETA = {"sim-dense": 0.2, "sim-sparse": 0.6}
SIM_R_VALUES = (0.2, 0.6, 1.2)  # weak, middle and strong signal

# Online stream position: twice the schedule's chunk-cache limit, so every
# lambda lookup takes the uncached path.
FAR_INDEX = 2 * 10**7

# One recorded online decision, as the online worker writes it.
DECISION_DTYPE = np.dtype([("index", "<i8"), ("alpha", "<f8"), ("rejected", "u1")])


def sim_params(workload: str, seed: int, size: str) -> dict:
    """The pinned `simulate` experiment of a sim workload."""
    return {
        "n": SIZES[size]["sim_n"],
        "beta": SIM_BETA[workload],
        "r_values": list(SIM_R_VALUES),
        "gamma": 2.0,
        "q": 0.1,
        "nu": 1.05,
        "procedures": ["lord", "lond", "bh"],
        "reps": SIZES[size]["sim_reps"],
        "seed": int(seed),
    }


def sim_config(params: dict) -> str:
    """``params`` as the text of a `simulate` config file."""
    return (
        f"n = {params['n']}\n"
        f"beta = {params['beta']!r}\n"
        f"r_values = {', '.join(repr(r) for r in params['r_values'])}\n"
        f"gamma = {params['gamma']!r}\n"
        f"q = {params['q']!r}\n"
        "schedule = power\n"
        f"nu = {params['nu']!r}\n"
        f"procedures = {', '.join(params['procedures'])}\n"
        f"reps = {params['reps']}\n"
        f"seed = {params['seed']}\n"
    )


def _mixture(rng: np.random.Generator, n: int, signal_share: float, power: float) -> np.ndarray:
    """Uniform nulls; a ``signal_share`` of entries are ``U**power`` (small)."""
    p = rng.random(n)
    signal = rng.random(n) < signal_share
    p[signal] = rng.random(int(signal.sum())) ** power
    return p


def stream_pvalues(seed: int, size: str) -> np.ndarray:
    """The P-value file of the `stream` workload, as an array."""
    rng = np.random.default_rng([int(seed), 1])
    return _mixture(rng, SIZES[size]["stream_lines"], signal_share=0.02, power=12.0)


def pvalue_lines(pvalues) -> list[bytes]:
    """One input line per P-value.

    ``repr(float(x))``, not ``repr(x)``: under numpy 2 the repr of a
    numpy float is ``np.float64(...)``, which the CLI rejects.
    """
    return [(repr(float(x)) + "\n").encode() for x in pvalues]


class OnlineStreams:
    """Block after block of P-values for the long-index stepping workload.

    ``lond`` sees nulls with a rare strong signal; ``lord`` sees an
    all-null stretch, so its level index never resets below the cache
    limit. Block k is the same for a given seed however many are drawn.
    """

    def __init__(self, seed: int, size: str):
        self.block = SIZES[size]["online_block"]
        self._lond = np.random.default_rng([int(seed), 2])
        self._lord = np.random.default_rng([int(seed), 3])

    def next_block(self) -> tuple[list[float], list[float]]:
        lond = _mixture(self._lond, self.block, signal_share=0.01, power=20.0)
        lord = self._lord.random(self.block)
        return lond.tolist(), lord.tolist()
