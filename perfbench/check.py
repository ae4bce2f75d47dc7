"""Correctness checks on the program's outputs.

Every `lord`/`lond` decision is re-derived from the rule's definition,
one index at a time over the schedule's values (as ``rederive`` in
``tests/test_acceptance.py`` does); the step-up baseline is re-derived by
brute force. Each check adds to a ``Tally``: the outputs checked, how
many were wrong, and a few words on the first failures.
"""

from __future__ import annotations

import csv
import io
import math

from inputs import FAR_INDEX


class Lambdas:
    """``lambda_j`` by index, read from the schedule a window at a time."""

    def __init__(self, schedule, window: int = 4096):
        self.schedule = schedule
        self.window = window
        self.lo = 1
        self.values = []

    def __call__(self, j: int) -> float:
        if not self.lo <= j < self.lo + len(self.values):
            self.lo = j
            self.values = self.schedule.slice(j, j + self.window).tolist()
        return self.values[j - self.lo]


def rederive(engine: str, pvalues, lam: Lambdas, start: int = 1):
    """Levels and rejections of a fresh rule state stepped from index ``start``.

    lord: ``alpha_i = lambda_{i - t}`` with ``t`` the last rejection (0
    before any); lond: ``alpha_i = min(1, lambda_i * (D + 1))`` with ``D``
    the rejections so far. ``p <= alpha`` rejects.
    """
    alphas, rejected = [], []
    t = d = 0
    for i, p in enumerate(pvalues, start=start):
        a = lam(i - t) if engine == "lord" else min(1.0, lam(i) * (d + 1))
        r = p <= a
        alphas.append(a)
        rejected.append(r)
        if r:
            t = i
            d += 1
    return alphas, rejected


def bh_brute(pvalues, q: float) -> list[bool]:
    """Step-up rule: largest j with p_(j) <= q j / n, reject all p <= p_(j)."""
    n = len(pvalues)
    ordered = sorted(pvalues)
    for j in range(n, 0, -1):
        if ordered[j - 1] <= q * j / n:
            cutoff = ordered[j - 1]
            return [p <= cutoff for p in pvalues]
    return [False] * n


class Tally:
    """Counts checked outputs and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def result(self):
        return self.attempted, self.failed, self.notes


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def check_sim_csv(csv_bytes: bytes, params: dict, tally: Tally) -> None:
    """Check a `simulate` CSV row by row against re-derived decisions.

    Each per-replicate row fails if any field differs from the
    definition-level result, or if the engine's decision arrays on that
    replicate differ from the re-derivation. Pooled means are compared
    to within 1e-12 relative, since their summation order is free.
    """
    from streamfdr.distributions import pvalue
    from streamfdr.engines import bh_mask, lond_levels, lord_levels
    from streamfdr.simulation import MixtureConfig, make_mixture

    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    header, body = rows[0], rows[1:]
    expected_header = ["replicate", "n_eval", "procedure", "beta", "r", "gamma", "q", "fdp", "fnp", "rejections"]
    tally.check(header == expected_header, f"CSV header {header}")
    levels = {"lord": lord_levels, "lond": lond_levels}
    position = 0
    for r in params["r_values"]:
        config = MixtureConfig(
            n=params["n"], beta=params["beta"], r=r, gamma=params["gamma"], q=params["q"],
            seed=params["seed"], reps=params["reps"], procedures=tuple(params["procedures"]),
            schedule="power", nu=params["nu"],
        )
        schedule = config.make_schedule()
        data = []
        for rep in range(config.reps):
            dataset = make_mixture(config, rep)
            p = pvalue(config.kernel, dataset.statistics)
            data.append((p, p.tolist(), dataset.truth.signal_mask().tolist()))
        for procedure in config.procedures:
            per_rep = []
            for rep, (p, plist, signal) in enumerate(data):
                if procedure == "bh":
                    rejected = bh_brute(plist, config.q)
                    engine_ok = bh_mask(p, config.q).tolist() == rejected
                else:
                    alphas, rejected = rederive(procedure, plist, Lambdas(schedule))
                    alpha, mask = levels[procedure](p, schedule)
                    engine_ok = alpha.tolist() == alphas and mask.tolist() == rejected
                n_rej = sum(rejected)
                false_rej = sum(1 for x, s in zip(rejected, signal) if x and not s)
                missed = sum(1 for x, s in zip(rejected, signal) if s and not x)
                n_sig = sum(signal)
                f = false_rej / n_rej if n_rej else 0.0
                g = missed / n_sig if n_sig else 0.0
                per_rep.append((f, g, n_rej))
                want = [rep, config.n, procedure, config.beta, r, config.gamma, config.q, f, g, n_rej]
                got = body[position] if position < len(body) else None
                ok = engine_ok and got == [_fmt(v) for v in want]
                tally.check(ok, f"row {position + 2} ({procedure}, r={r}, rep {rep})")
                position += 1
            k = len(per_rep)
            means = [math.fsum(col) / k for col in zip(*per_rep)]
            got = body[position] if position < len(body) else None
            ok = got is not None and got[:7] == [_fmt(v) for v in
                                                  ["pooled", config.n, procedure, config.beta, r, config.gamma, config.q]]
            ok = ok and all(math.isclose(float(x), m, rel_tol=1e-12, abs_tol=1e-15) for x, m in zip(got[7:], means))
            tally.check(ok, f"pooled row {position + 2} ({procedure}, r={r})")
            position += 1
    tally.check(position == len(body), f"CSV has {len(body)} rows, expected {position}")


def stream_expected(pvalues, schedule) -> list[bytes]:
    """Decision lines the `stream` command must print for ``pvalues`` (lond)."""
    alphas, rejected = rederive("lond", pvalues, Lambdas(schedule))
    return [
        f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\n".encode()
        for i, (p, a, r) in enumerate(zip(pvalues, alphas, rejected), start=1)
    ]


def check_stream_output(output: bytes, expected: list[bytes], tally: Tally, what: str) -> None:
    """One check per decision line of ``output`` plus one for its trailer.

    ``expected`` holds the decision lines of exactly the inputs fed.
    """
    lines = output.splitlines(keepends=True)
    body, trailer = lines[:-1], lines[-1] if lines else b""
    tally.check(len(body) == len(expected), f"{what}: {len(body)} lines for {len(expected)} inputs")
    for k, line in enumerate(body):
        want = expected[k] if k < len(expected) else None
        tally.check(line == want, f"{what}: line {k + 1} {line!r}")
    discoveries = sum(line.endswith(b"REJECT\n") for line in expected)
    want_trailer = f"# discoveries={discoveries} n={len(expected)}\n".encode()
    tally.check(trailer == want_trailer, f"{what}: trailer {trailer!r}")


def check_online(decisions, streams, schedule, tally: Tally) -> None:
    """Every far-index step against the re-derivation from ``FAR_INDEX``.

    ``decisions`` holds, block after block, the block's lond records
    followed by its lord records.
    """
    blocks = decisions.reshape(-1, 2, streams.block)
    pvalues = {"lond": [], "lord": []}
    for _ in range(len(blocks)):
        lond, lord = streams.next_block()
        pvalues["lond"] += lond
        pvalues["lord"] += lord
    for column, name in enumerate(("lond", "lord")):
        alphas, rejected = rederive(name, pvalues[name], Lambdas(schedule), start=FAR_INDEX)
        got = blocks[:, column, :].reshape(-1)
        rows = zip(got["index"].tolist(), got["alpha"].tolist(), got["rejected"].tolist())
        for k, (index, alpha, rej) in enumerate(rows):
            ok = index == FAR_INDEX + k and alpha == alphas[k] and rej == rejected[k]
            tally.check(ok, f"{name}_step {k + 1} at index {index}")
