"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical checks use fixed seeds, so outcomes are reproducible.
"""

import math
import time

import numpy as np
from scipy import integrate, special

from streamfdr import simulation
from streamfdr import (
    GGKernel,
    MixtureConfig,
    bh_reject,
    fdp_at_horizons,
    gg_quantile,
    gg_survival,
    horizon_grid,
    lond_levels,
    lond_step,
    lord_levels,
    lord_step,
    LondState,
    LordState,
    make_adaptive_schedule,
    make_power_schedule,
    pool,
)
from streamfdr.cli import cmd_simulate


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


def rederive(engine, pvals, lam):
    """Batch re-derivation of the level sequences from their definitions."""
    n = len(pvals)
    alphas = np.empty(n)
    rej = np.zeros(n, dtype=bool)
    if engine == "lord":
        t = 0
        for i in range(1, n + 1):
            a = lam[i - t - 1]
            r = pvals[i - 1] <= a
            alphas[i - 1] = a
            rej[i - 1] = r
            if r:
                t = i
    else:
        d = 0
        for i in range(1, n + 1):
            a = min(1.0, lam[i - 1] * (d + 1))
            r = pvals[i - 1] <= a
            alphas[i - 1] = a
            rej[i - 1] = r
            if r:
                d += 1
    return alphas, rej


def test_criterion_1_rule_fidelity():
    start = time.time()
    sched = make_power_schedule(1.05, 0.1)
    length = 200
    lam = sched.prefix(length)
    rng = np.random.default_rng(1001)
    streams = 10_000
    exponents = rng.integers(1, 4, size=streams)
    mismatches = 0
    for s in range(streams):
        p = rng.random(length) ** exponents[s]
        for engine, levels in (("lord", lord_levels), ("lond", lond_levels)):
            alpha, rejected = levels(p, sched)
            oracle_alpha, oracle_rej = rederive(engine, p, lam)
            if not (np.array_equal(alpha, oracle_alpha) and np.array_equal(rejected, oracle_rej)):
                mismatches += 1
        if s % 20 == 0:
            # Directly exercise the stepwise streaming surface as well.
            lord_state, lond_state = LordState(), LondState()
            step_lord = [lord_step(lord_state, sched, x) for x in p]
            step_lond = [lond_step(lond_state, sched, x) for x in p]
            for engine, decisions in (("lord", step_lord), ("lond", step_lond)):
                oracle_alpha, oracle_rej = rederive(engine, p, lam)
                same = all(
                    d.alpha == oracle_alpha[k] and d.rejected == bool(oracle_rej[k])
                    for k, d in enumerate(decisions)
                )
                if not same:
                    mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "rule-fidelity",
        mismatches == 0 and elapsed < 30.0,
        f"{streams} streams, {mismatches} mismatches, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_bh_oracle():
    start = time.time()
    grid = np.array([0.001, 0.02, 0.05, 0.2, 0.9])
    rng = np.random.default_rng(1002)
    mismatches = 0
    vectors = 10_000
    for _ in range(vectors):
        n = int(rng.integers(1, 13))
        pvals = list(grid[rng.integers(0, grid.size, size=n)])
        got = bh_reject(pvals, 0.1)
        sorted_p = sorted(pvals)
        k = 0
        for j in range(1, n + 1):
            if sorted_p[j - 1] <= 0.1 * j / n:
                k = j
        expected = set()
        if k > 0:
            cutoff = sorted_p[k - 1]
            expected = {i + 1 for i, p in enumerate(pvals) if p <= cutoff}
        if got != expected:
            mismatches += 1
    elapsed = time.time() - start
    report(
        2,
        "bh-brute-force",
        mismatches == 0 and elapsed < 10.0,
        f"{vectors} vectors, {mismatches} mismatches, {elapsed:.1f}s < 10s",
    )


def test_criterion_3_null_stream_fdr_control():
    start = time.time()
    sched = make_power_schedule(1.05, 0.1)
    reps, n, q = 2000, 5000, 0.1
    horizons = horizon_grid(n)
    no_signals = np.zeros(n, dtype=bool)
    rng = np.random.default_rng(1003)
    worst = {}
    ok = True
    for engine, levels in (("lord", lord_levels), ("lond", lond_levels)):
        curves = np.empty((reps, len(horizons)))
        for rep in range(reps):
            _, rejected = levels(rng.random(n), sched)
            curves[rep] = fdp_at_horizons(rejected, no_signals, horizons)
        means = curves.mean(axis=0)
        ses = curves.std(axis=0, ddof=1) / math.sqrt(reps)
        margin = means - (q + 3 * ses)
        worst[engine] = float(margin.max())
        ok = ok and bool(np.all(means <= q + 3 * ses))
    elapsed = time.time() - start
    report(
        3,
        "all-null-fdr-control",
        ok and elapsed < 120.0,
        f"max(mean - (q+3se)): lord {worst['lord']:.4f}, lond {worst['lond']:.4f}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_4_mixture_fdr_control():
    start = time.time()
    ok = True
    details = []
    for r in (0.3, 0.9, 1.5):
        cfg = MixtureConfig(n=10**5, beta=0.6, r=r, gamma=2.0, q=0.1, reps=100, seed=1004)
        procs = ("lord", "lond", "bh")
        # One generation per replicate, decided by every procedure.
        for proc, records in zip(procs, simulation._cell_records(cfg, procs)):
            pooled = pool(records)
            bound = 0.1 + 3 * pooled.fdp_se
            if pooled.fdp > bound:
                ok = False
                details.append(f"{proc}@r={r}: {pooled.fdp:.3f} > {bound:.3f}")
    elapsed = time.time() - start
    report(
        4,
        "mixture-fdr-control",
        ok and elapsed < 600.0,
        (("violations: " + "; ".join(details)) if details else "all pooled FDP <= q+3se")
        + f", {elapsed:.1f}s < 600s",
    )


R_GRID = [0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5]


def _fnp_curve(beta, procedures, seed):
    curves = {proc: [] for proc in procedures}
    ses = {proc: [] for proc in procedures}
    for r in R_GRID:
        cfg = MixtureConfig(
            n=10**5, beta=beta, r=r, gamma=2.0, q=0.1, reps=100, seed=seed,
            procedures=tuple(procedures),
        )
        for proc, records in zip(procedures, simulation._cell_records(cfg, procedures)):
            pooled = pool(records)
            curves[proc].append(pooled.fnp)
            ses[proc].append(pooled.fnp_se)
    return curves, ses


def test_criteria_5_and_6_fnp_trends():
    start = time.time()
    curves, _ = _fnp_curve(beta=0.6, procedures=("lord", "bh"), seed=1005)
    ok5 = True
    details5 = []
    for proc in ("lord", "bh"):
        fnps = curves[proc]
        pair_ok = all(b <= a + 0.05 for a, b in zip(fnps, fnps[1:]))
        drop_ok = fnps[-1] <= fnps[0] - 0.3
        if not (pair_ok and drop_ok):
            ok5 = False
        details5.append(f"{proc}: drop {fnps[0]:.3f}->{fnps[-1]:.3f}")
    elapsed5 = time.time() - start
    report(
        5,
        "phase-transition-trend",
        ok5 and elapsed5 < 900.0,
        "; ".join(details5) + f", {elapsed5:.1f}s < 900s",
    )

    start6 = time.time()
    dense_curves, dense_ses = _fnp_curve(beta=0.2, procedures=("lord", "lond"), seed=1006)
    ok6 = True
    gaps = []
    for k, r in enumerate(R_GRID):
        if r < 0.8:
            continue
        se = math.hypot(dense_ses["lord"][k], dense_ses["lond"][k])
        gap = dense_curves["lond"][k] - dense_curves["lord"][k]
        gaps.append(f"r={r}: {gap:+.3f}")
        if dense_curves["lond"][k] < dense_curves["lord"][k] - 2 * se:
            ok6 = False
    elapsed6 = time.time() - start6
    report(
        6,
        "dense-regime-ordering",
        ok6,
        "lond-lord fnp gaps " + ", ".join(gaps) + f", {elapsed6:.1f}s",
    )


def test_criterion_7_varying_level():
    start = time.time()
    ok = True
    details = []
    results = {}
    for n in (10**4, 10**5, 10**6):
        cfg = MixtureConfig(
            n=n, beta=0.4, r=0.9, gamma=2.0, q_rule="inverse-log", reps=100, seed=1007,
            procedures=("lord", "lond"),
        )
        q_n = cfg.effective_q()
        # One generation per replicate, decided by both rules.
        for proc, records in zip(("lord", "lond"), simulation._cell_records(cfg, ("lord", "lond"))):
            pooled = pool(records)
            results[(proc, n)] = pooled
            if pooled.fdp > q_n:
                ok = False
                details.append(f"{proc}@n={n}: fdp {pooled.fdp:.4f} > q_n {q_n:.4f}")
    for proc in ("lord", "lond"):
        seq = [results[(proc, n)] for n in (10**4, 10**5, 10**6)]
        for a, b in zip(seq, seq[1:]):
            tol = math.hypot(a.fnp_se, b.fnp_se)
            if b.fnp > a.fnp + tol:
                ok = False
                details.append(f"{proc}: fnp rose {a.fnp:.3f}->{b.fnp:.3f} (tol {tol:.3f})")
    fnp_path = ", ".join(
        f"{proc} " + "->".join(f"{results[(proc, n)].fnp:.3f}" for n in (10**4, 10**5, 10**6))
        for proc in ("lord", "lond")
    )
    elapsed = time.time() - start
    report(
        7,
        "varying-level",
        ok,
        (("violations: " + "; ".join(details) + "; ") if details else "") + fnp_path
        + f", {elapsed:.1f}s",
    )


def test_criterion_8_numeric_kernels():
    start = time.time()
    p_grid = [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
    worst_round = 0.0
    for g in (1.0, 1.5, 2.0, 3.0):
        k = GGKernel(g)
        for p in p_grid:
            worst_round = max(worst_round, abs(gg_survival(k, gg_quantile(k, p)) - p))

    worst_resid = 0.0
    n_terms = 10**7
    for sched, tail_hi, tail_lo in (
        (make_power_schedule(1.05, 0.1),
         0.1 / special.zeta(1.05) * n_terms**-0.05 / 0.05,
         0.1 / special.zeta(1.05) * (n_terms + 1) ** -0.05 / 0.05),
        (make_power_schedule(2.0, 0.1),
         0.1 / special.zeta(2.0) / n_terms,
         0.1 / special.zeta(2.0) / (n_terms + 1)),
        (make_adaptive_schedule(0.1),
         make_adaptive_schedule(0.1).normalizer / math.log(n_terms + 2),
         make_adaptive_schedule(0.1).normalizer / math.log(n_terms + 3)),
    ):
        partial = float(np.sum(sched.prefix(n_terms)))
        mid = partial + 0.5 * (tail_lo + tail_hi)
        worst_resid = max(worst_resid, abs(mid - 0.1))

    c = 0.5  # gamma=1 density constant
    worst_quad = 0.0
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        quad = integrate.quad(lambda u: c * math.exp(-abs(u)), x, np.inf,
                              epsabs=1e-15, epsrel=1e-13)[0]
        worst_quad = max(worst_quad, abs(gg_survival(GGKernel(1.0), x) - quad))

    ok = worst_round <= 1e-10 and worst_resid <= 1e-9 and worst_quad <= 1e-12
    elapsed = time.time() - start
    report(
        8,
        "numeric-kernels",
        ok,
        f"roundtrip {worst_round:.2e} <= 1e-10, residual {worst_resid:.2e} <= 1e-9, "
        f"quadrature {worst_quad:.2e} <= 1e-12, {elapsed:.1f}s",
    )


def test_criterion_9_simulate_determinism(tmp_path):
    start = time.time()
    config = tmp_path / "exp.cfg"
    config.write_text(
        "n = 2000\nbeta = 0.5\nr_values = 0.5, 1.0\ngamma = 2\nq = 0.1\n"
        "seed = 99\nreps = 5\nprocedures = lord, lond, bh\n"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cmd_simulate(str(config), str(out_a))
    code_b = cmd_simulate(str(config), str(out_b))
    identical = out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.time() - start
    report(
        9,
        "simulate-determinism",
        code_a == 0 and code_b == 0 and identical,
        f"byte-identical={identical}, {elapsed:.1f}s",
    )
