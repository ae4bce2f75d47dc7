"""Mixture generation and experiment grid tests."""

import concurrent.futures
import math
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from streamfdr import simulation
from streamfdr import (
    AltPValueCDF,
    GGKernel,
    LambdaSchedule,
    LondState,
    LordState,
    MixtureConfig,
    MetricsRecord,
    bh_mask,
    fdp_at_horizons,
    fdp_fnp_from_mask,
    gg_quantile,
    gg_survival,
    lond_levels,
    lond_step,
    lord_levels,
    lord_step,
    make_adaptive_schedule,
    make_mixture,
    make_power_schedule,
    mixture_pvalue_cdf,
    pool,
    pvalue,
    run_cell,
    run_grid,
    write_csv,
)


def usable_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` CPUs, so a grid runs on that many threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def small_config(**overrides):
    base = dict(n=2000, beta=0.5, r=0.8, gamma=2.0, q=0.1, seed=42, reps=10)
    base.update(overrides)
    return MixtureConfig(**base)


class TestConfigValidation:
    def test_beta_bounds_cited(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            small_config(beta=1.5)
        with pytest.raises(ValueError):
            small_config(beta=0.0)

    def test_gamma_floor(self):
        with pytest.raises(ValueError):
            small_config(gamma=0.5)

    def test_negative_r(self):
        with pytest.raises(ValueError):
            small_config(r=-0.1)

    def test_q_bounds(self):
        with pytest.raises(ValueError):
            small_config(q=0.0)
        with pytest.raises(ValueError):
            small_config(q=1.0)

    def test_inverse_log_needs_n_at_least_three(self):
        with pytest.raises(ValueError):
            small_config(n=2, q_rule="inverse-log")
        cfg = small_config(n=1000, q_rule="inverse-log")
        assert cfg.effective_q() == pytest.approx(1.0 / math.log(1000))

    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            small_config(procedures=("lord", "bogus"))

    @pytest.mark.parametrize("procedures, repeated", [(("lord", "lord"), "lord"),
                                                      (("bh", "lond", "bh"), "bh")])
    def test_repeated_procedure(self, procedures, repeated):
        # A repeated entry would only write its rows twice.
        message = rf"^procedures: repeated entry '{repeated}'$"
        with pytest.raises(simulation.FieldError, match=message) as info:
            small_config(procedures=procedures)
        assert info.value.field == "procedures"

    def test_no_procedure(self):
        with pytest.raises(simulation.FieldError, match=r"^procedures must be a non-empty subset") as info:
            small_config(procedures=())
        assert info.value.field == "procedures"

    def test_bad_schedule_kind(self):
        with pytest.raises(ValueError):
            small_config(schedule="geometric")

    def test_power_needs_nu_above_one(self):
        with pytest.raises(ValueError):
            small_config(nu=1.0)
        small_config(nu=1.0, schedule="adaptive")  # nu unused there

    def test_bad_q_rule(self):
        with pytest.raises(ValueError):
            small_config(q_rule="halving")


NAN = math.nan
Q_MESSAGE = r"^q must lie in \(0, 1\), got nan$"
P_MESSAGE = r"^P-value must lie in \[0, 1\], got nan$"
GAMMA_MESSAGE = r"^gamma must be finite and >= 1, got nan$"
NU_MESSAGE = r"^nu must exceed 1 \(the series diverges otherwise\), got nan$"

# Each range check that NaN must fail: (call, message, FieldError.field or None).
NAN_CHECKS = {
    "schedule q": (lambda: make_power_schedule(1.05, NAN), Q_MESSAGE, "q"),
    "adaptive q": (lambda: make_adaptive_schedule(NAN), Q_MESSAGE, "q"),
    "schedule nu": (lambda: make_power_schedule(NAN, 0.1), NU_MESSAGE, "nu"),
    "config beta": (lambda: small_config(beta=NAN), r"^beta must lie in \(0, 1\), got nan$", "beta"),
    "config q": (lambda: small_config(q=NAN), Q_MESSAGE, "q"),
    "config gamma": (lambda: small_config(gamma=NAN), GAMMA_MESSAGE, "gamma"),
    "kernel gamma": (lambda: GGKernel(NAN), GAMMA_MESSAGE, "gamma"),
    "config nu": (lambda: small_config(nu=NAN), NU_MESSAGE, "nu"),
    "config n": (lambda: small_config(n=NAN), r"^n must be an integer >= 1, got nan$", "n"),
    "config seed": (lambda: small_config(seed=NAN), r"^seed must be an integer >= 0, got nan$", "seed"),
    "config reps": (lambda: small_config(reps=NAN), r"^reps must be an integer >= 1, got nan$", "reps"),
    "mixture replicate": (lambda: make_mixture(small_config(), NAN),
                          r"^replicate must be an integer >= 0, got nan$", "replicate"),
    "metrics horizon": (lambda: fdp_at_horizons([True, False], [True, True], [NAN]),
                        r"^horizon must be an integer >= 1, got nan$", "horizon"),
    "mixture epsilon": (lambda: mixture_pvalue_cdf(AltPValueCDF(GGKernel(2.0), 1.0), NAN, 0.5),
                        r"^epsilon must lie in \[0, 1\], got nan$", None),
    "lord_step p": (lambda: lord_step(LordState(), make_adaptive_schedule(0.1), NAN), P_MESSAGE, None),
    "lond_step p": (lambda: lond_step(LondState(), make_adaptive_schedule(0.1), NAN), P_MESSAGE, None),
}


@pytest.mark.parametrize("name", sorted(NAN_CHECKS))
def test_nan_fails_each_range_check(name):
    call, message, field = NAN_CHECKS[name]
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert getattr(info.value, "field", None) == field
    assert isinstance(info.value, simulation.FieldError) == (field is not None)


# Each whole-number field of MixtureConfig given a value that is not a whole
# number >= least (non-whole, below the range or not a number): (field, value, least).
NOT_WHOLE = [("n", 1000.5, 1), ("seed", 1.5, 0), ("reps", 2.5, 1),
             ("n", 0, 1), ("seed", -1, 0), ("reps", 0, 1),
             ("n", "100", 1), ("seed", "1", 0), ("reps", None, 1)]


@pytest.mark.parametrize("name, value, least", NOT_WHOLE)
def test_config_rejects_non_whole_counts(name, value, least):
    message = rf"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"
    with pytest.raises(simulation.FieldError, match=message) as info:
        small_config(**{name: value})
    assert info.value.field == name


def test_config_stores_whole_counts_as_int():
    cfg = small_config(n=2000.0, seed=np.int64(42), reps=2.0)
    assert cfg == small_config(reps=2)
    assert [type(value) for value in (cfg.n, cfg.seed, cfg.reps)] == [int] * 3
    assert run_cell(cfg, "lord") == run_cell(small_config(reps=2), "lord")
    with pytest.raises(simulation.FieldError, match=r"^n must be an integer >= 1, got 2000.5$"):
        run_grid(small_config(reps=2), [0.8], [2000.5])


class TestParameterization:
    def test_epsilon_and_signal_count(self):
        cfg = small_config(n=10**4, beta=0.5)
        assert cfg.epsilon == pytest.approx(0.01)
        assert cfg.signal_count == 100

    def test_normal_shift_formula(self):
        cfg = small_config(n=10**4, gamma=2.0, r=0.5)
        assert cfg.mu == pytest.approx(math.sqrt(2 * 0.5 * math.log(10**4)), rel=1e-14)
        assert cfg.mu == pytest.approx(3.034854258770293, rel=1e-12)

    def test_general_shift_formula(self):
        cfg = small_config(n=10**5, gamma=1.0, r=0.7)
        assert cfg.mu == pytest.approx(0.7 * math.log(10**5), rel=1e-14)


class TestMakeMixture:
    def test_deterministic_per_replicate(self):
        cfg = small_config()
        a = make_mixture(cfg, 3)
        b = make_mixture(cfg, 3)
        assert np.array_equal(a.statistics, b.statistics)
        assert np.array_equal(a.truth.false_null_indices, b.truth.false_null_indices)

    def test_replicates_differ(self):
        cfg = small_config()
        a = make_mixture(cfg, 0)
        b = make_mixture(cfg, 1)
        assert not np.array_equal(a.truth.false_null_indices, b.truth.false_null_indices)
        assert not np.array_equal(a.statistics, b.statistics)

    def test_cells_with_same_seed_differ(self):
        a = make_mixture(small_config(r=0.8), 0)
        b = make_mixture(small_config(r=0.9), 0)
        assert not np.array_equal(a.statistics, b.statistics)

    def test_signal_count_exact_every_replicate(self):
        cfg = small_config(n=3000, beta=0.4, reps=5)
        m = cfg.signal_count
        for rep in range(5):
            positions = make_mixture(cfg, rep).truth.false_null_indices
            assert len(positions) == m
            assert np.all(np.diff(positions) > 0)  # sorted and unique
            assert 1 <= positions[0] and positions[-1] <= cfg.n

    def test_negative_replicate(self):
        with pytest.raises(simulation.FieldError,
                           match=r"^replicate must be an integer >= 0, got -1$") as info:
            make_mixture(small_config(), -1)
        assert info.value.field == "replicate"

    def test_non_whole_replicate_rejected(self):
        # Not read as replicate 2.
        with pytest.raises(simulation.FieldError,
                           match=r"^replicate must be an integer >= 0, got 2.5$") as info:
            make_mixture(small_config(), 2.5)
        assert info.value.field == "replicate"
        whole = make_mixture(small_config(), np.int64(2))
        assert np.array_equal(whole.statistics, make_mixture(small_config(), 2).statistics)

    def test_signal_positions_carry_the_shift(self):
        # Subtracting mu at signal positions recovers null draws.
        cfg = small_config(n=5000, beta=0.4, r=1.0, reps=20)
        kernel = GGKernel(cfg.gamma)
        recentered = []
        for rep in range(cfg.reps):
            ds = make_mixture(cfg, rep)
            mask = ds.truth.signal_mask()
            recentered.append(ds.statistics[mask] - cfg.mu)
        pooled = np.concatenate(recentered)
        dist = stats.kstest(1.0 - gg_survival(kernel, pooled), "uniform").statistic
        assert dist < stats.kstwobign.isf(0.01) / math.sqrt(pooled.size)

    def test_null_pvalues_uniform_across_replicates(self):
        cfg = small_config(n=2000, reps=20)
        kernel = GGKernel(cfg.gamma)
        chunks = []
        for rep in range(cfg.reps):
            ds = make_mixture(cfg, rep)
            nulls = ~ds.truth.signal_mask()
            chunks.append(pvalue(kernel, ds.statistics[nulls]))
        pooled = np.concatenate(chunks)
        dist = stats.kstest(pooled, "uniform").statistic
        assert dist < stats.kstwobign.isf(0.01) / math.sqrt(pooled.size)


class TestRunCell:
    def test_record_shape(self):
        cfg = small_config(reps=4)
        records = run_cell(cfg, "lord")
        assert [rec.replicate_id for rec in records] == [0, 1, 2, 3]
        assert all(rec.n == cfg.n for rec in records)
        assert all(0.0 <= rec.fdp <= 1.0 and 0.0 <= rec.fnp <= 1.0 for rec in records)

    def test_unknown_procedure(self):
        with pytest.raises(ValueError):
            run_cell(small_config(), "holm")

    def test_deterministic(self):
        cfg = small_config(reps=3)
        a = run_cell(cfg, "bh")
        b = run_cell(cfg, "bh")
        assert a == b

    def test_fdr_controlled_across_procedures(self):
        cfg = small_config(n=5000, beta=0.6, r=0.8, reps=200, seed=5)
        for proc in ("lord", "lond", "bh"):
            pooled = pool(run_cell(cfg, proc))
            assert pooled.fdp <= 0.1 + 3 * pooled.fdp_se

    def test_stronger_signals_lower_fnp(self):
        weak = pool(run_cell(small_config(n=10**4, beta=0.6, r=0.1, reps=50), "lord"))
        strong = pool(run_cell(small_config(n=10**4, beta=0.6, r=1.5, reps=50), "lord"))
        assert strong.fnp <= weak.fnp - 0.3


class TestRunGrid:
    def test_single_cell_reduces_to_run_cell(self):
        cfg = small_config(reps=3, procedures=("bh",))
        rows = run_grid(cfg, r_values=[cfg.r], n_values=[cfg.n])
        records = run_cell(cfg, "bh")
        per_rep = [row for row in rows if row["replicate"] != "pooled"]
        assert len(per_rep) == 3
        for row, rec in zip(per_rep, records):
            assert row["fdp"] == rec.fdp
            assert row["fnp"] == rec.fnp
        assert rows[-1]["replicate"] == "pooled"

    def test_fnp_trend_along_r(self):
        cfg = small_config(n=10**4, beta=0.6, reps=50, procedures=("lord", "bh"))
        rows = run_grid(cfg, r_values=[0.5, 1.0, 1.5], n_values=[10**4])
        for proc in ("lord", "bh"):
            fnps = [
                row["fnp"]
                for row in rows
                if row["replicate"] == "pooled" and row["procedure"] == proc
            ]
            assert len(fnps) == 3
            for a, b in zip(fnps, fnps[1:]):
                assert b <= a + 0.05

    def test_inverse_log_grid_controls_fdp(self):
        cfg = small_config(
            beta=0.4, r=0.9, reps=40, q_rule="inverse-log", procedures=("lord", "lond")
        )
        rows = run_grid(cfg, r_values=[0.9], n_values=[10**3, 10**4])
        for row in rows:
            if row["replicate"] == "pooled":
                assert row["fdp"] <= row["q"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_grid(small_config(), r_values=[], n_values=[100])

    def test_rows_reproducible_and_csv_bytes_stable(self, tmp_path):
        cfg = small_config(reps=3)
        rows_a = run_grid(cfg, r_values=[0.5, 0.8], n_values=[2000])
        rows_b = run_grid(cfg, r_values=[0.5, 0.8], n_values=[2000])
        assert rows_a == rows_b
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows_a, path_a)
        write_csv(rows_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_csv_header(self, tmp_path):
        rows = run_grid(small_config(reps=2, procedures=("lord",)), [0.8], [2000])
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "replicate,n_eval,procedure,beta,r,gamma,q,fdp,fnp,rejections"


class TestOneGenerationPerReplicate:
    """The grid generates each (cell, replicate) once and decides every procedure on it."""

    @staticmethod
    def per_procedure_rows(base, r_values, n_values):
        # The per-procedure path: one run_cell per procedure, then its pooled row.
        rows = []
        for n in n_values:
            for r in r_values:
                cell = replace(base, n=n, r=r)
                for proc in cell.procedures:
                    records = run_cell(cell, proc)
                    rows.extend(simulation._row(cell, proc, rec) for rec in records)
                    rows.append(simulation._row(cell, proc, pool(records)))
        return rows

    def test_grid_rows_equal_per_procedure_path(self):
        base = small_config(
            beta=0.4,
            reps=3,
            q_rule="inverse-log",
            schedule="adaptive",
            procedures=("lord", "lond", "bh"),
        )
        args = ([0.5, 1.1], [1000, 3000])
        rows = run_grid(base, *args)
        expected = self.per_procedure_rows(base, *args)
        assert len(rows) == len(expected) == 2 * 2 * 3 * (3 + 1)
        for row, want in zip(rows, expected):
            assert list(row) == list(want)
            for key in want:
                assert type(row[key]) is type(want[key]), key
                assert row[key] == want[key], key

    @pytest.mark.parametrize("procedure", ["bh", "lord"])
    def test_single_procedure_csv_bytes(self, procedure, tmp_path):
        mixed = small_config(reps=4, procedures=("lond", "bh", "lord"))
        alone = replace(mixed, procedures=(procedure,))
        expected = self.per_procedure_rows(alone, [mixed.r], [mixed.n])
        from_mixed = [
            row for row in run_grid(mixed, [mixed.r], [mixed.n]) if row["procedure"] == procedure
        ]
        paths = [tmp_path / name for name in ("alone.csv", "expected.csv", "mixed.csv")]
        outputs = (run_grid(alone, [alone.r], [alone.n]), expected, from_mixed)
        for path, rows in zip(paths, outputs):
            write_csv(rows, path)
        data = [path.read_bytes() for path in paths]
        assert data[0] == data[1] == data[2]
        assert data[0].count(b"\n") == 1 + 4 + 1

    @pytest.mark.parametrize(
        "procedures", [("bh",), ("lord", "lond", "bh"), ("lord", "bh", "lond")]
    )
    def test_one_generation_per_replicate(self, procedures, monkeypatch):
        # The units run on a pool of two threads, so the counts are kept under a lock.
        calls = {"make_mixture": 0, "pvalue": 0}
        lock = threading.Lock()

        def counted(name):
            original = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulation, name, counted(name))
        usable_cpus(monkeypatch, 2)
        cfg = small_config(n=500, reps=3, procedures=procedures)
        run_grid(cfg, r_values=[0.5, 0.9], n_values=[400, 500])
        assert calls == {"make_mixture": 2 * 2 * 3, "pvalue": 2 * 2 * 3}

    @pytest.mark.parametrize(
        "overrides, builds",
        [
            ({}, [(1, 401), (1, 501)]),
            ({"schedule": "adaptive"}, [(1, 401), (1, 501)]),
            ({"q_rule": "inverse-log"}, [(1, 401), (1, 501)]),  # the budget 1/log n differs per n
            ({"procedures": ("bh",)}, []),
        ],
    )
    def test_one_lambda_build_per_n(self, overrides, builds, monkeypatch):
        # The cells of one n share lambda_1 .. lambda_n, built once for both r values.
        built = []
        original = LambdaSchedule._values

        def counting(sched, lo, hi):
            built.append((lo, hi))
            return original(sched, lo, hi)

        monkeypatch.setattr(LambdaSchedule, "_values", counting)
        cfg = small_config(n=500, reps=2, **overrides)
        rows = run_grid(cfg, r_values=[0.5, 0.9], n_values=[400, 500])
        assert built == builds
        monkeypatch.undo()
        assert rows == self.per_procedure_rows(cfg, [0.5, 0.9], [400, 500])


class TestThreads:
    """The (cell, replicate) units of a grid run on a thread pool with the rows of one thread."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma": 1.0},
            {"gamma": 1.5},
            {"gamma": 2.0},
            {"q_rule": "inverse-log", "schedule": "adaptive"},
            {"procedures": ("bh",)},
        ],
        ids=["gamma-1", "gamma-1.5", "gamma-2", "adaptive-inverse-log", "bh-only"],
    )
    def test_rows_and_csv_bytes_equal_for_every_thread_count(self, overrides, tmp_path,
                                                             monkeypatch):
        base = small_config(beta=0.4, reps=3, **overrides)
        grids = []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            grids.append(run_grid(base, [0.5, 1.1], [1000, 3000]))
        assert len(grids[0]) == 2 * 2 * len(base.procedures) * (3 + 1)
        assert grids[0] == grids[1] == grids[2]
        data = []
        for k, rows in enumerate(grids):
            write_csv(rows, tmp_path / f"{k}.csv")
            data.append((tmp_path / f"{k}.csv").read_bytes())
        assert data[0] == data[1] == data[2]

    def test_memory_budget_holds_the_pool_below_the_usable_cpus(self, monkeypatch):
        base = small_config(beta=0.4, reps=3)
        usable_cpus(monkeypatch, 1)
        want = run_grid(base, [0.5, 1.1], [1000, 3000])
        # Two units of the largest n fit in the budget: three CPUs, two threads.
        monkeypatch.setattr(simulation, "_POOL_BYTES", 2 * simulation._UNIT_BYTES_PER_N * 3000)
        usable_cpus(monkeypatch, 3)
        sizes = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers, **kwargs):
                sizes.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        assert run_grid(base, [0.5, 1.1], [1000, 3000]) == want
        assert sizes == [2]

    def test_rows_and_csv_bytes_equal_for_every_thread_count_when_lord_walks(self, tmp_path,
                                                                           monkeypatch):
        # A near-dense gamma = 1 grid whose lord rounds stop early and walk the rest.
        base = small_config(n=20_000, beta=0.01, gamma=1.0, seed=0, reps=2)
        sink = {}
        original = simulation._rejected
        monkeypatch.setattr(simulation, "_rejected", lambda *args: original(*args, stats=sink))
        usable_cpus(monkeypatch, 1)
        run_grid(base, [0.5, 1.1], [base.n])
        assert sink["lord"]["walked"] >= 1
        monkeypatch.setattr(simulation, "_rejected", original)
        grids, data = [], []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            grids.append(run_grid(base, [0.5, 1.1], [base.n]))
            write_csv(grids[-1], tmp_path / f"{cpus}.csv")
            data.append((tmp_path / f"{cpus}.csv").read_bytes())
        assert grids[0] == grids[1] == grids[2]
        assert data[0] == data[1] == data[2]

    def test_cell_records_equal_for_every_thread_count(self, monkeypatch):
        config = small_config(beta=0.3, reps=5)
        usable_cpus(monkeypatch, 1)
        want = simulation._cell_records(config, simulation.PROCEDURES)
        for cpus in (2, 3):
            usable_cpus(monkeypatch, cpus)
            assert simulation._cell_records(config, simulation.PROCEDURES) == want
        assert run_cell(config, "lond") == want[1]

    def test_one_usable_cpu_runs_in_this_thread(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="a pool was made"):  # the probe sees a pool
            run_grid(small_config(reps=3), [0.5], [1000])
        usable_cpus(monkeypatch, 1)
        threads = threading.active_count()
        run_grid(small_config(reps=3), [0.5, 1.1], [1000])
        run_cell(small_config(reps=3), "bh")
        assert threading.active_count() == threads

    def test_worker_count(self, monkeypatch):
        # Read, not started: no pool is made here.
        usable_cpus(monkeypatch, 64)
        assert simulation._workers(10**6, 1000) == 64
        assert simulation._workers(5, 1000) == 5
        assert simulation._workers(1, 1000) == 1
        # At most the units whose working arrays fit in the pool's budget, and at least one.
        per_unit = simulation._UNIT_BYTES_PER_N * 10**6
        assert simulation._workers(100, 10**6) == simulation._POOL_BYTES // per_unit == 8
        assert simulation._workers(100, 10**7) == 1
        assert simulation._workers(100, 10**9) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulation._workers(10, 1000) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulation._workers(10, 1000) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls")
    def test_place_leaves_the_thread_free_to_run_anywhere(self):
        allowed = os.sched_getaffinity(0)
        seen = []

        def placed(cpus):
            simulation._place(cpus)
            seen.append(os.sched_getaffinity(0))

        # One of this process's CPUs, then one it may not use: the thread keeps its
        # affinity either way.
        for cpus in ([min(allowed)], [max(allowed) + 1]):
            thread = threading.Thread(target=placed, args=(iter(cpus),))
            thread.start()
            thread.join()
        assert seen == [allowed, allowed]
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize(
        "overrides",
        [
            {"beta": 0.01, "gamma": 1.0},  # near-dense, every position kept
            {"beta": 0.01, "gamma": 2.0, "q": 0.6},  # 2q >= 1: every position kept
            {"beta": 0.2, "gamma": 1.5},
            {"beta": 0.6, "gamma": 2.0},
        ],
    )
    def test_unit_memory_within_its_bound(self, overrides):
        # The pool's thread cap counts _UNIT_BYTES_PER_N bytes per statistic for each running unit.
        n = 200_000
        cell = simulation._cell(small_config(n=n, reps=1, **overrides), simulation.PROCEDURES)
        tracemalloc.start()
        try:
            simulation._unit(cell, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation._UNIT_BYTES_PER_N * n

    def test_unit_exception_reaches_caller_unchanged(self, monkeypatch):
        error = ValueError("replicate 2 failed")
        original = simulation.make_mixture

        def failing(config, rep):
            if rep == 2:
                raise error
            return original(config, rep)

        monkeypatch.setattr(simulation, "make_mixture", failing)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as info:
            run_grid(small_config(reps=4), [0.5, 1.1], [1000])
        assert info.value is error


def reference_records(config, procedures, masks=None):
    """The cell's records from full P-values, signal masks and ``fdp_fnp_from_mask``.

    Each rejection mask is appended to ``masks`` when a list is given.
    """
    schedule = config.make_schedule()
    rules = {
        "bh": lambda p: bh_mask(p, config.effective_q()),
        "lord": lambda p: lord_levels(p, schedule)[1],
        "lond": lambda p: lond_levels(p, schedule)[1],
    }
    records = [[] for _ in procedures]
    for rep in range(config.reps):
        dataset = simulation.make_mixture(config, rep)
        pvals = pvalue(config.kernel, dataset.statistics)
        signal = dataset.truth.signal_mask()
        for proc, out in zip(procedures, records):
            rejected = rules[proc](pvals)
            if masks is not None:
                masks.append(rejected)
            f, g = fdp_fnp_from_mask(rejected, signal)
            out.append(MetricsRecord(n=config.n, fdp=f, fnp=g,
                                     rejections=int(rejected.sum()), replicate_id=rep))
    return records


def cell_records(config, procedures, masks):
    """``_cell_records`` with the rejection mask of each decision it makes appended to ``masks``.

    Each mask is rebuilt from the rejected positions the cell returns. The
    cell runs on one thread, so the masks come in replicate order.
    """
    original = simulation._decided

    def recorded(*args):
        hits = original(*args)
        mask = np.zeros(config.n, dtype=bool)
        mask[hits] = True
        masks.append(mask)
        return hits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_decided", recorded)
        usable_cpus(patch, 1)
        return simulation._cell_records(config, procedures)


def pvalue_sizes(monkeypatch):
    """The input size of each ``simulation.pvalue`` call, recorded from now on.

    Units then run on one thread, so the sizes come in replicate order.
    """
    usable_cpus(monkeypatch, 1)
    sizes = []
    original = simulation.pvalue

    def counted(kernel, x):
        sizes.append(np.size(x))
        return original(kernel, x)

    monkeypatch.setattr(simulation, "pvalue", counted)
    return sizes


class TestReadablePValues:
    """A cell computes P-values only where a decision can read them, and its rows stay exact."""

    PROCEDURES = ("lord", "lond", "bh")

    def assert_exact(self, config):
        got_masks, want_masks = [], []
        got = cell_records(config, self.PROCEDURES, got_masks)
        want = reference_records(config, self.PROCEDURES, want_masks)
        assert got == want
        assert len(got_masks) == len(want_masks) == config.reps * len(self.PROCEDURES)
        for got_mask, want_mask in zip(got_masks, want_masks):
            np.testing.assert_array_equal(got_mask, want_mask)
        return want_masks

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("schedule", ["power", "adaptive"])
    @pytest.mark.parametrize("q_rule", ["fixed", "inverse-log"])
    def test_rows_equal_full_pvalue_reference(self, gamma, schedule, q_rule):
        for beta in (0.2, 0.6):  # dense: thousands of discoveries; sparse: a few
            self.assert_exact(small_config(beta=beta, r=0.6, gamma=gamma, schedule=schedule,
                                           q_rule=q_rule, reps=3, nu=2.0))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_small_inverse_log_cells(self, n):
        # 2q = 2 / log n >= 1 up to n = 7, so every position is evaluated there.
        for gamma in (1.5, 2.0):
            for schedule in ("power", "adaptive"):
                self.assert_exact(small_config(n=n, beta=0.3, r=2.0, gamma=gamma, reps=20,
                                               schedule=schedule, q_rule="inverse-log"))

    @pytest.mark.parametrize(
        "overrides, evaluated",
        [
            ({}, "part"),
            ({"gamma": 3.0, "q": 0.45}, "part"),  # 2q > 1/2: the cut is negative
            ({"gamma": 1.0}, "all"),  # survival is one exp; no quantile is taken
            ({"q": 0.5}, "all"),  # 2q = 1
            ({"n": 7, "q_rule": "inverse-log"}, "all"),  # 2 / log 7 > 1
            ({"n": 30, "q_rule": "inverse-log"}, "part"),
        ],
    )
    def test_pvalue_runs_on_positions_at_or_above_the_cut(self, overrides, evaluated, monkeypatch):
        sizes = pvalue_sizes(monkeypatch)
        config = small_config(reps=2, **overrides)
        records = simulation._cell_records(config, self.PROCEDURES)
        assert len(sizes) == config.reps
        if evaluated == "all":
            assert sizes == [config.n] * config.reps
        else:
            cut = gg_quantile(config.kernel, 2 * config.effective_q())
            for rep, size in enumerate(sizes):
                stats_ = simulation.make_mixture(config, rep).statistics
                assert size == np.count_nonzero(stats_ >= cut) < config.n
        monkeypatch.undo()
        assert records == reference_records(config, self.PROCEDURES)

    @staticmethod
    def least_rejectable(kernel, q):
        """The least statistic whose computed P-value is at most ``q``, stepping ulps."""
        x = gg_quantile(kernel, q)
        while pvalue(kernel, x) <= q:
            x = np.nextafter(x, -np.inf)
        while pvalue(kernel, x) > q:
            x = np.nextafter(x, np.inf)
        return x

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("q, schedule", [(0.1, "adaptive"), (0.3, "power"), (0.45, "adaptive")])
    def test_statistics_planted_at_the_level_and_the_cut(self, gamma, q, schedule, monkeypatch):
        n = 700
        config = small_config(n=n, gamma=gamma, q=q, schedule=schedule, nu=2.0, reps=1)
        kernel = config.kernel

        def around(x):
            return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]

        edge = self.least_rejectable(kernel, q)
        at_q = around(gg_quantile(kernel, q))
        at_cut = around(gg_quantile(kernel, 2 * q))
        # The largest lord level, planted right after a discovery, where lord reads it.
        at_lambda = around(gg_quantile(kernel, config.make_schedule().lambda_at(1)))
        planted = {
            "edge": [edge] * n,  # every P-value at most q: bh rejects all
            "below edge": [np.nextafter(edge, -np.inf)] * n,  # every one above q: bh rejects none
            **{f"quantile {k}": [x] * n for k, x in enumerate(at_q)},
            "q and cut": np.resize(at_q + at_cut, n),
            "after discoveries": np.resize(
                [40.0, at_lambda[0], 40.0, at_lambda[1], 40.0, at_lambda[2]] + at_q + at_cut, n),
        }
        truth = simulation.TruthLabels(n, range(1, n + 1, 7))
        rejections = {}
        for name, stats_ in planted.items():
            dataset = simulation.MixtureDataset(np.array(stats_, dtype=np.float64), truth)
            monkeypatch.setattr(simulation, "make_mixture", lambda cfg, rep, d=dataset: d)
            masks = self.assert_exact(config)
            rejections[name] = [int(mask.sum()) for mask in masks]
        assert rejections["edge"][2] == n and rejections["below edge"][2] == 0
        assert min(rejections["after discoveries"]) > 0

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("schedule", ["power", "adaptive"])
    @pytest.mark.parametrize("kept", ["none", "all"])
    def test_no_statistic_or_every_statistic_kept(self, gamma, schedule, kept, monkeypatch):
        # An empty subset: every statistic just below the cut. The full set:
        # every statistic at or above it, so some P-values lie between q and 2q.
        n = 700
        config = small_config(n=n, gamma=gamma, schedule=schedule, nu=2.0, reps=1)
        cut = gg_quantile(config.kernel, 2 * config.effective_q())
        rng = np.random.default_rng(11)
        if kept == "none":
            stats_ = np.nextafter(cut, -np.inf) - 4.0 * rng.random(n)
        else:
            stats_ = cut + 6.0 * rng.random(n)
            stats_[0] = cut
        dataset = simulation.MixtureDataset(stats_, simulation.TruthLabels(n, range(1, n + 1, 7)))
        monkeypatch.setattr(simulation, "make_mixture", lambda cfg, rep: dataset)
        sizes = pvalue_sizes(monkeypatch)
        masks = self.assert_exact(config)
        assert sizes == [0 if kept == "none" else n]
        rejections = [int(mask.sum()) for mask in masks]
        if kept == "none":
            assert rejections == [0, 0, 0]
        else:
            assert all(0 < count < n for count in rejections)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_raises(self, gamma, bad, monkeypatch):
        # Checked at every position, the skipped ones too.
        config = small_config(n=50, gamma=gamma, reps=1)
        stats_ = np.zeros(50)
        stats_[17] = bad
        dataset = simulation.MixtureDataset(stats_, simulation.TruthLabels(50, [1]))
        monkeypatch.setattr(simulation, "make_mixture", lambda cfg, rep: dataset)
        with pytest.raises(ValueError, match=r"^statistic values must be finite$"):
            simulation._cell_records(config, self.PROCEDURES)

    @pytest.mark.parametrize("q_rule, q", [("fixed", 0.1), ("fixed", 0.45), ("inverse-log", 0.1)])
    @pytest.mark.parametrize("schedule, nu", [("power", 1.05), ("power", 2.0), ("adaptive", 1.05)])
    def test_schedules_do_not_increase_and_keep_lambda_i_times_i_within_q(
            self, q_rule, q, schedule, nu):
        # The lond bound lambda_i (D + 1) <= lambda_i i <= q that makes the cut exact.
        config = small_config(n=8, q=q, q_rule=q_rule, schedule=schedule, nu=nu)
        budget = config.effective_q()
        schedule = config.make_schedule()
        prefix = schedule.prefix(10**6)
        far = schedule.slice(2 * 10**7, 2 * 10**7 + 10**5)
        for lo, values in ((1, prefix), (2 * 10**7, far)):
            assert np.all(np.diff(values) <= 0.0)
            assert np.all(values * np.arange(lo, lo + values.size, dtype=np.float64) <= budget)
        assert far[0] <= prefix[-1]
        assert np.cumsum(prefix)[-1] <= budget
