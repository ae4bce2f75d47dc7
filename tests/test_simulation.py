"""Mixture generation and experiment grid tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from streamfdr import simulation
from streamfdr import (
    AltPValueCDF,
    GGKernel,
    LondState,
    LordState,
    MixtureConfig,
    gg_survival,
    lond_step,
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

# Each range check that NaN must fail: (call, message, FieldError.field or None).
NAN_CHECKS = {
    "schedule q": (lambda: make_power_schedule(1.05, NAN), Q_MESSAGE, "q"),
    "adaptive q": (lambda: make_adaptive_schedule(NAN), Q_MESSAGE, "q"),
    "schedule nu": (lambda: make_power_schedule(NAN, 0.1),
                    r"^nu must exceed 1 \(the series diverges otherwise\), got nan$", "nu"),
    "config beta": (lambda: small_config(beta=NAN), r"^beta must lie in \(0, 1\), got nan$", "beta"),
    "config q": (lambda: small_config(q=NAN), Q_MESSAGE, "q"),
    "config nu": (lambda: small_config(nu=NAN), r"^nu must exceed 1, got nan$", "nu"),
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
        with pytest.raises(ValueError):
            make_mixture(small_config(), -1)

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
            procedures=("lord", "lond", "lord", "bh"),
        )
        args = ([0.5, 1.1], [1000, 3000])
        rows = run_grid(base, *args)
        expected = self.per_procedure_rows(base, *args)
        assert len(rows) == len(expected) == 2 * 2 * 4 * (3 + 1)
        for row, want in zip(rows, expected):
            assert list(row) == list(want)
            for key in want:
                assert type(row[key]) is type(want[key]), key
                assert row[key] == want[key], key
        # The repeated "lord" entry (first and third of four) repeats its rows in every cell.
        for cell in range(0, len(rows), 16):
            assert rows[cell : cell + 4] == rows[cell + 8 : cell + 12]

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
        "procedures", [("bh",), ("lord", "lond", "bh"), ("lord", "lord", "bh", "lond")]
    )
    def test_one_generation_per_replicate(self, procedures, monkeypatch):
        calls = {"make_mixture": 0, "pvalue": 0}

        def counted(name):
            original = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulation, name, counted(name))
        cfg = small_config(n=500, reps=3, procedures=procedures)
        run_grid(cfg, r_values=[0.5, 0.9], n_values=[400, 500])
        assert calls == {"make_mixture": 2 * 2 * 3, "pvalue": 2 * 2 * 3}

    @pytest.mark.parametrize(
        "overrides, builds",
        [
            ({}, 1),
            ({"schedule": "adaptive"}, 1),
            ({"q_rule": "inverse-log"}, 2),  # the budget 1/log n differs per n
            ({"procedures": ("bh",)}, 0),
        ],
    )
    def test_one_schedule_per_kind_budget_and_exponent(self, overrides, builds, monkeypatch):
        built = []
        for name in ("make_power_schedule", "make_adaptive_schedule"):
            original = getattr(simulation, name)

            def wrapper(*args, _original=original, **kwargs):
                built.append(_original(*args, **kwargs))
                return built[-1]

            monkeypatch.setattr(simulation, name, wrapper)
        cfg = small_config(n=500, reps=2, **overrides)
        rows = run_grid(cfg, r_values=[0.5, 0.9], n_values=[400, 500])
        assert len(built) == builds
        monkeypatch.undo()
        assert rows == self.per_procedure_rows(cfg, [0.5, 0.9], [400, 500])
