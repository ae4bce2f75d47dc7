"""Metric tests: 0/0 conventions, pooling, degenerate-procedure identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfdr import (
    Decision,
    MetricsRecord,
    TruthLabels,
    fdp,
    fdp_at_horizons,
    fdp_fnp_from_mask,
    fnp,
    horizon_grid,
    lord_levels,
    make_power_schedule,
    pool,
)
from streamfdr.simulation import FieldError


def decisions_from_rejections(n, rejected_indices):
    rejected = set(rejected_indices)
    return [Decision(i, 1.0 if i in rejected else 0.0, 0.5, i in rejected) for i in range(1, n + 1)]


class TestTruthLabels:
    def test_mask_positions(self):
        truth = TruthLabels(5, frozenset({2, 5}))
        assert truth.signal_mask().tolist() == [False, True, False, False, True]

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            TruthLabels(3, frozenset({0}))
        with pytest.raises(ValueError):
            TruthLabels(3, frozenset({4}))

    def test_non_whole_n_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got 3.5$"):
            TruthLabels(3.5, [1])
        truth = TruthLabels(3.0, [1])
        assert type(truth.n) is int and truth.signal_mask().tolist() == [True, False, False]

    @pytest.mark.parametrize("n, shown", [("3", "'3'"), (-1, "-1")])
    def test_n_not_a_count_names_n(self, n, shown):
        with pytest.raises(FieldError, match=rf"^n must be an integer >= 0, got {shown}$") as info:
            TruthLabels(n, [1])
        assert info.value.field == "n"

    def test_empty_signals(self):
        assert not TruthLabels(4, frozenset()).signal_mask().any()

    def test_set_list_and_array_agree(self):
        forms = (frozenset({5, 2, 9}), [9, 2, 5], np.array([5, 9, 2]))
        truths = [TruthLabels(10, form) for form in forms]
        for truth in truths:
            assert truth.false_null_indices.dtype == np.int64
            assert truth.false_null_indices.tolist() == [2, 5, 9]
            assert np.array_equal(truth.signal_mask(), truths[0].signal_mask())

    def test_stored_indices_are_read_only(self):
        truth = TruthLabels(5, np.array([2, 4]))
        with pytest.raises(ValueError):
            truth.false_null_indices[0] = 3

    def test_array_duplicates_collapse(self):
        truth = TruthLabels(6, np.array([4, 1, 4, 4, 1]))
        assert truth.false_null_indices.tolist() == [1, 4]
        assert truth.signal_mask().tolist() == [True, False, False, True, False, False]

    @pytest.mark.parametrize("form", [frozenset, list, np.array])
    @pytest.mark.parametrize("bad", [0, 7, 2.5, float("nan")])
    def test_bad_index_rejected_for_each_form(self, form, bad):
        with pytest.raises(ValueError):
            TruthLabels(6, form([1, bad]))


class TestFdpFnp:
    def test_no_rejections_is_zero(self):
        truth = TruthLabels(4, frozenset({1, 2}))
        assert fdp(decisions_from_rejections(4, []), truth) == 0.0

    def test_half_false(self):
        truth = TruthLabels(4, frozenset({2, 3}))
        assert fdp(decisions_from_rejections(4, [1, 2]), truth) == 0.5

    def test_all_false_when_no_signals(self):
        truth = TruthLabels(3, frozenset())
        assert fdp(decisions_from_rejections(3, [1, 2, 3]), truth) == 1.0

    def test_fnp_zero_when_no_signals(self):
        truth = TruthLabels(3, frozenset())
        assert fnp(decisions_from_rejections(3, []), truth) == 0.0

    def test_fnp_one_when_nothing_rejected(self):
        truth = TruthLabels(6, frozenset({4, 5}))
        assert fnp(decisions_from_rejections(6, []), truth) == 1.0

    def test_fnp_half(self):
        truth = TruthLabels(6, frozenset({4, 5}))
        assert fnp(decisions_from_rejections(6, [4]), truth) == 0.5

    def test_length_mismatch_rejected(self):
        truth = TruthLabels(4, frozenset({1}))
        with pytest.raises(ValueError):
            fdp(decisions_from_rejections(3, []), truth)

    def test_index_mismatch_rejected(self):
        truth = TruthLabels(2, frozenset({1}))
        bad = [Decision(1, 0.5, 0.5, False), Decision(3, 0.5, 0.5, False)]
        with pytest.raises(ValueError):
            fnp(bad, truth)

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_counting_identity(self, n, data):
        rejected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        signal = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        f, g = fdp_fnp_from_mask(rejected, signal)
        assert 0.0 <= f <= 1.0
        assert 0.0 <= g <= 1.0
        true_pos = int((rejected & signal).sum())
        false_pos = int((rejected & ~signal).sum())
        assert int(rejected.sum()) == true_pos + false_pos


class TestDegenerateProcedures:
    def test_never_reject_risk_is_one(self):
        truth = TruthLabels(10, frozenset({3, 7}))
        decisions = decisions_from_rejections(10, [])
        assert fdp(decisions, truth) == 0.0
        assert fnp(decisions, truth) == 1.0

    def test_always_reject_fdp_is_null_fraction(self):
        truth = TruthLabels(10, frozenset({3, 7}))
        decisions = decisions_from_rejections(10, range(1, 11))
        assert fnp(decisions, truth) == 0.0
        assert fdp(decisions, truth) == 1.0 - len(truth.false_null_indices) / truth.n


class TestPool:
    def test_single_record_pools_to_itself(self):
        rec = MetricsRecord(n=100, fdp=0.2, fnp=0.3, rejections=5, replicate_id=0)
        pooled = pool([rec])
        assert pooled.fdp == 0.2
        assert pooled.fnp == 0.3
        assert pooled.fdp_se == 0.0 and pooled.fnp_se == 0.0
        assert pooled.reps == 1
        assert pooled.risk == pytest.approx(0.5)

    def test_two_point_se(self):
        recs = [
            MetricsRecord(n=10, fdp=0.0, fnp=1.0, rejections=0, replicate_id=0),
            MetricsRecord(n=10, fdp=1.0, fnp=0.0, rejections=3, replicate_id=1),
        ]
        pooled = pool(recs)
        assert pooled.fdp == 0.5
        assert pooled.fdp_se == pytest.approx(0.5)
        assert pooled.fnp_se == pytest.approx(0.5)
        assert pooled.rejections == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool([])

    def test_mixed_horizons_rejected(self):
        recs = [
            MetricsRecord(n=10, fdp=0.0, fnp=0.0, rejections=0),
            MetricsRecord(n=20, fdp=0.0, fnp=0.0, rejections=0),
        ]
        with pytest.raises(ValueError):
            pool(recs)

    def test_null_stream_mean_fdp_controlled(self):
        # 300 all-null replicates of the recent-discovery rule.
        sched = make_power_schedule(1.05, 0.1)
        rng = np.random.default_rng(12)
        records = []
        truth = TruthLabels(1000, frozenset())
        for rep in range(300):
            _, rejected = lord_levels(rng.random(1000), sched)
            f, g = fdp_fnp_from_mask(rejected, truth.signal_mask())
            records.append(
                MetricsRecord(n=1000, fdp=f, fnp=g, rejections=int(rejected.sum()), replicate_id=rep)
            )
        pooled = pool(records)
        assert pooled.fdp <= 0.1 + 3 * pooled.fdp_se


class TestHorizons:
    def test_grid_shape(self):
        grid = horizon_grid(5000)
        assert grid == [10, 20, 40, 79, 157, 313, 625, 1250, 2500, 5000]

    def test_grid_small_n(self):
        assert horizon_grid(8) == [8]
        assert horizon_grid(10) == [10]

    def test_fdp_at_horizons_matches_direct(self):
        rng = np.random.default_rng(2)
        n = 500
        rejected = rng.random(n) < 0.05
        signal = rng.random(n) < 0.1
        horizons = horizon_grid(n)
        got = fdp_at_horizons(rejected, signal, horizons)
        for k, h in enumerate(horizons):
            expected = fdp_fnp_from_mask(rejected[:h], signal[:h])[0]
            assert got[k] == expected

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            fdp_at_horizons(np.zeros(5, bool), np.zeros(5, bool), [6])

    def test_grid_of_a_non_whole_n_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 100.5$"):
            horizon_grid(100.5)

    @pytest.mark.parametrize("n, shown", [("100", "'100'"), (0, "0")])
    def test_grid_of_a_non_count_names_n(self, n, shown):
        with pytest.raises(FieldError, match=rf"^n must be an integer >= 1, got {shown}$") as info:
            horizon_grid(n)
        assert info.value.field == "n"

    def test_horizons_need_equal_mask_lengths(self):
        # A length-1 signal mask must not broadcast over the rejections.
        with pytest.raises(ValueError, match="^rejection and signal masks must have equal length$"):
            fdp_at_horizons(np.ones(10, bool), np.zeros(1, bool), [5, 10])

    def test_horizon_bounds_messages(self):
        rejected = signal = np.zeros(5, bool)
        with pytest.raises(FieldError, match=r"^horizon must be an integer >= 1, got 0$"):
            fdp_at_horizons(rejected, signal, [0])
        with pytest.raises(ValueError, match=r"^horizon 6 outside 1\.\.5$"):
            fdp_at_horizons(rejected, signal, [6.0])

    def test_grid_of_a_whole_float_holds_ints(self):
        grid = horizon_grid(100.0)
        assert grid == horizon_grid(100) and all(type(h) is int for h in grid)

    def test_whole_float_horizons_read_as_ints(self):
        rejected = np.array([True, True, False, True])
        signal = np.array([True, False, False, False])
        assert fdp_at_horizons(rejected, signal, [2.0, np.int64(4)]).tolist() == \
            fdp_at_horizons(rejected, signal, [2, 4]).tolist() == [0.5, 2 / 3]
        with pytest.raises(ValueError, match=r"^horizon must be an integer >= 1, got 2.5$"):
            fdp_at_horizons(rejected, signal, [2.5])
