"""Budget schedule tests: normalization against partial-sum oracles."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfdr import LambdaSchedule, make_adaptive_schedule, make_power_schedule, schedules

CHUNK = schedules._CHUNK
LAST_CACHED = (schedules._CACHE_LIMIT - 1) // CHUNK  # last chunk starting at or below the limit
FIRST_FAR = LAST_CACHED + 1
MAKERS = {
    "power": lambda: make_power_schedule(1.05, 0.1),
    "adaptive": lambda: make_adaptive_schedule(0.1),
}


def zeta_bracket(nu, n_terms=10**7):
    """Partial-sum oracle for zeta(nu): sum of n_terms plus integral tail bounds.

    The tail past n_terms lies between the integrals from n_terms + 1 and
    from n_terms, giving a rigorous bracket for the infinite sum.
    """
    i = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = float(np.sum(i**-nu))
    low = partial + (n_terms + 1) ** (1.0 - nu) / (nu - 1.0)
    high = partial + n_terms ** (1.0 - nu) / (nu - 1.0)
    return low, high


def adaptive_sum_bracket(schedule, n_terms=10**7):
    """Partial lambda sum plus the 1/log tail bracket, scaled by the normalizer."""
    partial = float(np.sum(schedule.prefix(n_terms)))
    # remaining terms are L / (j log^2 j) for j >= n_terms + 2
    m = n_terms + 2
    low = partial + schedule.normalizer / math.log(m + 1)
    high = partial + schedule.normalizer / math.log(m)
    return low, high


class TestPowerSchedule:
    def test_normalizer_inside_zeta_bracket(self):
        for nu in (1.05, 2.0):
            sched = make_power_schedule(nu, 0.1)
            low, high = zeta_bracket(nu)
            implied_zeta = 0.1 / sched.normalizer
            assert low - 1e-9 <= implied_zeta <= high + 1e-9

    def test_zeta_two_analytic(self):
        sched = make_power_schedule(2.0, 0.1)
        assert 0.1 / sched.normalizer == pytest.approx(math.pi**2 / 6, rel=1e-14)

    def test_first_value_q_point_one(self):
        sched = make_power_schedule(2.0, 0.1)
        assert sched.lambda_at(1) == pytest.approx(0.1 * 6 / math.pi**2, rel=1e-13)

    def test_unit_normalizer_ratios(self):
        # With L frozen, lambda_i / lambda_1 = i**-nu; checks the i^-2 law
        # that would give the 1, 1/4, 1/9 head if L were 1.
        sched = make_power_schedule(2.0, 0.1)
        assert sched.lambda_at(1) / sched.lambda_at(2) == pytest.approx(4.0, rel=1e-12)
        assert sched.lambda_at(1) / sched.lambda_at(3) == pytest.approx(9.0, rel=1e-12)

    def test_first_value_is_normalizer(self):
        sched = make_power_schedule(1.05, 0.1)
        assert sched.lambda_at(1) == sched.normalizer

    def test_residual_within_budget(self):
        # Partial sum plus the bracket midpoint tail lands on q within 1e-9.
        for nu in (1.05, 2.0):
            sched = make_power_schedule(nu, 0.1)
            n_terms = 10**7
            partial = float(np.sum(sched.prefix(n_terms)))
            tail_low = sched.normalizer * (n_terms + 1) ** (1.0 - nu) / (nu - 1.0)
            tail_high = sched.normalizer * n_terms ** (1.0 - nu) / (nu - 1.0)
            mid = partial + 0.5 * (tail_low + tail_high)
            assert abs(mid - 0.1) <= 1e-9

    def test_partial_sums_never_exceed_budget(self):
        sched = make_power_schedule(1.05, 0.1)
        partial = np.cumsum(sched.prefix(10**6))
        assert partial[-1] < 0.1
        assert np.all(partial < 0.1)

    def test_divergent_exponent_rejected(self):
        for nu in (1.0, 0.9, -2.0, float("nan")):
            with pytest.raises(ValueError):
                make_power_schedule(nu, 0.1)

    def test_budget_domain(self):
        for q in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                make_power_schedule(2.0, q)

    def test_inverse_log_budgets_supported(self):
        # q = 1/log(n) stays in (0, 1) for n >= 3 and builds fine.
        for n in (3, 10**4, 10**6):
            q = 1.0 / math.log(n)
            sched = make_power_schedule(1.05, q)
            head = sched.prefix(100)
            assert np.all(head > 0)
            assert np.all(np.diff(head) <= 0)
            assert float(head.sum()) < q


class TestAdaptiveSchedule:
    def test_strictly_decreasing(self):
        sched = make_adaptive_schedule(0.1)
        head = sched.prefix(10**5)
        assert np.all(np.diff(head) < 0)

    def test_normalization_bracket(self):
        sched = make_adaptive_schedule(0.1)
        low, high = adaptive_sum_bracket(sched)
        assert low <= 0.1 + 1e-9
        assert high >= 0.1 - 1e-9
        assert high - low < 1e-7

    def test_growth_condition_values(self):
        # i**1.01 * lambda_i at 1e2, 1e4, 1e6, frozen from direct evaluation
        # of i**1.01 / ((i+1) log^2(i+1)); the triple decreases because the
        # i**0.01 factor only overtakes log^2 beyond i ~ e^200.
        sched = make_adaptive_schedule(0.1)
        L = sched.normalizer
        expected = {
            10**2: 0.04867573671075305,
            10**4: 0.012923965279501693,
            10**6: 0.006015415418779022,
        }
        got = {i: i**1.01 * sched.lambda_at(i) / L for i in expected}
        for i, val in expected.items():
            assert got[i] == pytest.approx(val, rel=1e-12)
        assert got[10**2] > got[10**4] > got[10**6]

    def test_growth_condition_eventually_diverges(self):
        # Past the turnaround the weighted sequence increases without bound.
        sched = make_adaptive_schedule(0.1)

        def weighted(i):
            return 1.01 * math.log(i) + math.log(sched.lambda_at(i))

        i1, i2, i3 = int(math.exp(210)), int(math.exp(250)), int(math.exp(300))
        assert weighted(i1) < weighted(i2) < weighted(i3)

    def test_budget_domain(self):
        for q in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                make_adaptive_schedule(q)


class TestLambdaAccess:
    def test_index_errors(self):
        sched = make_power_schedule(2.0, 0.1)
        for i in (0, -1):
            with pytest.raises(ValueError):
                sched.lambda_at(i)

    def test_repeated_calls_identical(self):
        sched = make_power_schedule(1.05, 0.1)
        first = [sched.lambda_at(i) for i in (1, 17, 4096, 4097, 123456)]
        second = [sched.lambda_at(i) for i in (1, 17, 4096, 4097, 123456)]
        assert first == second

    def test_scalar_and_slice_agree_bitwise(self):
        for sched in (make_power_schedule(1.05, 0.1), make_adaptive_schedule(0.1)):
            window = sched.slice(4000, 4200)  # crosses a chunk boundary
            for offset, i in enumerate(range(4000, 4200)):
                assert sched.lambda_at(i) == window[offset]
            prefix = sched.prefix(50)
            assert np.array_equal(prefix, sched.slice(1, 51))

    def test_nonincreasing_over_long_prefix(self):
        for sched in (make_power_schedule(1.05, 0.1), make_adaptive_schedule(0.1)):
            assert np.all(np.diff(sched.prefix(10**6)) <= 0)

    def test_values_beyond_cache_limit(self):
        sched = make_power_schedule(2.0, 0.1)
        i = 10**7 + 12345
        expected = sched.normalizer * float(np.float64(i)) ** -2.0
        assert sched.lambda_at(i) == pytest.approx(expected, rel=1e-12)
        assert sched.lambda_at(i) == sched.slice(i, i + 1)[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            LambdaSchedule(kind="powr", q=0.1, nu=2.0, normalizer=0.06)

    def test_bad_slice_ranges(self):
        sched = make_power_schedule(2.0, 0.1)
        with pytest.raises(ValueError):
            sched.slice(0, 5)
        with pytest.raises(ValueError):
            sched.slice(5, 4)

    @given(
        st.floats(1.01, 5.0, allow_nan=False),
        st.floats(0.001, 0.999, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_power_schedule_properties(self, nu, q):
        sched = make_power_schedule(nu, q)
        head = sched.prefix(500)
        assert np.all(head > 0)
        assert np.all(np.diff(head) <= 0)
        assert float(head.sum()) < q


class TestFarPath:
    """Chunks past the cache limit: only the last one built is kept."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_far_reads_agree_bitwise(self, kind):
        sched = MAKERS[kind]()
        for c in (LAST_CACHED, FIRST_FAR, (2 * 10**7 - 1) // CHUNK):
            lo = c * CHUNK + 1
            window = sched.slice(lo - 2, lo + CHUNK + 2)  # both seams of chunk c
            for i in (lo - 2, lo - 1, lo, lo + CHUNK // 2, lo + CHUNK - 1, lo + CHUNK, lo + CHUNK + 1):
                assert sched.lambda_at(i) == window[i - lo + 2] == MAKERS[kind]().lambda_at(i), (kind, i)
        i = 2 * 10**7
        assert sched.lambda_at(i) == MAKERS[kind]().slice(i, i + 1)[0] == MAKERS[kind]().lambda_at(i)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_far_chunks_are_not_cached(self, kind):
        sched = MAKERS[kind]()
        sched.lambda_at(10**7)
        for i in (10**7 + 1, (FIRST_FAR + 1) * CHUNK, 2 * 10**7, 10**9):
            sched.lambda_at(i)
        sched.slice(2 * 10**7, 2 * 10**7 + 3 * CHUNK)
        assert max(sched._chunks) == LAST_CACHED

    def test_sequential_far_read_builds_each_chunk_once(self, monkeypatch):
        sched = make_power_schedule(1.05, 0.1)
        builds = []
        arange = np.arange

        def counting_arange(start, *args, **kwargs):
            builds.append(start)
            return arange(start, *args, **kwargs)

        monkeypatch.setattr(schedules.np, "arange", counting_arange)
        lo = FIRST_FAR * CHUNK + 1
        for i in range(lo, lo + 3 * CHUNK):
            sched.lambda_at(i)
        assert builds == [lo, lo + CHUNK, lo + 2 * CHUNK]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_threads_share_the_far_slot(self, kind):
        # Readers of different far chunks (more of them than cores) replace
        # each other's slot entry over and over; each must still read its
        # own chunk's values.
        sched = MAKERS[kind]()
        starts = tuple(FIRST_FAR * CHUNK + 1 + k * 1000 * CHUNK for k in range(4))
        offsets = (0, 1, CHUNK // 2, CHUNK - 1)
        want = {lo: [MAKERS[kind]().lambda_at(lo + k) for k in offsets] for lo in starts}
        barrier = threading.Barrier(len(starts))
        wrong = []

        def read(lo):
            barrier.wait()
            for _ in range(300):
                got = [sched.lambda_at(lo + k) for k in offsets]
                if got != want[lo]:
                    wrong.append((lo, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(lo,)) for lo in starts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_adaptive_normalizer_literal(self):
        # sum_{j>=2} f(j), f(x) = 1/(x log^2 x): math.fsum of the first 1e4
        # terms plus the Euler-Maclaurin tail from M = 10002 through f''',
        #   1/log M + f(M)/2 - f'(M)/12 + f'''(M)/720.
        # The first neglected term, f^(5)(M)/30240, is below 1e-25 and the
        # rounding of the terms adds under 1e-15, so this evaluation is good
        # to a few ulp. Bound: the literal (a pairwise float sum of 1e7
        # terms) lies within 1e-14 relative of it.
        m = 10**4 + 2
        u = math.log(m)
        partial = math.fsum(1.0 / (j * math.log(j) ** 2) for j in range(2, m))
        f = 1.0 / (m * u**2)
        f1 = -(1.0 / u**2 + 2.0 / u**3) / m**2
        f3 = -(6.0 / u**2 + 22.0 / u**3 + 36.0 / u**4 + 24.0 / u**5) / m**4
        independent = partial + 1.0 / u + f / 2.0 - f1 / 12.0 + f3 / 720.0
        assert abs(schedules._ADAPTIVE_NORM - independent) <= 1e-14 * independent
        assert make_adaptive_schedule(0.1).normalizer == 0.1 / schedules._ADAPTIVE_NORM
