"""Budget schedule tests: normalization against partial-sum oracles."""

import copy
import math
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError, asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from streamfdr import (LambdaSchedule, LondState, LordState, MixtureConfig, lond_levels, lond_step,
                       lord_levels, lord_step, make_adaptive_schedule, make_power_schedule, run_grid,
                       schedules)

CHUNK = schedules._CHUNK
# The reference: ``chunk_aligned_values`` evaluates each value inside the
# arange of its 4096-aligned chunk, and every read must give those bits
# whatever range it builds.
REFERENCE_CHUNK = 4096
# Two deep chunks and the seam between them: 2441 holds index 1e7,
# (10**7 - 1) // CHUNK, and the next chunk starts past it.
CHUNK_AT_1E7 = 2441
CHUNK_PAST_1E7 = CHUNK_AT_1E7 + 1
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


def chunk_aligned_values(sched, lo, hi):
    """lambda_lo .. lambda_{hi-1}, each evaluated inside its REFERENCE_CHUNK-aligned chunk."""
    size = REFERENCE_CHUNK
    first, stop = (lo - 1) // size, (hi - 2) // size + 1
    chunks = []
    for c in range(first, stop):
        i = np.arange(c * size + 1, (c + 1) * size + 1, dtype=np.float64)
        chunks.append(sched.normalizer * i ** (-sched.nu) if sched.kind == "power"
                      else sched.normalizer / ((i + 1.0) * np.log(i + 1.0) ** 2))
    return np.concatenate(chunks)[lo - 1 - first * size : hi - 1 - first * size]


def counting_builds(monkeypatch):
    """Start index of every range built from now on (wraps ``schedules.np.arange``)."""
    builds = []
    arange = np.arange

    def counting_arange(start, *args, **kwargs):
        builds.append(start)
        return arange(start, *args, **kwargs)

    monkeypatch.setattr(schedules.np, "arange", counting_arange)
    return builds


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


def zeta_mismatches(nus):
    """The nu whose ``_zeta`` bits differ from ``scipy.special.zeta``'s, with both hexes."""
    nus = np.asarray(nus, dtype=np.float64)
    want = [float(z).hex() for z in special.zeta(nus)]
    return [(float(nu), got, expected) for nu, expected in zip(nus.tolist(), want)
            if (got := schedules._zeta(nu).hex()) != expected]


class TestZeta:
    """``schedules._zeta`` gives the bits of its oracle, ``scipy.special.zeta``."""

    @pytest.mark.parametrize("lo, hi", [(1.0, 10.0), (10.0, 50.0), (50.0, 130.0)],
                             ids=["rational", "scipy-range", "odd-sum"])
    def test_seeded_sweep(self, lo, hi):
        nus = lo + (hi - lo) * (1.0 - np.random.default_rng(int(hi)).random(20000))  # in (lo, hi]
        assert zeta_mismatches(nus) == []

    def test_just_above_one(self):
        nus = [1.0 + 2.0**-52, 1.0 + 1e-15, 1.0 + 1e-12, *(1.0 + 10.0**np.linspace(-8.0, 0.0, 401))]
        assert zeta_mismatches(nus) == []

    def test_every_integer_to_fifty(self):
        assert zeta_mismatches(np.arange(2.0, 51.0)) == []

    def test_branch_edges(self):
        edges = [10.0, 30.0, 50.0, 127.0]
        nus = [*edges, *np.nextafter(edges, 0.0), *np.nextafter(edges, math.inf), 30.5, 126.9]
        assert zeta_mismatches(nus) == []

    def test_far_exponents(self):
        assert zeta_mismatches([127.0, 1e6, math.inf]) == []
        # zeta(inf) is 1, not a 0/0, so lambda_1 takes the whole budget.
        assert schedules._zeta(math.inf) == 1.0
        assert make_power_schedule(math.inf, 0.1).normalizer == 0.1

    def test_normalizer_is_q_over_scipy_zeta(self):
        assert make_power_schedule(1.05, 0.1).normalizer == 0.1 / special.zeta(1.05)


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

    @given(
        st.sampled_from(sorted(MAKERS)),
        st.sampled_from([1.05, 1.5, 2.0]) | st.floats(1.01, 4.0),
        st.integers(1, 3 * REFERENCE_CHUNK) | st.integers(1, 10**9),
        st.integers(1, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_range_has_the_chunk_aligned_bits(self, kind, nu, lo, length):
        # A value's bits depend on its index alone, not on the range built.
        sched = make_power_schedule(nu, 0.1) if kind == "power" else make_adaptive_schedule(0.1)
        hi = lo + length
        want = bits(chunk_aligned_values(sched, lo, hi))
        assert bits([sched.lambda_at(i) for i in range(lo, hi)]) == want
        # p = 1 rejects nothing, so both steps read alpha_i = lambda_i.
        lord, lond = LordState(next_index=lo), LondState(next_index=lo)
        assert bits([lord_step(lord, sched, 1.0).alpha for _ in range(length)]) == want
        assert bits([lond_step(lond, sched, 1.0).alpha for _ in range(length)]) == want
        assert bits(sched.slice(lo, hi)) == want

    def test_nonincreasing_over_long_prefix(self):
        for sched in (make_power_schedule(1.05, 0.1), make_adaptive_schedule(0.1)):
            assert np.all(np.diff(sched.prefix(10**6)) <= 0)

    def test_values_far_from_the_start(self):
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
    """Point reads, steps and slices far from index 1; the schedule keeps none of their chunks."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_far_reads_agree_bitwise(self, kind):
        sched = MAKERS[kind]()
        for c in (CHUNK_AT_1E7, CHUNK_PAST_1E7, (2 * 10**7 - 1) // CHUNK):
            lo = c * CHUNK + 1
            window = sched.slice(lo - 2, lo + CHUNK + 2)  # both seams of chunk c
            for i in (lo - 2, lo - 1, lo, lo + CHUNK // 2, lo + CHUNK - 1, lo + CHUNK, lo + CHUNK + 1):
                assert sched.lambda_at(i) == window[i - lo + 2] == MAKERS[kind]().lambda_at(i), (kind, i)
        i = 2 * 10**7
        assert sched.lambda_at(i) == MAKERS[kind]().slice(i, i + 1)[0] == MAKERS[kind]().lambda_at(i)

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_far_chunks_are_not_cached(self, kind):
        sched = MAKERS[kind]()
        attributes = dict(vars(sched))
        sched.lambda_at(10**7)
        for i in (10**7 + 1, (CHUNK_PAST_1E7 + 1) * CHUNK, 2 * 10**7, 10**9, 10**9 - 1):
            sched.lambda_at(i)
        sched.slice(2 * 10**7, 2 * 10**7 + 3 * CHUNK)
        state = LondState(next_index=10**9)
        for _ in range(3):
            lond_step(state, sched, 0.5)
        # Point reads, far slices and steps write nothing to the schedule:
        # no attribute was added or replaced.
        assert vars(sched).keys() == attributes.keys()
        assert all(vars(sched)[name] is value for name, value in attributes.items())

    def test_streams_in_turn_build_each_chunk_once(self, monkeypatch):
        # Each state keeps its own chunk, so two streams stepped in turn on
        # one schedule do not evict each other's.
        sched = make_power_schedule(1.05, 0.1)
        starts, steps = (2 * 10**7, 3 * 10**7), 3 * CHUNK
        want = [bits(make_power_schedule(1.05, 0.1).slice(start, start + steps)) for start in starts]
        builds = counting_builds(monkeypatch)
        states, alphas = [LondState(next_index=start) for start in starts], ([], [])
        for _ in range(steps):
            for state, got in zip(states, alphas):
                got.append(lond_step(state, sched, 0.5).alpha)
        assert [bits(got) for got in alphas] == want  # no discovery, so alpha_i = lambda_i
        # One build per 4096 steps each, starting where each stream enters.
        assert sorted(builds) == [start + k * CHUNK for start in starts for k in range(3)]

    def test_sequential_far_read_builds_each_chunk_once(self, monkeypatch):
        sched = make_power_schedule(1.05, 0.1)
        lo = CHUNK_PAST_1E7 * CHUNK + 1
        want = bits(make_power_schedule(1.05, 0.1).slice(lo, lo + 3 * CHUNK))
        builds = counting_builds(monkeypatch)
        state = LordState(next_index=lo)
        # p = 1 accepts at every level, so lord reads lambda_i at each index.
        decisions = [lord_step(state, sched, 1.0) for _ in range(3 * CHUNK)]
        assert builds == [lo, lo + CHUNK, lo + 2 * CHUNK]
        assert bits([d.alpha for d in decisions]) == want
        # The state holds the chunk it read last; the schedule keeps nothing.
        assert bits(state._cursor[3]) == want[2 * CHUNK :]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_threads_point_read_far_values(self, kind):
        # Readers of different far chunks (more of them than cores) point-read
        # one schedule at once; each must read its own chunk's values.
        sched = MAKERS[kind]()
        starts = tuple(CHUNK_PAST_1E7 * CHUNK + 1 + k * 1000 * CHUNK for k in range(4))
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


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestStore:
    """What bulk reads return; the schedule itself stores nothing."""

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_returned_arrays_are_read_only(self, kind):
        sched = MAKERS[kind]()
        far = sched.slice(3 * CHUNK - 5, 3 * CHUNK + 5)  # across a seam
        views = [far, sched.slice(2 * 10**7, 2 * 10**7 + 3), sched.prefix(10),
                 sched.slice(1, CHUNK + 2), sched.slice(7, 20), sched.slice(CHUNK - 2, 2 * CHUNK),
                 sched.slice(2 * CHUNK - 3, 4 * CHUNK)]
        for values in views:
            assert values.size and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0
            with pytest.raises(ValueError):
                values += 1.0
        assert sched.slice(5, 5).size == sched.slice(10**7, 10**7).size == sched.prefix(0).size == 0

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_a_schedule_is_never_written(self, kind, monkeypatch):
        sched = MAKERS[kind]()
        with pytest.raises(FrozenInstanceError):
            sched.normalizer = 1.0
        with pytest.raises(FrozenInstanceError):
            sched.cache = None
        attributes = dict(vars(sched))
        sched.lambda_at(5)
        sched.lambda_at(2 * 10**7)
        sched.slice(CHUNK - 3, 3 * CHUNK)
        sched.prefix(10**5)
        lord_step(LordState(), sched, 0.01)
        lond_step(LondState(next_index=2 * 10**7), sched, 0.5)
        p = np.linspace(0.0, 1.0, 3001) ** 4
        lord_levels(p, sched)
        lond_levels(p, sched)
        # run_grid builds its schedules through make_schedule: hand it this one,
        # equal to the one it would build.
        config = MixtureConfig(n=500, beta=0.4, r=0.5, reps=2, schedule=kind)
        assert config.make_schedule() == sched
        cells = []
        monkeypatch.setattr(MixtureConfig, "make_schedule", lambda cell: cells.append(cell) or sched)
        run_grid(config, r_values=[0.5, 1.1], n_values=[400, 500])
        assert [cell.n for cell in cells] == [400, 500]
        assert vars(sched).keys() == attributes.keys()
        assert all(vars(sched)[name] is value for name, value in attributes.items())
        assert sched == MAKERS[kind]() and hash(sched) == hash(MAKERS[kind]())

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_mixed_access_orders_agree_bitwise(self, kind):
        make = MAKERS[kind]
        points = (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 10 * CHUNK + 5,
                  CHUNK_PAST_1E7 * CHUNK + 1, 2 * 10**7)
        want = {i: bits([make().lambda_at(i)]) for i in points}
        head = bits(make().prefix(12 * CHUNK))
        for order in range(3):
            sched = make()
            if order == 1:
                sched.prefix(CHUNK + 1)  # a bulk read before any point read
            for i in points:
                assert bits([sched.lambda_at(i)]) == want[i], (order, i)
            if order == 2:
                sched.slice(5 * CHUNK - 3, 9 * CHUNK)  # a far slice first
            assert bits(sched.prefix(3 * CHUNK + 1)) == head[: 3 * CHUNK + 1]
            for i in points:  # after a bulk read, inside its range and past it
                assert bits([sched.lambda_at(i)]) == want[i], (order, i)
            across = sched.slice(2 * CHUNK + 9, 12 * CHUNK + 1)  # overlapping the prefix read last
            assert bits(across) == head[2 * CHUNK + 8 :]
            assert bits(sched.prefix(12 * CHUNK)) == head
            assert bits(sched.slice(CHUNK, 3 * CHUNK)) == head[CHUNK - 1 : 3 * CHUNK - 1]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_threads_reading_ranges(self, kind):
        # Threads reading prefixes and slices of one schedule at once each
        # read the right values.
        sched = MAKERS[kind]()
        head = MAKERS[kind]().prefix(61 * CHUNK).view(np.uint64)
        sizes = (1, CHUNK + 1, 7 * CHUNK, 20 * CHUNK + 3, 60 * CHUNK)
        barrier = threading.Barrier(4)
        wrong = []

        def read(k):
            barrier.wait()
            for _ in range(30):
                for n in sizes[k % 2 :: 1 + k % 2]:
                    if not np.array_equal(sched.prefix(n).view(np.uint64), head[:n]):
                        wrong.append((k, n))
                    if sched.slice(n, n + 3).view(np.uint64).tolist() != head[n - 1 : n + 2].tolist():
                        wrong.append((k, n, "slice"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestCursor:
    """The chunk cursor each engine state keeps for its point reads."""

    @pytest.mark.parametrize("start", [1, CHUNK - 4, CHUNK_PAST_1E7 * CHUNK + 1])
    def test_one_state_on_two_schedules_reads_each(self, start):
        # The cursor's hit is keyed on the schedule too, not only on the chunk.
        schedules_ = (make_power_schedule(1.05, 0.1), make_adaptive_schedule(0.1))
        lord, lond = LordState(next_index=start), LondState(next_index=start)
        for k in range(10):
            sched = schedules_[k % 2]
            i = lord.next_index
            assert lord_step(lord, sched, 1.0).alpha == sched.lambda_at(i)
            assert lond_step(lond, sched, 1.0).alpha == sched.lambda_at(i)

    @pytest.mark.parametrize("cls, fields, bad", [
        (LordState, {"next_index": 5, "last_discovery": 5}, "0"),
        (LordState, {"next_index": 5, "last_discovery": 9}, "-4"),
        (LondState, {"next_index": 0}, "0"),
        (LondState, {"next_index": 2.5}, "2.5"),
    ])
    @pytest.mark.parametrize("stepped", [False, True])
    def test_steps_name_a_bad_index(self, cls, fields, bad, stepped):
        sched = make_power_schedule(1.05, 0.1)
        step = lord_step if cls is LordState else lond_step
        state = cls(**fields)
        if stepped:  # the cursor then holds lambda_1 .. lambda_4096, which a bad index must miss
            state = cls()
            step(state, sched, 0.5)
            vars(state).update(fields)
        with pytest.raises(ValueError, match=rf"^index must be an integer >= 1, got {bad}$"):
            step(state, sched, 0.5)

    @pytest.mark.parametrize("start", [3, 2 * 10**7])
    def test_stepped_states_copy_and_pickle(self, start):
        sched = make_adaptive_schedule(0.1)
        lord, lond = LordState(next_index=start), LondState(next_index=start)
        for p in (0.5, 0.0, 0.5):
            lord_step(lord, sched, p)
            lond_step(lond, sched, p)
        # Fields, equality, repr and asdict are those of plain dataclasses.
        assert repr(lord) == f"LordState(next_index={start + 3}, last_discovery={start + 1})"
        assert repr(lond) == f"LondState(next_index={start + 3}, discoveries=1)"
        assert asdict(lord) == {"next_index": start + 3, "last_discovery": start + 1}
        assert astuple(lond) == (start + 3, 1)
        for step, state in ((lord_step, lord), (lond_step, lond)):
            twins = [pickle.loads(pickle.dumps(state)), copy.deepcopy(state), copy.copy(state)]
            for twin in twins:
                assert twin == state and repr(twin) == repr(state) and asdict(twin) == asdict(state)
                assert "_cursor" not in vars(twin)  # the chunk view stays behind
            for p in (0.0, 0.5, 0.0):  # and the twins decide as the original
                want = step(state, sched, p)
                assert [step(twin, sched, p) for twin in twins] == [want] * 3
            assert twins == [state] * 3


class TestIndexChecks:
    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), 2.5, 0, -3, 0.0, "3", None])
    def test_lambda_at_names_the_index(self, bad):
        sched = make_power_schedule(2.0, 0.1)
        with pytest.raises(ValueError, match=r"^index must be an integer >= 1, got "):
            sched.lambda_at(bad)

    @pytest.mark.parametrize(
        "lo, hi, name",
        [(1.5, 4, "lo"), (float("nan"), 4, "lo"), (float("inf"), 4, "lo"), (0, 4, "lo"), ("1", 4, "lo"),
         (1, 4.5, "hi"), (1, float("nan"), "hi"), (1, float("inf"), "hi"), (5, 4, "hi"), (2, None, "hi")],
    )
    def test_slice_names_the_bound(self, lo, hi, name):
        sched = make_adaptive_schedule(0.1)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            sched.slice(lo, hi)

    def test_prefix_names_its_bound(self):
        with pytest.raises(ValueError, match=r"^hi must be an integer >= 1, got -1$"):
            make_power_schedule(1.05, 0.1).prefix(-2)

    def test_whole_numbers_of_any_type_are_indices(self):
        sched = make_power_schedule(1.05, 0.1)
        assert sched.lambda_at(3.0) == sched.lambda_at(np.int64(3)) == sched.lambda_at(3)
        assert [type(sched.lambda_at(i)) for i in (3, np.int64(3), 3.0)] == [float] * 3
        assert bits(sched.slice(np.int64(2), 6.0)) == bits(sched.prefix(5)[1:])
        for start in (np.int64(7), 7.0):  # and so are the fields of a state
            state, plain = LondState(next_index=start), LondState(next_index=7)
            for _ in range(3):
                assert lond_step(state, sched, 0.5).alpha == lond_step(plain, sched, 0.5).alpha
