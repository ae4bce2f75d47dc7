"""Engine tests: hand traces, fold equivalence, brute-force baselines."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfdr import cli, engines, simulation
from streamfdr import (
    Decision,
    GGKernel,
    LondState,
    LordState,
    bh_mask,
    bh_reject,
    lond_levels,
    lond_step,
    lord_levels,
    lord_step,
    make_adaptive_schedule,
    make_power_schedule,
    pvalue,
    run_stream,
)
from streamfdr.simulation import MixtureConfig, make_mixture

P_VALUE_GRID = [0.001, 0.02, 0.05, 0.2, 0.9]


class GeometricSchedule:
    """lambda_i = 0.05 * 2**(1-i): sums to q = 0.1, exact in floats."""

    q = 0.1

    def lambda_at(self, i):
        if i < 1:
            raise ValueError(f"index must be a positive integer, got {i}")
        return 0.05 * 2.0 ** (1 - i)

    def slice(self, lo, hi):
        return 0.05 * 2.0 ** (1.0 - np.arange(lo, hi, dtype=np.float64))

    def prefix(self, n):
        return self.slice(1, n + 1)


class ConstantSchedule:
    """lambda_i = c for every i; only for exercising the clamp."""

    def __init__(self, c):
        self.q = c
        self.c = c

    def lambda_at(self, i):
        return self.c

    def slice(self, lo, hi):
        return np.full(hi - lo, self.c)


def fold_lord(pvalues, schedule):
    state = LordState()
    return [lord_step(state, schedule, p) for p in pvalues]


def fold_lond(pvalues, schedule):
    state = LondState()
    return [lond_step(state, schedule, p) for p in pvalues]


def brute_force_bh(pvalues, q):
    """Evaluate every candidate k directly from the step-up definition."""
    n = len(pvalues)
    sorted_p = sorted(pvalues)
    k = 0
    for j in range(1, n + 1):
        if sorted_p[j - 1] <= q * j / n:
            k = j
    if k == 0:
        return set()
    cutoff = sorted_p[k - 1]
    return {i + 1 for i, p in enumerate(pvalues) if p <= cutoff}


@st.composite
def bh_inputs(draw):
    """(P-values, q) drawing often from the step-up thresholds q * j / n and q itself."""
    q = draw(st.sampled_from([0.05, 0.1, 0.25, 1 / 3]))
    n = draw(st.integers(min_value=0, max_value=20))
    edges = [q * j / n for j in range(1, n + 1)] + [q, math.nextafter(q, 1.0), 0.0, 1.0]
    value = st.one_of(st.sampled_from(edges), st.floats(min_value=0.0, max_value=1.0))
    return draw(st.lists(value, min_size=n, max_size=n)), q


class TestPValueErrors:
    @pytest.mark.parametrize(
        "pvals, where",
        [
            ([0.1, 0.2, 0.3, math.nan, 0.4], r"position 3 \(0-based\) holds nan"),
            ([-0.25, 0.2], r"position 0 \(0-based\) holds -0\.25"),
            ([0.5, 0.5, 0.5, 0.5, 1.5], r"position 4 \(0-based\) holds 1\.5"),
            ([0.5, 2.0, math.nan], r"position 1 \(0-based\) holds 2\.0"),  # first one named
        ],
    )
    def test_first_offending_position_named(self, pvals, where):
        sched = make_power_schedule(1.05, 0.1)
        for call in (
            lambda: lord_levels(pvals, sched),
            lambda: lond_levels(pvals, sched),
            lambda: run_stream("lord", sched, pvals),
            lambda: bh_mask(pvals, 0.1),
        ):
            with pytest.raises(ValueError, match=where):
                call()

    @pytest.mark.parametrize(
        "pvals, shape",
        [(np.array([[0.1, 0.2]]), r"\(1, 2\)"), (np.array(0.001), r"\(\)"), (0.001, r"\(\)")],
    )
    def test_non_1d_input_names_its_shape(self, pvals, shape):
        sched = make_power_schedule(1.05, 0.1)
        for call in (
            lambda: lord_levels(pvals, sched),
            lambda: lond_levels(pvals, sched),
            lambda: run_stream("lord", sched, pvals),
            lambda: bh_mask(pvals, 0.1),
        ):
            with pytest.raises(ValueError, match=rf"1-D sequence, got shape {shape}"):
                call()


class TestDecision:
    """The per-step record is a named tuple: fixed fields, repr and immutability."""

    def test_record_contract(self):
        d = lord_step(LordState(), GeometricSchedule(), 0.01)
        assert type(d) is Decision
        assert repr(d) == "Decision(index=1, alpha=0.05, p=0.01, rejected=True)"
        assert Decision._fields == ("index", "alpha", "p", "rejected")
        assert d == (1, 0.05, 0.01, True)
        with pytest.raises(AttributeError):
            d.alpha = 0.5

    def test_run_stream_items_are_decisions(self):
        for engine in ("lord", "lond"):
            decisions = run_stream(engine, GeometricSchedule(), [0.01, 0.9, 0.0])
            assert [type(d) for d in decisions] == [Decision] * 3


class TestLordRule:
    def test_first_step_uses_first_budget_value(self):
        sched = GeometricSchedule()
        state = LordState()
        decision = lord_step(state, sched, 0.04)
        assert decision.index == 1
        assert decision.alpha == 0.05
        assert decision.rejected
        assert state.last_discovery == 1

    def test_hand_trace(self):
        sched = GeometricSchedule()
        decisions = fold_lord([0.01, 0.9, 0.02], sched)
        assert [(d.alpha, d.rejected) for d in decisions] == [
            (0.05, True),   # clock at 1 after the discovery
            (0.05, False),  # one step since discovery -> lambda_1
            (0.025, True),  # two steps since discovery -> lambda_2
        ]

    def test_all_accepts_walk_down_the_schedule(self):
        sched = GeometricSchedule()
        decisions = fold_lord([0.9] * 6 + [0.5], sched)
        assert [d.alpha for d in decisions[:6]] == [sched.lambda_at(i) for i in range(1, 7)]
        assert decisions[6].alpha == sched.lambda_at(7)

    def test_level_resets_after_each_discovery(self):
        sched = make_power_schedule(2.0, 0.1)
        rng = np.random.default_rng(5)
        p = rng.random(400) ** 3
        decisions = run_stream("lord", sched, p)
        lam1 = sched.lambda_at(1)
        since = 0  # steps since last discovery
        for d in decisions:
            assert d.alpha == sched.lambda_at(since + 1)
            since = 0 if d.rejected else since + 1
        rejected_idx = [d.index for d in decisions if d.rejected]
        assert rejected_idx, "trace should contain discoveries"
        for j in rejected_idx:
            if j < len(decisions):
                assert decisions[j].alpha == lam1

    def test_rejects_on_equality(self):
        sched = GeometricSchedule()
        decision = lord_step(LordState(), sched, 0.05)
        assert decision.rejected

    def test_domain_errors(self):
        sched = GeometricSchedule()
        for bad in (-0.1, 1.0000001, float("nan")):
            with pytest.raises(ValueError):
                lord_step(LordState(), sched, bad)


class TestLondRule:
    def test_first_step(self):
        decision = lond_step(LondState(), GeometricSchedule(), 0.04)
        assert decision.alpha == 0.05
        assert decision.rejected

    def test_hand_trace(self):
        decisions = fold_lond([0.01, 0.9, 0.02], GeometricSchedule())
        assert [(d.alpha, d.rejected) for d in decisions] == [
            (0.05, True),    # lambda_1 * 1
            (0.05, False),   # lambda_2 * 2
            (0.025, True),   # lambda_3 * 2
        ]

    def test_all_accept_prefix_keeps_base_budget(self):
        sched = GeometricSchedule()
        decisions = fold_lond([0.9] * 5 + [0.0], sched)
        for i, d in enumerate(decisions, start=1):
            assert d.alpha == sched.lambda_at(i)

    def test_level_is_integer_multiple_of_budget(self):
        sched = make_power_schedule(2.0, 0.1)
        rng = np.random.default_rng(11)
        p = rng.random(400) ** 3
        decisions = run_stream("lond", sched, p)
        d_count = 0
        for d in decisions:
            assert d.alpha == min(1.0, sched.lambda_at(d.index) * (d_count + 1))
            if d.rejected:
                d_count += 1

    def test_clamp_at_one(self):
        sched = ConstantSchedule(0.4)
        decisions = fold_lond([0.0] * 4, sched)
        assert [d.alpha for d in decisions] == [0.4, 0.8, 1.0, 1.0]
        assert all(d.rejected for d in decisions)


class TestRunStream:
    def test_empty_stream(self):
        assert run_stream("lord", GeometricSchedule(), []) == []
        assert run_stream("lond", GeometricSchedule(), []) == []

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            run_stream("bh", GeometricSchedule(), [0.5])

    def test_equals_fold_of_steps(self):
        sched = make_power_schedule(1.05, 0.1)
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(0, 300))
            p = rng.random(n) ** 2
            for engine, fold in (("lord", fold_lord), ("lond", fold_lond)):
                fast = run_stream(engine, sched, p)
                slow = fold(p, sched)
                assert fast == slow

    def test_online_purity_prefix_property(self):
        # Decisions at index i never depend on later P-values.
        sched = make_power_schedule(1.05, 0.1)
        rng = np.random.default_rng(33)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, n))
            p = rng.random(n) ** 2
            for engine in ("lord", "lond"):
                full = run_stream(engine, sched, p)
                prefix = run_stream(engine, sched, p[:m])
                assert full[:m] == prefix

    def test_block_boundaries_are_invisible(self):
        # Streams longer than a schedule chunk, with discoveries near chunk seams.
        sched = make_power_schedule(1.05, 0.1)
        rng = np.random.default_rng(55)
        p = rng.random(10000)
        p[[0, 4095, 4096, 4097, 8191, 9999]] = 0.0
        for engine, fold in (("lord", fold_lord), ("lond", fold_lond)):
            assert run_stream(engine, sched, p) == fold(p, sched)

    def test_levels_match_decisions(self):
        sched = make_power_schedule(2.0, 0.1)
        p = np.random.default_rng(8).random(500) ** 2
        alpha, rejected = lord_levels(p, sched)
        decisions = run_stream("lord", sched, p)
        assert np.array_equal(alpha, [d.alpha for d in decisions])
        assert np.array_equal(rejected, [d.rejected for d in decisions])

    def test_array_domain_errors(self):
        sched = GeometricSchedule()
        with pytest.raises(ValueError):
            run_stream("lord", sched, [0.2, 1.5])
        with pytest.raises(ValueError):
            run_stream("lond", sched, [0.2, float("nan")])


SCHEDULES = {
    "power": make_power_schedule(1.05, 0.1),
    "steep": make_power_schedule(2.0, 0.1),
    "adaptive": make_adaptive_schedule(0.1),
    "geometric": GeometricSchedule(),  # underflows to 0.0 past index ~1075
    "constant": ConstantSchedule(0.4),  # lond clamps at 1; no ``prefix``
}

FOLDS = (("lord", lord_levels, fold_lord), ("lond", lond_levels, fold_lond))

# Short lengths, each +-1 around a few powers of two and their sums.
SEAM_LENGTHS = [
    0, 1, 2, 7, 8, 9, 63, 64, 65, 71, 72, 73, 191, 192, 193, 447, 448, 449, 583, 584, 585,
]


def assert_core_matches_fold(p, sched):
    p = np.asarray(p, dtype=np.float64)
    for engine, levels, fold in FOLDS:
        decisions = fold(p, sched)
        alpha, rejected = levels(p, sched)
        assert alpha.tolist() == [d.alpha for d in decisions], engine
        assert rejected.tolist() == [d.rejected for d in decisions], engine


def chain(rule, sched, n, fill=None, tie=True):
    """A discovery chain of ``rule``: each link's P-value is the level the rule gives it.

    ``fill(i, n)`` gives the P-value at the 1-based index i, or None for a
    link there; without ``fill`` every index is a link. A link rejects and
    so sets the next link's level; any other P-value moves the state as
    the rule does, and the chain resumes at the level it leaves. Links
    are exact ties, or one ulp below their level (at least 0) without
    ``tie``.
    """
    p, t, d = [], 0, 0
    for i in range(1, n + 1):
        level = sched.lambda_at(i - t) if rule == "lord" else min(1.0, sched.lambda_at(i) * (d + 1))
        x = fill(i, n) if fill else None
        if x is None:
            x = level if tie else max(0.0, math.nextafter(level, 0.0))
        if x <= level:
            t, d = i, d + 1
        p.append(x)
    return p


# Dense P-values (about 40% at or below lambda_1 of the power schedule) for
# the blocks between chain blocks.
DENSE = np.random.default_rng(5).random(5001) ** 6

CHAIN_FAMILIES = {
    "pure": {"tie": False},
    "after 400 zeros": {"fill": lambda i, n: 0.0 if i <= 400 else None, "tie": False},
    "broken by a 1 every 50": {"fill": lambda i, n: 1.0 if i % 50 == 0 else None, "tie": False},
    "exact ties": {},
    "then zeros": {"fill": lambda i, n: 0.0 if i > n // 2 else None, "tie": False},
    "after zeros to the middle": {"fill": lambda i, n: 0.0 if i <= n // 2 else None, "tie": False},
    "between dense blocks": {
        "fill": lambda i, n: float(DENSE[i % DENSE.size]) if (i - 1) // 40 % 2 == 0 else None,
        "tie": False,
    },
    # The rounds settle the zeros and the first link, then stop; the walk
    # starts at the next link, an exact tie with the level its exact state
    # gives it.
    "a tie at the first open link": {"fill": lambda i, n: 0.0 if i <= n // 3 else None},
}


def level_token(sched, token):
    """``k * lambda_j`` (at most 1) for ``(j, k)``; one ulp towards ``direction`` for ``(j, k, direction)``."""
    x = min(1.0, sched.lambda_at(token[0]) * token[1])
    if len(token) == 3:
        x = min(1.0, max(0.0, math.nextafter(x, token[2] * math.inf)))
    return x


@st.composite
def adversarial_streams(draw, names=tuple(sorted(SCHEDULES))):
    """A schedule and a stream of exact ties, near ties, 0s, 1s, chain links and noise."""
    sched = SCHEDULES[draw(st.sampled_from(names))]
    n = draw(st.sampled_from([n for n in SEAM_LENGTHS if n <= 300]) | st.integers(0, 300))
    token = st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.just((1, 1)),  # lambda_1: each lord rejection enables the next
        st.tuples(st.integers(1, n + 1), st.integers(1, 4)),  # tie with k * lambda_j
        st.tuples(st.integers(1, n + 1), st.integers(1, 4), st.sampled_from([-1, 1])),  # one ulp off
        st.floats(0.0, 1.0),
    )
    tokens = draw(st.lists(token, min_size=n, max_size=n))
    p = [level_token(sched, t) if isinstance(t, tuple) else t for t in tokens]
    return sched, p


class TestSharedCore:
    @given(adversarial_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_fold_on_adversarial_streams(self, case):
        sched, p = case
        assert_core_matches_fold(p, sched)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    def test_constant_streams(self, name, n):
        for value in (0.0, 1.0):
            assert_core_matches_fold(np.full(n, value), SCHEDULES[name])

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_discovery_chain(self, name):
        # p_i = lambda_1: under lord every rejection enables the next, so
        # every position is a candidate, the rounds stop after the first
        # and the walk visits the rest.
        sched = SCHEDULES[name]
        assert_core_matches_fold(np.full(300, sched.lambda_at(1)), sched)

    @pytest.mark.parametrize("family", sorted(CHAIN_FAMILIES))
    @pytest.mark.parametrize("rule", ["lord", "lond"])
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("n", [0, 1, 300, 5000])
    def test_chain_families(self, n, name, rule, family):
        sched = SCHEDULES[name]
        assert_core_matches_fold(chain(rule, sched, n, **CHAIN_FAMILIES[family]), sched)

    def test_geometric_underflow(self):
        sched = SCHEDULES["geometric"]
        assert sched.lambda_at(1100) == 0.0
        rng = np.random.default_rng(7)
        p = np.where(rng.random(1200) < 0.3, 0.0, rng.random(1200) ** 4)
        assert_core_matches_fold(p, sched)
        assert_core_matches_fold(np.zeros(1200), sched)

    def test_dense_stream_across_seams(self):
        # Dense, then a long stretch of acceptances past a schedule chunk
        # seam, which walks nothing.
        sched = SCHEDULES["power"]
        rng = np.random.default_rng(17)
        p = np.where(rng.random(5000) < 0.05, rng.random(5000) * 1e-4, rng.random(5000))
        p[4000:] = rng.random(1000)
        assert_core_matches_fold(p, sched)

    def test_reads_the_schedule_once(self):
        class Counting(ConstantSchedule):
            calls = 0

            def slice(self, lo, hi):
                Counting.calls += 1
                return super().slice(lo, hi)

        rng = np.random.default_rng(3)
        for p in (rng.random(3000), rng.random(3000) ** 8):
            for levels in (lord_levels, lond_levels):
                Counting.calls = 0
                levels(p, Counting(0.01))
                assert Counting.calls == 1


# The schedules whose lord and lond levels all stay below 1 (not "constant",
# whose lond levels reach the clamp), so that a P-value of 1.0 never rejects.
BELOW_ONE = tuple(name for name in sorted(SCHEDULES) if name != "constant")


def assert_subset_decides_as_full(p, forced, sched, q):
    """Each procedure on the positions not forced to 1.0 rejects what it rejects on the full vector.

    The subset is decided as a simulation cell decides it, with the full n.
    """
    forced = np.asarray(forced, dtype=bool)
    p = np.where(forced, 1.0, np.asarray(p, dtype=np.float64))
    keep = np.flatnonzero(~forced)
    lam = sched.slice(1, p.size + 1)
    full = {"lord": lord_levels(p, sched)[1], "lond": lond_levels(p, sched)[1], "bh": bh_mask(p, q)}
    for proc, rejected in full.items():
        hits = simulation._decided(proc, p.size, keep, p[keep], q, lam)
        np.testing.assert_array_equal(hits, np.flatnonzero(rejected), err_msg=proc)


@st.composite
def forced_streams(draw):
    """A random or adversarial stream, positions to force to 1.0 and a step-up level q < 1/2."""
    if draw(st.booleans()):
        sched, p = draw(adversarial_streams(BELOW_ONE))
        p = np.array(p, dtype=np.float64)
    else:
        sched = SCHEDULES[draw(st.sampled_from(BELOW_ONE))]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = rng.random(draw(st.integers(0, 3000))) ** draw(st.integers(1, 8))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    forced = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(p.size) < share
    q = draw(st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 0.45]) | st.floats(1e-6, 0.499))
    return p, forced, sched, q


def subset_cases():
    """Named ``(p, forced, schedule, q)`` cases for the subset core."""
    rng = np.random.default_rng(23)
    cases = {}
    for name in BELOW_ONE:
        sched = SCHEDULES[name]
        for rule in ("lord", "lond"):
            for family, options in CHAIN_FAMILIES.items():
                p = chain(rule, sched, 600, **options)
                cases[f"{rule} chain {family}, {name}, every 5th forced"] = (
                    p, np.arange(600) % 5 == 4, sched, 0.1)
                cases[f"{rule} chain {family}, {name}, a third forced"] = (
                    p, rng.random(600) < 1 / 3, sched, 0.1)
        for k in (1, 2):  # one ulp above k * lambda_i at every i: nothing rejects
            above = [math.nextafter(sched.lambda_at(i) * k, 1.0) for i in range(1, 601)]
            cases[f"one ulp above {k} lambda_i, {name}"] = (above, rng.random(600) < 0.2, sched, 0.1)
        cases[f"all zero, {name}, half forced"] = (np.zeros(1000), rng.random(1000) < 0.5, sched, 0.1)
        cases[f"n = 0, {name}"] = ([], [], sched, 0.1)
        for value in (0.0, 0.5, 1.0):
            cases[f"n = 1 of {value}, {name}, kept"] = ([value], [False], sched, 0.1)
            cases[f"n = 1 of {value}, {name}, forced"] = ([value], [True], sched, 0.1)
    # 0.05 * 6 / 6 > 0.05, and a P-value between them passes at the last rank.
    top = [0.05 / 6] * 5 + [0.05 * 6 / 6]
    cases["bh top rank above q"] = (top, [False] * 6, SCHEDULES["power"], 0.05)
    cases["bh top rank above q, first forced"] = (top, [True] + [False] * 5, SCHEDULES["power"], 0.05)
    return cases


SUBSET_CASES = subset_cases()


class TestSubsetCore:
    """Deciding on the positions a cell keeps gives the full vector's rejections.

    Positions outside the subset hold 1.0, and every level is below 1.
    """

    @given(forced_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_vector(self, case):
        assert_subset_decides_as_full(*case)

    @pytest.mark.parametrize("name", sorted(SUBSET_CASES))
    def test_named_cases(self, name):
        assert_subset_decides_as_full(*SUBSET_CASES[name])


def core_counts(rule, p, sched=SCHEDULES["power"]):
    """The core's counters for one rule on the P-values ``p``, and its rejections."""
    stats = {}
    p = np.asarray(p, dtype=np.float64)
    hits = engines._rejected(engines._RULES[rule], sched.slice(1, p.size + 1), p, stats=stats)
    assert stats[rule]["rejections"] == hits.size
    return stats[rule], hits


# The chains whose rounds must stop at once: (the rule they chain, chain options).
COST_CHAINS = {
    "lord chain": ("lord", CHAIN_FAMILIES["pure"]),
    "lond chain": ("lond", CHAIN_FAMILIES["pure"]),
    "400 zeros, then the lord chain": ("lord", CHAIN_FAMILIES["after 400 zeros"]),
}


class TestRounds:
    """The core's counters, not its time, pin its cost: rounds, and positions walked."""

    @pytest.mark.parametrize("value", [0.0, 1.0])
    @pytest.mark.parametrize("rule", ["lord", "lond"])
    def test_constant_streams_walk_nothing(self, rule, value):
        # Every 0 is settled in the first round; no 1 is a candidate.
        n = 10**5
        counts, _ = core_counts(rule, np.full(n, value))
        want = n if value == 0.0 else 0
        assert counts == {"candidates": want, "rounds": int(value == 0.0), "walked": 0, "rejections": want}

    @pytest.mark.parametrize("rule", ["lord", "lond"])
    def test_acceptances_at_lambda_1_walk_nothing(self, rule):
        # 1.0, then lambda_1 repeated: every lord level past the first is
        # below lambda_1, so one round settles nothing and ends the rounds.
        n, sched = 10**5, SCHEDULES["power"]
        counts, hits = core_counts(rule, [1.0] + [sched.lambda_at(1)] * (n - 1))
        assert hits.size == 0 and counts["walked"] == 0 and counts["rounds"] <= 1

    @pytest.mark.parametrize("rule", ["lord", "lond"])
    def test_dense_mixture_reaches_its_fixpoint(self, rule):
        config = MixtureConfig(n=10**5, beta=0.2, r=0.6, seed=0, reps=1)
        p = pvalue(GGKernel(2.0), make_mixture(config, 0).statistics)
        counts, hits = core_counts(rule, p)
        assert hits.size > 3000
        assert counts["walked"] == 0 and counts["rounds"] <= 12

    @pytest.mark.parametrize("rule", ["lord", "lond"])
    def test_near_dense_mixture_reaches_its_fixpoint(self, rule):
        # The first round settles only the smallest P-values, a few hundred
        # of the ~9e4 candidates, spread along the stream; each lets its
        # neighbours settle in the next round, so the rounds grow and go on.
        config = MixtureConfig(n=10**5, beta=0.01, r=0.8, gamma=1.0, seed=0, reps=1)
        p = pvalue(GGKernel(1.0), make_mixture(config, 0).statistics)
        counts, hits = core_counts(rule, p)
        assert hits.size > 50000 and counts["walked"] == 0

    @pytest.mark.parametrize("rule", ["lord", "lond"])
    @pytest.mark.parametrize("family", sorted(COST_CHAINS))
    def test_chains_stop_after_one_round(self, family, rule):
        # A chain settles one link per round: the rounds stop at once, and
        # the walk takes the rest from the first open link.
        n = 10**5
        kind, options = COST_CHAINS[family]
        counts, hits = core_counts(rule, chain(kind, SCHEDULES["power"], n, **options))
        assert counts["rounds"] <= 1
        if kind == rule:
            assert hits.size == n and counts["walked"] >= n - 401


def rederive_far(engine, p, start, far, head):
    """Levels and rejections of a stream resumed at index ``start``, from the rule definitions.

    ``far[k]`` is lambda_{start+k} and ``head[k]`` is lambda_{k+1}.
    """
    alphas, rejected = [], []
    t = d = 0
    for k, x in enumerate(p):
        if engine == "lord":
            a = far[k] if t == 0 else head[start + k - t - 1]
        else:
            a = min(1.0, far[k] * (d + 1))
        alphas.append(a)
        rejected.append(x <= a)
        if x <= a:
            t, d = start + k, d + 1
    return alphas, rejected


class TestFarIndices:
    """Steps resumed deep in a stream, at index 1e6 and past index 1e7."""

    @pytest.mark.parametrize("start", [10**6, 2 * 10**7])
    @pytest.mark.parametrize("kind", ["power", "adaptive"])
    def test_step_fold_matches_rederivation(self, start, kind):
        def make():
            return make_power_schedule(1.05, 0.1) if kind == "power" else make_adaptive_schedule(0.1)

        n, calm = 5000, 1500  # n crosses chunk seams from either start
        # Each far value from a schedule that has read nothing else.
        far = np.array([make().lambda_at(i) for i in range(start, start + n)])
        head = make().prefix(n)
        rng = np.random.default_rng(start % 997)
        p = rng.random(n)
        # The calm stretch only accepts, some values one ulp above the level,
        # so lord reads lambda_i at the far indices throughout; an exact tie
        # then makes the first discovery.
        above = np.flatnonzero(rng.random(calm) < 0.3)
        p[above] = np.nextafter(far[above], 1.0)
        p[calm] = far[calm]
        rest = np.arange(calm + 1, n)
        pick = rng.integers(0, 6, rest.size)
        p[rest[pick == 0]] = 0.0
        p[rest[pick == 1]] = 1.0
        ties = rest[pick == 2]  # with lond levels at small discovery counts
        p[ties] = far[ties] * rng.integers(1, 4, ties.size)
        p[rest[pick == 3]] = head[rng.integers(0, 40, (pick == 3).sum())]  # with lord levels
        for engine, step, state in (
            ("lord", lord_step, LordState(next_index=start)),
            ("lond", lond_step, LondState(next_index=start)),
        ):
            sched = make()
            decisions = [step(state, sched, x) for x in p]
            want_alpha, want_rejected = rederive_far(engine, p, start, far, head)
            assert [d.index for d in decisions] == list(range(start, start + n))
            assert [d.alpha for d in decisions] == want_alpha, engine
            assert [d.rejected for d in decisions] == want_rejected, engine
            assert not any(want_rejected[:calm]) and want_rejected[calm], engine


STEPS = ((LordState, lord_step), (LondState, lond_step))

# Block lengths around the stream command's crossover from the steps to
# the core, and about one 64 KB read of the benchmark's stream file.
BLOCK_LENGTHS = [1, 2, cli._BLOCK_LINES - 1, cli._BLOCK_LINES, cli._BLOCK_LINES + 1, 3000]


def carried(state_type, start, state):
    """A stream state before index ``start`` with rule state ``state`` (last discovery or count)."""
    field = "last_discovery" if state_type is LordState else "discoveries"
    return state_type(next_index=start, **{field: state})


def assert_blocks_match_fold(p, sched, seams, start=1, state=0):
    """Both rules' blocks, cut at ``seams``, give the bits of the step fold.

    Each block is decided from the state that the blocks before it
    carried, and the state after the last block equals the fold's.
    """
    p = np.asarray(p, dtype=np.float64)
    for state_type, step in STEPS:
        folded, blocked = carried(state_type, start, state), carried(state_type, start, state)
        decisions = [step(folded, sched, x) for x in p]
        alpha, rejected = [], []
        for block in np.split(p, seams):
            a, r = blocked._decide(sched, block)
            alpha += a.tolist()
            rejected += r.tolist()
        assert alpha == [d.alpha for d in decisions], state_type.__name__
        assert rejected == [d.rejected for d in decisions], state_type.__name__
        assert blocked == folded, state_type.__name__


@functools.lru_cache(maxsize=None)
def block_streams(name, n):
    """Named streams of n values for the block tests: chains, dense, all zero and all one."""
    sched = SCHEDULES[name]
    rng = np.random.default_rng(n)
    streams = {f"{rule} chain {family}": chain(rule, sched, n, **CHAIN_FAMILIES[family])
               for rule in ("lord", "lond") for family in ("exact ties", "between dense blocks")}
    streams["dense"] = rng.random(n) ** 6
    streams["zeros"] = np.zeros(n)
    streams["ones"] = np.ones(n)
    return streams


@st.composite
def carried_streams(draw):
    """A schedule, a stream, random seams and a carried start (index and rule state)."""
    sched, p = draw(adversarial_streams())
    seams = sorted(draw(st.lists(st.integers(0, len(p)), max_size=8)))
    start = draw(st.sampled_from([1, 2, 1000, 2 * 10**7]))
    return sched, p, seams, start, draw(st.integers(0, start - 1))


class TestCarriedState:
    """A stream's blocks decided through the core from the state the blocks before them carried."""

    @given(carried_streams())
    @settings(max_examples=200, deadline=None)
    def test_random_seams_match_fold(self, case):
        sched, p, seams, start, state = case
        assert_blocks_match_fold(p, sched, seams, start, state)

    @pytest.mark.parametrize("start, state", [(1, 0), (2 * 10**7, 0), (2 * 10**7, 2 * 10**7 - 40)])
    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_block_lengths_match_fold(self, name, length, start, state):
        # The chains cross every seam; a lord state 40 back reads lambda_41 on.
        n = max(300, 2 * length + 50)
        for stream in block_streams(name, n).values():
            assert_blocks_match_fold(stream, SCHEDULES[name], np.arange(length, n, length), start, state)

    @pytest.mark.parametrize("start, state", [(1, 0), (500, 0), (500, 499), (500, 200), (2 * 10**7, 7)])
    @pytest.mark.parametrize("name", BELOW_ONE)
    def test_ties_with_the_carried_level(self, name, start, state):
        # A block that opens with a tie at its carried level, and one whose
        # only rejection is a tie at its last value (for lord, the first
        # rejection is the block's last value, with nothing after it). The
        # other values are 1.0, which no level reaches.
        sched = SCHEDULES[name]
        for state_type, step in STEPS:
            for length in BLOCK_LENGTHS[1:]:
                fold = carried(state_type, start, state)
                levels = [step(fold, sched, 1.0).alpha for _ in range(length)]  # no rejection
                first, last = np.ones(length), np.ones(length)
                first[0], last[-1] = levels[0], levels[-1]
                rejected = carried(state_type, start, state)._decide(sched, first)[1]
                assert rejected[0]
                rejected = carried(state_type, start, state)._decide(sched, last)[1]
                assert rejected.tolist() == [False] * (length - 1) + [True]
                for p in (first, last):
                    assert_blocks_match_fold(p, sched, [length // 2], start, state)
                    assert_blocks_match_fold(p, sched, [], start, state)

    @pytest.mark.parametrize("start, state", [(500, 400), (2 * 10**7, 1)])
    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_lord_chain_from_the_carried_level(self, name, length, start, state):
        # The first value ties the carried level lambda_{i - t} and so starts
        # a lord chain: every later value sits one ulp under lambda_1, the
        # level each rejection leaves.
        sched, n = SCHEDULES[name], 4000
        p = np.full(n, np.nextafter(sched.lambda_at(1), 0.0))
        p[0] = sched.lambda_at(start - state)
        assert carried(LordState, start, state)._decide(sched, p)[1].all()
        assert_blocks_match_fold(p, sched, np.arange(length, n, length), start, state)

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_constant_blocks_after_a_chain(self, name):
        # All-zero and all-one blocks between chain blocks: each block starts
        # from the state the one before it left.
        sched = SCHEDULES[name]
        p = np.concatenate([chain("lord", sched, 100), np.zeros(50), chain("lond", sched, 100),
                            np.ones(50), np.zeros(1), np.ones(3000)])
        seams = np.cumsum([100, 50, 37, 63, 50, 1])
        assert_blocks_match_fold(p, sched, seams)
        assert_blocks_match_fold(p, sched, seams, 2 * 10**7, 2 * 10**7 - 1)

    def test_far_blocks_read_no_prefix_to_the_far_index(self):
        class Recording(GeometricSchedule):
            reads = []

            def slice(self, lo, hi):
                self.reads.append((lo, hi))
                return super().slice(lo, hi)

        sched, start = Recording(), 2 * 10**7
        p = np.concatenate([np.ones(100), [0.0], np.ones(100)])
        for state_type, _ in STEPS:
            Recording.reads.clear()
            carried(state_type, start, 0)._decide(sched, p)
            assert all(hi - lo <= p.size for lo, hi in Recording.reads), Recording.reads


class TestBH:
    def test_three_value_example(self):
        assert bh_reject([0.01, 0.04, 0.5], 0.1) == {1, 2}

    def test_all_large(self):
        assert bh_reject([0.9, 0.8, 0.7], 0.1) == set()

    def test_single_tiny(self):
        assert bh_reject([1e-9], 0.1) == {1}

    def test_empty_input(self):
        assert bh_reject([], 0.1) == set()

    def test_ties_at_threshold_all_included(self):
        assert bh_reject([0.02, 0.02, 0.9], 0.1) == {1, 2}
        assert bh_reject([0.05, 0.05, 0.05], 0.1) == {1, 2, 3}
        assert bh_reject([0.04, 0.04, 0.9], 0.1) == {1, 2}

    def test_exhaustive_short_vectors(self):
        # Every vector of length <= 4 over the grid, against brute force.
        from itertools import product

        for n in range(1, 5):
            for combo in product(P_VALUE_GRID, repeat=n):
                assert bh_reject(list(combo), 0.1) == brute_force_bh(list(combo), 0.1)

    @given(st.lists(st.sampled_from(P_VALUE_GRID), min_size=0, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, pvals):
        assert bh_reject(pvals, 0.1) == brute_force_bh(pvals, 0.1)

    def test_candidate_edges(self):
        # Only the candidates are sorted; the cutoff must not move at their edges.
        q = 0.1
        assert bh_reject([q], q) == {1}  # n = 1, p == q
        assert bh_reject([0.5], q) == set()  # n = 1, p > q
        assert bh_reject([q, q, q], q) == {1, 2, 3}  # p == q at the last rank
        assert bh_reject([q, 0.5, 0.7], q) == set()  # p == q, but rank 1 needs q / 3
        assert bh_reject([0.2, 0.5, 0.11], q) == set()  # all p > q
        exact = [q * 2 / 4, q * 2 / 4, 0.9, q]  # tied at the cutoff, p_(2) == q * 2 / n exactly
        assert bh_reject(exact, q) == {1, 2}
        assert bh_reject(exact, q) == brute_force_bh(exact, q)
        assert bh_mask([], q).shape == (0,)
        # In floats q * n / n can exceed q: 0.05 * 6 / 6 > 0.05, and a P-value
        # between them still passes at the last rank.
        top = 0.05 * 6 / 6
        assert top > 0.05
        assert bh_reject([0.05 / 6] * 5 + [top], 0.05) == set(range(1, 7))

    @given(bh_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_at_thresholds(self, case):
        pvals, q = case
        assert bh_reject(pvals, q) == brute_force_bh(pvals, q)

    def test_matches_brute_force_on_mixture(self):
        rng = np.random.default_rng(8)
        for scale in (1.0, 1e-3):  # few candidates, then almost all
            pvals = (rng.random(3000) * scale).tolist()
            assert bh_reject(pvals, 0.1) == brute_force_bh(pvals, 0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bh_reject([0.5, 2.0], 0.1)
        with pytest.raises(ValueError):
            bh_reject([0.5], 0.0)
        with pytest.raises(ValueError):
            bh_reject([0.5], 1.0)


class TestNullStreamControl:
    def test_mean_fdp_bounded_on_null_streams(self):
        # All-null uniforms: every discovery is false, so the mean FDP is
        # the rejection frequency, which the budget keeps below q.
        sched = make_power_schedule(1.05, 0.1)
        rng = np.random.default_rng(99)
        reps, n = 300, 2000
        for engine in ("lord", "lond"):
            fdps = np.empty(reps)
            for rep in range(reps):
                _, rejected = (
                    lord_levels(rng.random(n), sched)
                    if engine == "lord"
                    else lond_levels(rng.random(n), sched)
                )
                fdps[rep] = 1.0 if rejected.any() else 0.0
            se = fdps.std(ddof=1) / math.sqrt(reps)
            assert fdps.mean() <= 0.1 + 3 * se
