"""Distribution kernel tests: closed forms against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from streamfdr import (
    AltPValueCDF,
    GGKernel,
    alt_pvalue_cdf,
    gg_quantile,
    gg_sample,
    gg_survival,
    mixture_pvalue_cdf,
    pvalue,
)

P_GRID = [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
GAMMAS = [1.0, 1.5, 2.0, 3.0]


def quad_survival(gamma, x):
    """Quadrature oracle: integrate the density over [x, inf)."""
    c = gamma ** (1.0 - 1.0 / gamma) / (2.0 * special.gamma(1.0 / gamma))

    def density(u):
        return c * math.exp(-abs(u) ** gamma / gamma)

    if x >= 0:
        return integrate.quad(density, x, np.inf, epsabs=1e-14, epsrel=1e-12)[0]
    return 1.0 - integrate.quad(density, -np.inf, x, epsabs=1e-14, epsrel=1e-12)[0]


class TestKernelValidation:
    def test_gamma_below_one(self):
        with pytest.raises(ValueError):
            GGKernel(0.5)

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GGKernel(2.0, scale=0.0)

    def test_nan_gamma(self):
        with pytest.raises(ValueError):
            GGKernel(float("nan"))


class TestSurvival:
    def test_half_at_zero(self):
        for g in GAMMAS:
            assert gg_survival(GGKernel(g), 0.0) == 0.5

    def test_laplace_closed_form(self):
        # 0.5 * exp(-2), cross-checked against the quadrature oracle.
        got = gg_survival(GGKernel(1.0), 2.0)
        assert got == pytest.approx(0.06766764161830635, abs=1e-15)
        assert got == pytest.approx(quad_survival(1.0, 2.0), abs=1e-12)

    def test_normal_tail_against_ndtr(self):
        # scipy's ndtr is an independent implementation of the normal CDF.
        x = 1.6448536269514722
        assert gg_survival(GGKernel(2.0), x) == pytest.approx(float(special.ndtr(-x)), rel=1e-13)
        assert gg_survival(GGKernel(2.0), x) == pytest.approx(0.05, rel=1e-9)

    def test_general_gamma_against_quadrature(self):
        for g in (1.5, 3.0):
            for x in (-2.0, -0.3, 0.0, 0.7, 1.9, 4.0):
                assert gg_survival(GGKernel(g), x) == pytest.approx(
                    quad_survival(g, x), abs=1e-12
                )

    def test_scale_rescales_argument(self):
        k = GGKernel(2.0, scale=3.0)
        assert gg_survival(k, 3.0) == gg_survival(GGKernel(2.0), 1.0)

    def test_symmetry(self):
        for g in GAMMAS:
            k = GGKernel(g)
            for x in [0.0, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0]:
                assert abs(gg_survival(k, x) + gg_survival(k, -x) - 1.0) <= 1e-12

    def test_vectorized_matches_scalar(self):
        k = GGKernel(1.5)
        xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = gg_survival(k, xs)
        assert out.shape == xs.shape
        for x, v in zip(xs, out):
            assert gg_survival(k, float(x)) == v

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0])
    def test_reflection_bits_match_where_form(self, g):
        # The left half is 1 - tail with tail the survival at |x| (never
        # reflected), bit for bit, and -0.0 stays on the right half; a
        # rewrite of the reflection must keep these bits.
        k = GGKernel(g)
        x = np.random.default_rng(5).standard_normal(2000) * 3.0
        x[:4] = [0.0, -0.0, 1e-300, -1e-300]
        tail = gg_survival(k, np.abs(x))
        want = np.where(x < 0.0, 1.0 - tail, tail)
        assert np.array_equal(gg_survival(k, x).view(np.uint64), want.view(np.uint64))
        for i in range(8):
            got = gg_survival(k, float(x[i]))
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == want[i].view(np.uint64)

    def test_extreme_tails_do_not_underflow(self):
        assert gg_survival(GGKernel(2.0), 10.0) > 0.0
        assert gg_survival(GGKernel(2.0), 30.0) > 0.0
        assert gg_survival(GGKernel(1.0), 500.0) > 0.0

    def test_nonfinite_rejected(self):
        k = GGKernel(2.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                gg_survival(k, bad)
        with pytest.raises(ValueError):
            gg_survival(k, np.array([0.1, np.nan]))

    @given(st.floats(-30.0, 30.0), st.sampled_from(GAMMAS))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry_property(self, x, g):
        k = GGKernel(g)
        s = gg_survival(k, x)
        assert 0.0 <= s <= 1.0
        assert abs(s + gg_survival(k, -x) - 1.0) <= 1e-12

    def test_strictly_decreasing(self):
        # Strictness can saturate in floats where survival rounds to 1.
        for g in GAMMAS:
            xs = np.linspace(-8, 8, 81)
            vals = gg_survival(GGKernel(g), xs)
            assert np.all(np.diff(vals) <= 0)
            interior = (vals[:-1] < 1.0) & (vals[1:] > 0.0)
            assert np.all(np.diff(vals)[interior] < 0)

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0])
    def test_reflection_matches_where_form_bitwise(self, g):
        # Against the two-array form: 0.5 * tail, reflected by np.where.
        def where_form(x):
            az = np.abs(x)
            if g == 2.0:
                tail = 0.5 * special.erfc(az / math.sqrt(2.0))
            elif g == 1.0:
                tail = 0.5 * np.exp(-az)
            else:
                tail = 0.5 * special.gammaincc(1.0 / g, az**g / g)
            return np.where(x < 0.0, 1.0 - tail, tail).view(np.uint64)

        edges = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 9.0, -9.0, 26.5, -26.5, 38.0, -38.0]
        x = np.concatenate([edges, np.random.default_rng(9).uniform(-38.0, 38.0, 500)])
        got = np.asarray(gg_survival(GGKernel(g), x)).view(np.uint64)
        assert np.array_equal(got, where_form(x))
        for v, want in zip(x.tolist(), got.tolist()):  # a scalar keeps its array bits
            one = gg_survival(GGKernel(g), v)
            assert type(one) is float
            assert np.float64(one).view(np.uint64) == want, v


class TestScalarBits:
    """A scalar call gives, as a float, the bits of the same value inside an array."""

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0, 3.0])
    def test_scalar_calls_match_one_array_call(self, g):
        rng = np.random.default_rng(12)
        k = GGKernel(g)
        x = np.concatenate([[0.0, -0.0], rng.standard_normal(510) * 3.0])
        ps = np.concatenate([[0.5, 1e-300, 1e-12, 1 - 1e-12], rng.uniform(1e-9, 1.0, 508)])
        for fn, values in ((gg_survival, x), (gg_quantile, ps)):
            ones = [fn(k, v) for v in values.tolist()]
            assert all(type(one) is float for one in ones)
            assert np.array_equal(np.array(ones).view(np.uint64), fn(k, values).view(np.uint64))


class TestTailLaw:
    """-gamma * log(survival(x)) / x**gamma approaches 1 from above."""

    def test_laplace_rates(self):
        k = GGKernel(1.0)
        ratios = {}
        for x, bound in [(5.0, 1.15), (10.0, 1.08), (20.0, 1.04)]:
            ratios[x] = -1.0 * math.log(gg_survival(k, x)) / x
            assert 1.0 < ratios[x] <= bound
        assert ratios[5.0] > ratios[10.0] > ratios[20.0]

    def test_normal_rates_within_log_correction_envelope(self):
        # survival is bracketed by phi(x)(1/x - 1/x^3) and phi(x)/x, which
        # pins the ratio between 1 + (2 log x + log 2pi)/x^2 and the same
        # plus -2 log(1 - x^-2)/x^2.
        k = GGKernel(2.0)
        prev = math.inf
        for x in (5.0, 10.0, 20.0):
            ratio = -2.0 * math.log(gg_survival(k, x)) / x**2
            low = 1.0 + (2.0 * math.log(x) + math.log(2 * math.pi)) / x**2
            high = low - 2.0 * math.log(1.0 - x**-2) / x**2
            assert low <= ratio <= high
            assert ratio < prev
            prev = ratio


class TestQuantile:
    def test_median_is_zero(self):
        for g in GAMMAS:
            assert gg_quantile(GGKernel(g), 0.5) == 0.0

    def test_laplace_quartile(self):
        assert gg_quantile(GGKernel(1.0), 0.25) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_normal_five_percent(self):
        # Independent oracle: scipy's inverse normal survival function.
        assert gg_quantile(GGKernel(2.0), 0.05) == pytest.approx(
            float(stats.norm.isf(0.05)), abs=1e-12
        )

    def test_roundtrip_on_grid(self):
        for g in GAMMAS:
            k = GGKernel(g)
            for p in P_GRID:
                x = gg_quantile(k, p)
                assert abs(gg_survival(k, x) - p) <= 1e-10

    def test_monotone_decreasing_in_p(self):
        k = GGKernel(1.5)
        xs = [gg_quantile(k, p) for p in P_GRID]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_domain_errors(self):
        k = GGKernel(2.0)
        for p in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                gg_quantile(k, p)

    @given(st.floats(1e-6, 1 - 1e-6), st.sampled_from(GAMMAS))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, p, g):
        k = GGKernel(g)
        assert abs(gg_survival(k, gg_quantile(k, p)) - p) <= 1e-10

    def test_closed_form_against_exact_inverses(self):
        # gamma = 1: x = -log(2p); gamma = 2: scipy's inverse normal survival.
        ps = np.concatenate([10.0 ** -np.arange(300, 0, -1.0), np.linspace(0.01, 0.49, 49)])
        for g, exact in ((1.0, -np.log(2.0 * ps)), (2.0, stats.norm.isf(ps))):
            x = gg_quantile(GGKernel(g), ps)
            assert np.max(np.abs(x / exact - 1.0)) <= 1e-13

    def test_relative_roundtrip_deep_tail(self):
        # Relative error of the survival grows with its condition number
        # x**gamma ~ gamma * log(1/p) < 5e3 here, so 1e-10 leaves wide room.
        ps = 10.0 ** -np.arange(300, 0, -1.0)
        for g in GAMMAS + [7.0]:
            for scale in (0.3, 1.0, 5.0):
                k = GGKernel(g, scale)
                assert np.max(np.abs(gg_survival(k, gg_quantile(k, ps)) / ps - 1.0)) <= 1e-10

    def test_array_matches_scalar_calls(self):
        k = GGKernel(1.5, 2.0)
        ps = np.array(P_GRID)
        xs = gg_quantile(k, ps)
        assert isinstance(xs, np.ndarray)
        assert xs.tolist() == [gg_quantile(k, p) for p in P_GRID]
        assert type(gg_quantile(k, 0.1)) is float
        with pytest.raises(ValueError):
            gg_quantile(k, [0.2, 1.0])


class TestSampling:
    def test_deterministic_given_seed(self):
        k = GGKernel(1.7)
        a = gg_sample(k, np.random.default_rng(123), 1000)
        b = gg_sample(k, np.random.default_rng(123), 1000)
        assert np.array_equal(a, b)

    def test_normal_mean_clt(self):
        draws = gg_sample(GGKernel(2.0), np.random.default_rng(42), 10**6)
        assert abs(draws.mean()) <= 4.0 / math.sqrt(10**6)

    def test_laplace_tail_frequency(self):
        draws = gg_sample(GGKernel(1.0), np.random.default_rng(7), 10**6)
        target = 0.06766764161830635
        se = math.sqrt(target * (1 - target) / 10**6)
        assert abs((draws >= 2.0).mean() - target) <= 3 * se

    def test_dkw_band_against_survival(self):
        # 99% Dvoretzky-Kiefer-Wolfowitz band for the empirical CDF.
        n = 10**5
        eps = math.sqrt(math.log(2 / 0.01) / (2 * n))
        for idx, g in enumerate((1.0, 2.0, 2.5)):
            k = GGKernel(g)
            draws = np.sort(gg_sample(k, np.random.default_rng(100 + idx), n))
            cdf = 1.0 - gg_survival(k, draws)
            upper = np.max(np.arange(1, n + 1) / n - cdf)
            lower = np.max(cdf - np.arange(0, n) / n)
            assert max(upper, lower) <= eps

    def test_scalar_draw(self):
        val = gg_sample(GGKernel(3.0), np.random.default_rng(1))
        assert np.ndim(val) == 0 and np.isfinite(val)


class TestPValue:
    def test_half_at_zero(self):
        assert pvalue(GGKernel(2.0), 0.0) == 0.5

    def test_laplace_tail(self):
        assert pvalue(GGKernel(1.0), 2.0) == pytest.approx(0.06766764161830635, abs=1e-15)

    def test_null_pvalues_uniform(self):
        n = 10**5
        for g in (1.0, 2.0):
            k = GGKernel(g)
            draws = gg_sample(k, np.random.default_rng(17), n)
            pv = pvalue(k, draws)
            dist = stats.kstest(pv, "uniform").statistic
            assert dist < stats.kstwobign.isf(0.01) / math.sqrt(n)


class TestAltPValueCDF:
    def test_half_at_shift_survival(self):
        for g, mu in [(2.0, 2.0), (1.0, 1.3), (1.5, 3.0)]:
            alt = AltPValueCDF(GGKernel(g), mu)
            t_star = gg_survival(alt.kernel, mu)
            assert alt_pvalue_cdf(alt, t_star) == pytest.approx(0.5, abs=1e-9)

    def test_endpoints(self):
        alt = AltPValueCDF(GGKernel(2.0), 2.0)
        assert alt_pvalue_cdf(alt, 0.0) == 0.0
        assert alt_pvalue_cdf(alt, 1.0) == 1.0

    def test_normal_example_against_composition_oracle(self):
        alt = AltPValueCDF(GGKernel(2.0), 2.0)
        expected = float(stats.norm.cdf(2.0 - stats.norm.isf(0.05)))
        got = alt_pvalue_cdf(alt, 0.05)
        assert got == pytest.approx(expected, abs=1e-10)
        assert got == pytest.approx(0.63876, abs=5e-5)

    def test_monotone_and_bounded(self):
        alt = AltPValueCDF(GGKernel(1.5), 1.8)
        ts = np.linspace(0.0, 1.0, 41)
        vals = [alt_pvalue_cdf(alt, t) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        alt = AltPValueCDF(GGKernel(2.0), 1.0)
        for t in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                alt_pvalue_cdf(alt, t)
        with pytest.raises(ValueError):
            AltPValueCDF(GGKernel(2.0), 0.0)

    def test_array_matches_scalar_calls(self):
        alt = AltPValueCDF(GGKernel(1.5), 1.8)
        ts = np.array([0.0, 1e-300, 1e-12, 0.05, 0.5, 0.9, 1 - 1e-12, 1.0])
        got = alt_pvalue_cdf(alt, ts)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [alt_pvalue_cdf(alt, float(t)) for t in ts]
        assert got[0] == 0.0 and got[-1] == 1.0
        mixed = mixture_pvalue_cdf(alt, 0.3, ts)
        assert isinstance(mixed, np.ndarray)
        assert mixed.tolist() == [mixture_pvalue_cdf(alt, 0.3, float(t)) for t in ts]
        assert type(alt_pvalue_cdf(alt, 0.05)) is float
        assert type(mixture_pvalue_cdf(alt, 0.3, 0.05)) is float

    def test_array_domain_errors(self):
        alt = AltPValueCDF(GGKernel(2.0), 1.0)
        for t in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                alt_pvalue_cdf(alt, [0.2, t])
            with pytest.raises(ValueError):
                mixture_pvalue_cdf(alt, 0.3, np.array([t, 0.2]))

    def test_mixture_cdf_blend(self):
        alt = AltPValueCDF(GGKernel(2.0), 2.0)
        t = 0.05
        f = alt_pvalue_cdf(alt, t)
        assert mixture_pvalue_cdf(alt, 0.0, t) == pytest.approx(t)
        assert mixture_pvalue_cdf(alt, 1.0, t) == pytest.approx(f)
        assert mixture_pvalue_cdf(alt, 0.25, t) == pytest.approx(0.75 * t + 0.25 * f)
        with pytest.raises(ValueError):
            mixture_pvalue_cdf(alt, 1.5, t)
