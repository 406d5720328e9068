import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from dpquant.prob import gaussian, ks_statistic, laplace, plugin_entropy, uniform

# frozen from numeric integration of the standard normal pdf
PHI_1 = 0.841344746068543
HALF_LN_2PIE = 1.4189385332046727


class TestCdf:
    def test_gaussian_symmetry(self):
        assert gaussian(0, 1).cdf(0.0) == pytest.approx(0.5)

    def test_gaussian_at_one(self):
        assert gaussian(0, 1).cdf(1.0) == pytest.approx(PHI_1, abs=1e-6)

    def test_uniform_identity(self):
        assert uniform(0, 1).cdf(0.3) == pytest.approx(0.3)

    def test_monotone_all_families(self):
        for m in (gaussian(0.3, 2.0), uniform(-1, 2), laplace(0.5, 1.5)):
            xs = np.linspace(m.icdf(1e-6), m.icdf(1 - 1e-6), 1000)
            c = np.asarray(m.cdf(xs))
            assert np.all(np.diff(c) >= 0)

    def test_limits(self):
        for m in (gaussian(0, 1), uniform(0, 1), laplace(0, 1)):
            assert m.cdf(-1e9) == pytest.approx(0.0, abs=1e-12)
            assert m.cdf(1e9) == pytest.approx(1.0, abs=1e-12)


# (model, the kinks of its cdf) for each family
KINKED = [(gaussian(0.3, 2.0), []), (laplace(-0.5, 1.5), [-0.5]),
          (uniform(-1.0, 2.0), [-1.0, 2.0])]


def _check_cdf_average_against_quad(model, kinks, width, tol):
    # midpoints across the centre and out to 8 sd in both tails
    sd = math.sqrt(model.variance())
    mids = model.mean() + sd * np.linspace(-8.0, 8.0, 161)
    got = model.cdf_average(mids - width / 2, mids + width / 2)
    for mid, g in zip(mids, got):
        lo, hi = mid - width / 2, mid + width / 2
        inside = [k for k in kinks if lo < k < hi]
        want = quad(model.cdf, lo, hi, points=inside or None,
                    epsabs=1e-16 * width, epsrel=1e-13)[0] / (hi - lo)
        assert abs(g - want) < tol, mid


class TestCdfAverage:
    @pytest.mark.parametrize("model, kinks", KINKED,
                             ids=["gaussian", "laplace", "uniform"])
    @pytest.mark.parametrize("width", [1e-3, 2e-3, 0.1, 1.0, 10.0])
    def test_matches_quad(self, model, kinks, width):
        # ndtr is good to about 2e-16, and G(hi) - G(lo) divides that
        # error by the width: 1.6e-13 at width 1e-3 near z = +-1
        _check_cdf_average_against_quad(model, kinks, width,
                                        max(1e-13, 2e-16 / width))

    def test_folded_tail_matches_gauss_legendre(self):
        # unfolded, G(hi) - G(lo) in the upper tail misses this by 8.5e-13
        m = gaussian(0, 1)
        x = np.linspace(-8.0, 8.0, 2001)
        h = 1e-3
        t, w = np.polynomial.legendre.leggauss(32)
        want = 0.5 * np.sum(w * m.cdf(x[:, None] + h * t), axis=-1)
        assert np.max(np.abs(m.cdf_average(x - h, x + h) - want)) < 2e-13

    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from([m for m, _ in KINKED]),
           st.floats(-50.0, 50.0), st.floats(1e-6, 20.0))
    def test_between_end_values(self, model, lo, width):
        hi = lo + width
        avg = model.cdf_average(lo, hi)
        assert model.cdf(lo) <= avg <= model.cdf(hi)

    def test_scalar_and_broadcast(self):
        m = laplace(0, 1)
        assert isinstance(m.cdf_average(-1.0, 1.0), float)
        assert m.cdf_average(-1.0, 1.0) == 0.5
        assert m.cdf_average(np.zeros((3, 1)), np.ones(4)).shape == (3, 4)

    def test_refusals(self):
        with pytest.raises(ValueError):
            gaussian(0, 1).cdf_average(1.0, 1.0)


class TestIcdf:
    def test_gaussian_median(self):
        assert gaussian(0, 1).icdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_inverse_of_cdf_example(self):
        assert gaussian(0, 1).icdf(PHI_1) == pytest.approx(1.0, abs=1e-5)

    def test_uniform_linear(self):
        assert uniform(2, 4).icdf(0.25) == pytest.approx(2.5)

    def test_clamping_no_infinities(self):
        assert np.isfinite(gaussian(0, 1).icdf(0.0))
        assert np.isfinite(gaussian(0, 1).icdf(1.0))

    def test_roundtrip_all_families(self):
        for m in (gaussian(0, 1), gaussian(2, 4), uniform(-1, 3), laplace(0, 2)):
            xs = np.linspace(m.icdf(1e-6), m.icdf(1 - 1e-6), 1000)
            back = np.asarray(m.icdf(m.cdf(xs)))
            assert np.max(np.abs(back - xs)) < 1e-8


class TestSampling:
    def test_gaussian_moments(self):
        s = gaussian(0, 1).sample(seed=11, n=100_000)
        assert abs(s.values.mean()) < 0.02
        assert abs(s.values.var() - 1.0) < 0.02

    def test_determinism(self):
        a = gaussian(0, 1).sample(seed=5, n=1000).values
        b = gaussian(0, 1).sample(seed=5, n=1000).values
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = gaussian(0, 1).sample(seed=5, n=1000, stream=0).values
        b = gaussian(0, 1).sample(seed=5, n=1000, stream=1).values
        assert not np.array_equal(a, b)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            gaussian(0, 1).sample(seed=0, n=0)


class TestKs:
    def test_matching_model_passes_usually(self):
        m = gaussian(0, 1)
        passes = sum(ks_statistic(m.sample(seed, 100_000).values, m)[1]
                     for seed in range(20))
        assert passes >= 18  # ~95% pass rate at the 5% level

    def test_shifted_model_fails(self):
        s = gaussian(0, 1).sample(seed=3, n=10_000)
        d, ok = ks_statistic(s.values, gaussian(3, 1))
        assert not ok
        assert d > 0.5  # sup |Phi(x) - Phi(x-3)| ~ 0.87

    def test_small_n_refused(self):
        s = gaussian(0, 1).sample(seed=0, n=10)
        with pytest.raises(ValueError):
            ks_statistic(s.values, gaussian(0, 1))


class TestEntropy:
    def test_gaussian(self):
        assert gaussian(0, 1).diff_entropy() == pytest.approx(HALF_LN_2PIE, abs=1e-6)

    def test_uniform_unit(self):
        assert uniform(0, 1).diff_entropy() == 0.0

    def test_gaussian_scaling(self):
        got = gaussian(0, 4).diff_entropy()
        assert got == pytest.approx(HALF_LN_2PIE + math.log(2), abs=1e-6)

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_entropy_scaling_identity(self, alpha):
        var = 1.7
        delta = gaussian(0, var).diff_entropy() - gaussian(0, var / alpha ** 2).diff_entropy()
        assert delta == pytest.approx(math.log(alpha), abs=1e-9)


# Each family at shifted and scaled parameters, its scipy.stats twin and the
# kinks of its cdf: a wrong row of the location-scale table shows here.
TWINS = [(gaussian(2, 4), stats.norm(loc=2, scale=2), []),
         (laplace(-1, 2), stats.laplace(loc=-1, scale=2), [-1.0]),
         (uniform(-1, 3), stats.uniform(loc=-1, scale=4), [-1.0, 3.0])]


class TestLocationScaleTable:
    @pytest.mark.parametrize("model, twin, kinks", TWINS,
                             ids=["gaussian", "laplace", "uniform"])
    def test_matches_scipy(self, model, twin, kinks):
        u = np.linspace(1e-6, 1 - 1e-6, 1001)
        x = np.linspace(twin.ppf(1e-6) - 1, twin.ppf(1 - 1e-6) + 1, 1001)
        assert np.max(np.abs(model.cdf(x) - twin.cdf(x))) < 1e-12
        assert np.max(np.abs(model.pdf(x) - twin.pdf(x))) < 1e-12
        # the Laplace icdf forms 1 - 2u by cancellation: 5e-11 off at u = 1e-6
        assert np.max(np.abs(model.icdf(u) - twin.ppf(u))) < 1e-8
        assert model.mean() == pytest.approx(twin.mean(), abs=1e-12)
        assert model.variance() == pytest.approx(twin.var(), abs=1e-12)
        assert model.diff_entropy() == pytest.approx(twin.entropy(), abs=1e-12)

    @pytest.mark.parametrize("model, twin, kinks", TWINS,
                             ids=["gaussian", "laplace", "uniform"])
    @pytest.mark.parametrize("width", [1e-3, 0.1, 10.0])
    def test_cdf_average_matches_quad(self, model, twin, kinks, width):
        # the bound of TestCdfAverage, with the width in standard deviations
        sd = twin.std()
        _check_cdf_average_against_quad(model, kinks, width,
                                        max(1e-13, 2e-16 * sd / width))


class TestPluginEntropy:
    def test_uniform_binary(self):
        assert plugin_entropy([8, 8]) == pytest.approx(math.log(2))

    def test_degenerate(self):
        assert plugin_entropy([16]) == 0.0

    def test_uniform_quaternary(self):
        assert plugin_entropy([1, 1, 1, 1]) == pytest.approx(math.log(4))

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            plugin_entropy([0, 0])


class TestValidation:
    def test_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian(0, 0)

    # uniform(nan, 1) was already refused by its support check; the others
    # slipped past comparisons that are false for NaN
    @pytest.mark.parametrize("build", [
        lambda: gaussian(0, math.nan),
        lambda: gaussian(math.nan, 1),
        lambda: gaussian(0, math.inf),
        lambda: laplace(0, math.nan),
        lambda: laplace(math.inf, 1),
        lambda: uniform(math.nan, 1),
        lambda: uniform(0, math.inf),
    ], ids=["gaussian-var-nan", "gaussian-mean-nan", "gaussian-var-inf",
            "laplace-scale-nan", "laplace-loc-inf", "uniform-a-nan",
            "uniform-b-inf"])
    def test_non_finite_refused(self, build):
        with pytest.raises(ValueError):
            build()
