import math

import numpy as np
import pytest

from dpquant.prob import (discrete_pmf, gaussian, ks_statistic, laplace,
                          plugin_entropy, uniform)

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

    def test_discrete_infimum_rule(self):
        m = discrete_pmf([0.2, 0.3, 0.5], values=[1.0, 2.0, 3.0])
        assert m.icdf(0.2) == 1.0   # cdf(1.0) = 0.2 >= u
        assert m.icdf(0.21) == 2.0
        assert m.icdf(0.5) == 2.0
        assert m.icdf(0.51) == 3.0


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

    def test_discrete_model_refused(self):
        s = gaussian(0, 1).sample(seed=0, n=100)
        with pytest.raises(ValueError):
            ks_statistic(s.values, discrete_pmf([0.5, 0.5]))


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

    def test_discrete_refused(self):
        with pytest.raises(ValueError):
            discrete_pmf([0.5, 0.5]).diff_entropy()


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

    def test_bad_pmf(self):
        with pytest.raises(ValueError):
            discrete_pmf([0.5, 0.6])
        with pytest.raises(ValueError):
            discrete_pmf([-0.1, 1.1])
