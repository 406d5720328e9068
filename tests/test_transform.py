import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from dpquant.ecdq import ecdq_encode
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, ks_statistic, laplace, uniform
from dpquant.rng import stream_rng
from dpquant.transform import (BivariateGaussian, SmoothedModel, dpq_transform,
                               gaussian_smoothed_transform, rosenblatt_forward,
                               rosenblatt_inverse, smoothed_cdf, smoothed_pdf)

PHI_1 = 0.841344746068543


class TestSmoothedCdf:
    def test_gaussian_symmetry(self):
        sm = SmoothedModel(gaussian(0, 1), scaled_integer(0.5, 1))
        assert float(smoothed_cdf(sm, 0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_symmetry(self):
        sm = SmoothedModel(uniform(0, 1), scaled_integer(0.2, 1))
        assert float(smoothed_cdf(sm, 0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_mean_value_bracket(self):
        sm = SmoothedModel(gaussian(0, 1), scaled_integer(0.5, 1))
        v = float(smoothed_cdf(sm, 0, 1.0))
        lo, hi = gaussian(0, 1).cdf(0.75), gaussian(0, 1).cdf(1.25)
        assert lo < v < hi

    def test_monotone(self):
        sm = SmoothedModel(gaussian(0, 1), scaled_integer(1.0, 1))
        xs = np.linspace(-4, 4, 500)
        u = smoothed_cdf(sm, 0, xs)
        assert np.all(np.diff(u) > 0)

    def test_node_doubling_error(self):
        # quadrature relative error below 1e-8, checked against 64 nodes
        base = gaussian(0, 1)
        lat = scaled_integer(0.5, 1)
        xs = np.linspace(-4, 4, 200)
        u32 = smoothed_cdf(SmoothedModel(base, lat, nodes=32), 0, xs)
        u64 = smoothed_cdf(SmoothedModel(base, lat, nodes=64), 0, xs)
        assert np.max(np.abs(u32 - u64) / np.maximum(np.abs(u64), 1e-12)) < 1e-8

    def test_hex_node_doubling_error(self):
        base = gaussian(0, 1, dim=2)
        lat = hexagonal(0.8)
        xs = np.linspace(-3, 3, 50)
        for nodes_pair in [(32, 64)]:
            a = smoothed_cdf(SmoothedModel(base, lat, nodes=nodes_pair[0]), 1,
                             xs, cond=np.full_like(xs, 0.7))
            b = smoothed_cdf(SmoothedModel(base, lat, nodes=nodes_pair[1]), 1,
                             xs, cond=np.full_like(xs, 0.7))
            assert np.max(np.abs(a - b)) < 1e-8

    def test_hex_quadrature_integrates_volume(self):
        from dpquant.transform import _hex_nodes
        lat = hexagonal(1.7)
        _, w = _hex_nodes(lat.step, 32)
        assert w.sum() == pytest.approx(lat.cell_volume, rel=1e-12)

    def test_hex_conditioning_required(self):
        sm = SmoothedModel(gaussian(0, 1, dim=2), hexagonal(1.0))
        with pytest.raises(ValueError):
            smoothed_cdf(sm, 1, 0.0)

    def test_out_of_support_conditioning_refused(self):
        sm = SmoothedModel(uniform(0, 1, dim=2), hexagonal(0.2))
        with pytest.raises(ValueError):
            smoothed_cdf(sm, 1, 0.5, cond=np.array([50.0]))


class TestRosenblatt:
    def test_bivariate_center(self):
        bg = BivariateGaussian(rho=0.5)
        u = rosenblatt_forward(bg, [0.0, 0.0])
        assert np.allclose(u, [0.5, 0.5])

    def test_bivariate_conditional_formula(self):
        bg = BivariateGaussian(rho=0.5)
        u = rosenblatt_forward(bg, [1.0, 0.5])
        assert u[0, 0] == pytest.approx(PHI_1, abs=1e-6)
        assert u[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_product_model_is_marginal_cdf(self):
        m = gaussian(0, 1, dim=3)
        x = np.array([[0.0, 1.0, -1.0]])
        u = rosenblatt_forward(m, x)
        assert np.allclose(u, m.cdf(x))

    def test_roundtrip(self):
        m = gaussian(0, 1, dim=4)
        rng = stream_rng(0, 0)
        u = rng.random((10_000, 4))
        back = rosenblatt_forward(m, rosenblatt_inverse(m, u))
        assert np.max(np.abs(back - u)) < 1e-7

    def test_roundtrip_bivariate(self):
        bg = BivariateGaussian(rho=0.8)
        rng = stream_rng(1, 0)
        u = rng.random((10_000, 2))
        back = rosenblatt_forward(bg, rosenblatt_inverse(bg, u))
        assert np.max(np.abs(back - u)) < 1e-7

    def test_inverse_sampling_law(self):
        bg = BivariateGaussian(rho=0.5)
        rng = stream_rng(2, 0)
        x = rosenblatt_inverse(bg, rng.random((100_000, 2)))
        for i in range(2):
            _, ok = ks_statistic(x[:, i], gaussian(0, 1))
            assert ok
        rho_s = spearmanr(x[:, 0], x[:, 1]).statistic
        expected = 6 / math.pi * math.asin(0.5 / 2)  # Pearson->Spearman map
        assert abs(rho_s - expected) < 0.02

    def test_median_fixed_point(self):
        m = laplace(2.0, 1.0, dim=2)
        x = rosenblatt_inverse(m, np.array([[0.5, 0.5]]))
        assert np.allclose(x, 2.0, atol=1e-9)

    def test_unsupported_structure(self):
        with pytest.raises(ValueError):
            rosenblatt_forward(object(), [0.0])


class TestDpqTransform:
    def test_symmetry_fixed_point(self):
        m = gaussian(0, 1, dim=3)
        g = dpq_transform(m, scaled_integer(0.5, 3), np.zeros(3))
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_uniform_interior_identity(self):
        m = uniform(0, 1)
        g = dpq_transform(m, scaled_integer(0.2, 1), np.array([0.37]))
        assert g[0] == pytest.approx(0.37, abs=1e-9)

    def test_box_bound(self):
        m = gaussian(0, 1)
        lat = scaled_integer(0.5, 1)
        rng = stream_rng(3, 0)
        x_hat = rng.uniform(-4, 4, size=(10_000, 1))
        g = dpq_transform(m, lat, x_hat)
        assert np.max(np.abs(g - x_hat)) <= 0.25 + 1e-9

    def test_monotone(self):
        m = laplace(0, 1)
        xs = np.linspace(-5, 5, 400)[:, None]
        g = dpq_transform(m, scaled_integer(1.0, 1), xs).ravel()
        assert np.all(np.diff(g) >= 0)

    def test_jacobian_condition(self):
        # f_X(g(x)) g'(x) = f_{X_hat}(x), g' by central differences
        m = gaussian(0, 1)
        lat = scaled_integer(0.5, 1)
        sm = SmoothedModel(m, lat)
        xs = np.linspace(-3, 3, 100)
        h = 1e-5
        gp = (dpq_transform(m, lat, (xs + h)[:, None]).ravel()
              - dpq_transform(m, lat, (xs - h)[:, None]).ravel()) / (2 * h)
        g = dpq_transform(m, lat, xs[:, None]).ravel()
        lhs = np.asarray(m.pdf(g)) * gp
        rhs = np.asarray(smoothed_pdf(sm, xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_distribution_preservation_cube(self):
        m = gaussian(0, 1, dim=2)
        lat = scaled_integer(1.0, 2)
        x = m.sample(0, 100_000).values
        z = lat.sample_dither(stream_rng(0, 1), len(x))
        _, pt = lat.nearest_point(x + z)
        x_tilde = dpq_transform(m, lat, pt - z)
        for i in range(2):
            _, ok = ks_statistic(x_tilde[:, i], gaussian(0, 1))
            assert ok
        assert abs(spearmanr(x_tilde[:, 0], x_tilde[:, 1]).statistic) < 0.02

    def test_distribution_preservation_hex(self):
        m = gaussian(0, 1, dim=2)
        lat = hexagonal(1.0)
        x = m.sample(5, 20_000).values
        z = lat.sample_dither(stream_rng(5, 1), len(x))
        _, pt = lat.nearest_point(x + z)
        x_tilde = dpq_transform(m, lat, pt - z)
        for i in range(2):
            _, ok = ks_statistic(x_tilde[:, i], gaussian(0, 1))
            assert ok
        assert abs(spearmanr(x_tilde[:, 0], x_tilde[:, 1]).statistic) < 0.02


class TestGaussianSmoothedTransform:
    def test_gaussian_closed_form_point(self):
        got = gaussian_smoothed_transform(gaussian(0, 1), 1.0, 2.0)
        assert got == pytest.approx(math.sqrt(0.5) * 2.0, abs=1e-6)

    def test_gaussian_closed_form_grid(self):
        m = gaussian(0.5, 2.0)
        xs = np.linspace(-5, 6, 100)
        got = gaussian_smoothed_transform(m, 0.8, xs)
        want = math.sqrt(2.0 / (2.0 + 0.64)) * (xs - 0.5) + 0.5
        assert np.max(np.abs(got - want)) < 1e-6

    def test_median_fixed_point(self):
        assert gaussian_smoothed_transform(laplace(1.0, 2.0), 0.5, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_smoothing_limit(self):
        got = gaussian_smoothed_transform(gaussian(0, 1), 1e-3, 1.0)
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_eta_positive_required(self):
        with pytest.raises(ValueError):
            gaussian_smoothed_transform(gaussian(0, 1), 0.0, 1.0)
