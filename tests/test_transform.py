import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import ndtr
from scipy.stats import spearmanr

from dpquant.ecdq import ecdq_encode
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, ks_statistic, laplace, uniform
from dpquant.rng import stream_rng
from dpquant import transform
from dpquant.transform import (BivariateGaussian, dpq_transform,
                               gaussian_smoothed_transform, smoothed_cdf)

PHI_1 = 0.841344746068543


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _laplace_cdf(x):
    return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)


def _laplace_pdf(x):
    return 0.5 * math.exp(-abs(x))


class TestSmoothedCdf:
    def test_gaussian_symmetry(self):
        u = smoothed_cdf(gaussian(0, 1), scaled_integer(0.5, 1), 0.0)
        assert float(u) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_symmetry(self):
        u = smoothed_cdf(uniform(0, 1), scaled_integer(0.2, 1), 0.5)
        assert float(u) == pytest.approx(0.5, abs=1e-12)

    def test_mean_value_bracket(self):
        v = float(smoothed_cdf(gaussian(0, 1), scaled_integer(0.5, 1), 1.0))
        lo, hi = gaussian(0, 1).cdf(0.75), gaussian(0, 1).cdf(1.25)
        assert lo < v < hi

    def test_monotone(self):
        xs = np.linspace(-4, 4, 500)
        u = smoothed_cdf(gaussian(0, 1), scaled_integer(1.0, 1), xs)
        assert np.all(np.diff(u) > 0)

    def test_node_doubling_error(self, monkeypatch):
        # quadrature relative error below 1e-8, checked against 64 nodes
        base = gaussian(0, 1)
        lat = scaled_integer(0.5, 1)
        xs = np.linspace(-4, 4, 200)
        u32 = smoothed_cdf(base, lat, xs)
        monkeypatch.setattr(transform, "_NODES", 64)
        u64 = smoothed_cdf(base, lat, xs)
        assert np.max(np.abs(u32 - u64) / np.maximum(np.abs(u64), 1e-12)) < 1e-8

    def test_hex_node_doubling_error(self, monkeypatch):
        base = gaussian(0, 1, dim=2)
        lat = hexagonal(0.8)
        xs = np.linspace(-3, 3, 50)
        x_hat = np.column_stack([np.full_like(xs, 0.7), xs])
        a = smoothed_cdf(base, lat, x_hat)
        monkeypatch.setattr(transform, "_NODES", 64)
        b = smoothed_cdf(base, lat, x_hat)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_hex_quadrature_integrates_volume(self):
        lat = hexagonal(1.7)
        _, h, w = transform._hex_nodes(lat.step, 32)
        assert (np.sum(2.0 * np.tile(h, 2) * w)
                == pytest.approx(lat.cell_volume, rel=1e-12))

    @pytest.mark.parametrize("model", [gaussian(0.3, 1.5, dim=2),
                                       laplace(-0.2, 0.8, dim=2)],
                             ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.7])
    def test_hex_equals_64_chord_rule_bit_for_bit(self, model, scale):
        # The rule written out on all 64 chords.  smoothed_cdf averages F
        # once per mirror pair of chords; that must not move a bit.
        lat = hexagonal(scale)
        x = stream_rng(12, 0).normal(0.0, 2.0, size=(2000, 2))
        t, wt = np.polynomial.legendre.leggauss(32)
        a = np.concatenate([-(scale / 4.0) * (1.0 + t), (scale / 4.0) * (1.0 + t)])
        h = (scale - np.abs(a)) / math.sqrt(3.0)
        wh = np.tile((scale / 4.0) * wt, 2) * h
        x1, x2 = x[:, 0, None], x[:, 1, None]
        u1 = np.sum(2.0 * wh * model.cdf(x1 + a), axis=-1) / lat.cell_volume
        f1 = wh * model.pdf(x1 + a)
        chords = 2.0 * model.cdf_average(x2 - h, x2 + h)
        u2 = np.sum(f1 * chords, axis=-1) / np.sum(2.0 * f1, axis=-1)
        want = np.column_stack([u1, u2])
        got = smoothed_cdf(model, lat, x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scale", [0.1, 0.5, 2.0])
    def test_hex_matches_cell_integrals(self, scale):
        # Both coordinates against adaptive 2-D integration over the two
        # half-hexagons x < 0 and x > 0 (the chord length has a kink at 0),
        # each chord split where x2 + y crosses the source's centre 0.  The
        # Laplace points keep x1 more than s/2 from the kink of its pdf and
        # cdf, and every chord through x2 crosses it.
        lat = hexagonal(scale)
        half_chord = lambda a: (scale - abs(a)) / math.sqrt(3.0)

        def cell_integral(g, x2):
            mid = lambda a: min(max(-x2, -half_chord(a)), half_chord(a))
            return sum(dblquad(lambda b, a: g(a, b), lo, hi, y0, y1,
                               epsabs=1e-14, epsrel=1e-13)[0]
                       for lo, hi in ((-scale / 2, 0.0), (0.0, scale / 2))
                       for y0, y1 in ((lambda a: -half_chord(a), mid),
                                      (mid, half_chord)))

        cases = [(gaussian(0, 1, dim=2), ndtr, _phi,
                  [[0.3, -0.7], [-1.2, 1.5], [2.5, 0.1]]),
                 (laplace(0, 1, dim=2), _laplace_cdf, _laplace_pdf,
                  [[1.5 * scale, 0.05 * scale], [-0.75 * scale - 2.0, 0.0],
                   [3.0, -0.1 * scale]])]
        for m, cdf, pdf, x_hat in cases:
            u = smoothed_cdf(m, lat, np.array(x_hat))
            for (x1, x2), (u1, u2) in zip(x_hat, u):
                want1 = cell_integral(lambda a, b: cdf(x1 + a), x2) / lat.cell_volume
                den = cell_integral(lambda a, b: pdf(x1 + a), x2)
                want2 = cell_integral(lambda a, b: pdf(x1 + a) * cdf(x2 + b),
                                      x2) / den
                assert abs(u1 - want1) < 1e-12
                assert abs(u2 - want2) < 1e-12

    def test_refuses_dimension_mismatch(self):
        with pytest.raises(ValueError):
            smoothed_cdf(gaussian(0, 1), hexagonal(1.0), np.zeros(2))

    def test_out_of_support_conditioning_refused(self):
        with pytest.raises(ValueError):
            smoothed_cdf(uniform(0, 1, dim=2), hexagonal(0.2),
                         np.array([50.0, 0.5]))


class TestRosenblatt:
    def test_bivariate_center(self):
        bg = BivariateGaussian(rho=0.5)
        u = bg.cdf([0.0, 0.0])
        assert np.allclose(u, [0.5, 0.5])

    def test_bivariate_conditional_formula(self):
        bg = BivariateGaussian(rho=0.5)
        u = bg.cdf([1.0, 0.5])
        assert u[0, 0] == pytest.approx(PHI_1, abs=1e-6)
        assert u[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip(self):
        m = gaussian(0, 1, dim=4)
        rng = stream_rng(0, 0)
        u = rng.random((10_000, 4))
        back = m.cdf(m.icdf(u))
        assert np.max(np.abs(back - u)) < 1e-7

    def test_roundtrip_bivariate(self):
        bg = BivariateGaussian(rho=0.8)
        rng = stream_rng(1, 0)
        u = rng.random((10_000, 2))
        back = bg.cdf(bg.icdf(u))
        assert np.max(np.abs(back - u)) < 1e-7

    def test_inverse_sampling_law(self):
        bg = BivariateGaussian(rho=0.5)
        rng = stream_rng(2, 0)
        x = bg.icdf(rng.random((100_000, 2)))
        for i in range(2):
            _, ok = ks_statistic(gaussian(0, 1).cdf(x[:, i]))
            assert ok
        rho_s = spearmanr(x[:, 0], x[:, 1]).statistic
        expected = 6 / math.pi * math.asin(0.5 / 2)  # Pearson->Spearman map
        assert abs(rho_s - expected) < 0.02

    def test_median_fixed_point(self):
        m = laplace(2.0, 1.0, dim=2)
        x = m.icdf(np.array([[0.5, 0.5]]))
        assert np.allclose(x, 2.0, atol=1e-9)


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

    # a grid of 101 points around a centre, from near-adjacent floats to
    # points a tenth apart, so that x stays inside the support
    _grid = st.builds(lambda c, d: c + d * np.arange(-50, 51),
                      st.floats(-8.0, 8.0), st.floats(1e-6, 0.1))

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(make=st.sampled_from([gaussian, laplace, uniform]),
           step=st.floats(1e-4, 10.0), xs=_grid)
    def test_cube_weakly_monotone(self, make, step, xs):
        g = dpq_transform(make(), scaled_integer(step, 1), xs[:, None]).ravel()
        assert np.all(np.diff(g) >= 0)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(make=st.sampled_from([gaussian, laplace]),
           scale=st.floats(0.05, 4.0), xs=_grid, other=st.floats(-8.0, 8.0))
    def test_hex_weakly_monotone_per_axis(self, make, scale, xs, other):
        # coordinate 0 in x1 at a fixed x2, coordinate 1 in x2 at a fixed x1
        m, lat = make(dim=2), hexagonal(scale)
        fixed = np.full_like(xs, other)
        g1 = dpq_transform(m, lat, np.column_stack([xs, fixed]))[:, 0]
        g2 = dpq_transform(m, lat, np.column_stack([fixed, xs]))[:, 1]
        assert np.all(np.diff(g1) >= 0) and np.all(np.diff(g2) >= 0)

    def test_jacobian_condition(self):
        # f_X(g(x)) g'(x) = f_{X_hat}(x), g' by central differences
        m = gaussian(0, 1)
        lat = scaled_integer(0.5, 1)
        xs = np.linspace(-3, 3, 100)
        h = 1e-5
        gp = (dpq_transform(m, lat, (xs + h)[:, None]).ravel()
              - dpq_transform(m, lat, (xs - h)[:, None]).ravel()) / (2 * h)
        g = dpq_transform(m, lat, xs[:, None]).ravel()
        lhs = np.asarray(m.pdf(g)) * gp
        # density of the smoothed model: the cell average of the source pdf
        rhs = (np.asarray(m.cdf(xs + 0.25)) - np.asarray(m.cdf(xs - 0.25))) / 0.5
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_distribution_preservation_cube(self):
        m = gaussian(0, 1, dim=2)
        lat = scaled_integer(1.0, 2)
        x = m.sample(0, 100_000).values
        z = lat.sample_dither(stream_rng(0, 1), len(x))
        _, pt = lat.nearest_point(x + z)
        x_tilde = dpq_transform(m, lat, pt - z)
        for i in range(2):
            _, ok = ks_statistic(gaussian(0, 1).cdf(x_tilde[:, i]))
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
            _, ok = ks_statistic(gaussian(0, 1).cdf(x_tilde[:, i]))
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
