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
from dpquant.schemes import TransformDpq
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


def _hex_rule(model, scale, x, m):
    """The hexagon's chord rule written out at m Gauss-Legendre nodes per
    half-cell, each sum formed once per mirror pair of chords ±a_k."""
    t, wt = np.polynomial.legendre.leggauss(m)
    a = (scale / 4.0) * (1.0 + t)
    h = (scale - a) / math.sqrt(3.0)
    wh = (scale / 4.0) * wt * h
    x1, x2 = x[:, 0, None], x[:, 1, None]
    u1 = 2.0 / hexagonal(scale).cell_volume * np.sum(
        wh * (model.cdf(x1 - a) + model.cdf(x1 + a)), axis=-1)
    f1 = wh * (model.pdf(x1 - a) + model.pdf(x1 + a))
    u2 = (np.sum(f1 * model.cdf_average(x2 - h, x2 + h), axis=-1)
          / np.sum(f1, axis=-1))
    return np.column_stack([u1, u2])


def _cube_rule(model, step, x):
    """The 32-node Gauss-Legendre rule over the whole cube cell, which the
    cube took for every family and step until its closed form."""
    t, w = np.polynomial.legendre.leggauss(32)
    return 0.5 * np.sum(w * model.cdf(x[:, None] + (step / 2.0) * t), axis=-1)


def _cube_reference(model, kinks, step, x):
    """The mean of F(x + tau) over |tau| <= step/2 by a composite 32-node
    Gauss-Legendre rule, split where x + tau crosses a kink of the density
    and into pieces at most sigma/2 wide, on each of which F is analytic
    and the rule exact to rounding."""
    t, w = np.polynomial.legendre.leggauss(32)
    width, h = math.sqrt(model.variance()) / 2.0, step / 2.0
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        cuts = [-h, *sorted(k - xi for k in kinks if -h < k - xi < h), h]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            e = np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)
            mid, half = (e[:-1, None] + e[1:, None]) / 2, (e[1:, None] - e[:-1, None]) / 2
            total += np.sum(half * w * model.cdf(xi + (mid + half * t)))
        out[i] = total / step
    return out


def _cube_rows(model, step):
    sd = math.sqrt(model.variance())
    return np.linspace(model.mean() - 8 * sd - step / 2,
                       model.mean() + 8 * sd + step / 2, 401)


# (model, the kinks of its density, cube step): the Gaussian steps that take
# the 32-node rule, then every case that takes the closed form
CUBE_CASES = [(gaussian(0, 1), [], 1e-4), (gaussian(0, 1), [], 4.0),
              (gaussian(0, 1), [], 8.0), (gaussian(0, 1), [], 16.0),
              (gaussian(0, 4), [], 128.0), (laplace(0, 1), [0.0], 1e-4),
              (laplace(0.5, 2), [0.5], 0.5), (laplace(0, 1), [0.0], 4.0),
              (laplace(0, 1), [0.0], 32.0), (uniform(-1.7, 1.7), [-1.7, 1.7], 1e-4),
              (uniform(-1.7, 1.7), [-1.7, 1.7], 0.5),
              (uniform(0, 1), [0.0, 1.0], 16.0)]
CUBE_IDS = [f"{m.family.value}-{step:g}" for m, _, step in CUBE_CASES]
# the closed-form cases where the 32-node rule errs on these rows: at a step
# of 1e-4 no row's cell straddles a kink
CUBE_CONTROLS = [case for case in CUBE_CASES[3:] if case[2] > 1e-4]
# max |u - reference| allowed: a few ulp of 1
CUBE_TOL = 1e-15


def _gaussian_hex_nodes(scale, var):
    """Nodes per half-cell of the Gaussian's hexagon rule: 8 + ceil(2 s/sigma)."""
    return 8 + math.ceil(2.0 * scale / math.sqrt(var))


def _hex_reference_excess(var, ratio, u_of):
    """Per axis, max |u - u_256| over its bound, where u = u_of(model, scale, x)
    and u_k is `_hex_rule` at k nodes per half-cell.  A value above 1 fails.

    The bound is twice the 32-node rule's max |u_32 - u_256|, or the rounding
    floor if that is larger.  The floor is 2**-48 for sums of up to 144 terms
    below 1 and, for s below sigma/16, 2**-52 sigma/s: the rounding of
    `SourceModel.cdf_average` on chords that short (about 1e-13 at s = 1e-3
    sigma for every node count), which a rule of fewer chords averages less.
    The rows are uniform out to 8 sigma + s, where the tail is the
    integrand's only feature, and drawn from the source.
    """
    sigma = math.sqrt(var)
    scale = ratio * sigma
    model = gaussian(0.0, var, dim=2)
    rng = stream_rng(13, 0)
    lim = 8.0 * sigma + scale
    x = np.concatenate([rng.uniform(-lim, lim, size=(400, 2)),
                        sigma * rng.standard_normal((400, 2))])
    ref = _hex_rule(model, scale, x, 256)
    err32 = np.max(np.abs(_hex_rule(model, scale, x, 32) - ref), axis=0)
    err = np.max(np.abs(u_of(model, scale, x) - ref), axis=0)
    return err / np.maximum(2.0 * err32, 2.0 ** -52 * max(16.0, 1.0 / ratio))


class TestBlockSize:
    """smoothed_cdf gives the same bits for any block budget: each row's
    arithmetic does not depend on the rows beside it."""

    N = 3001  # a multiple of none of the block heights tried

    # Per family, the floats per row of a (rows, nodes) temporary and the
    # rows per block.  The hexagon's Gaussian rule takes 8 + ceil(2 s/sigma)
    # = 9 nodes per half-cell at s = 0.5 sigma; the Laplace rule keeps 32.
    # The cube's Laplace cell average is in closed form, 16 temporaries wide.
    @pytest.mark.parametrize("lat,blocks", [
        (scaled_integer(0.5, 1), {gaussian: (32, 512), laplace: (16, 1024)}),
        (hexagonal(0.5), {gaussian: (9, 1820), laplace: (32, 512)})],
        ids=["cube", "hex"])
    @pytest.mark.parametrize("family", [gaussian, laplace])
    def test_bit_identical_for_any_block(self, monkeypatch, lat, blocks, family):
        width, default_rows = blocks[family]
        model = family(0, 1, lat.dim)
        x = np.random.default_rng(4).normal(size=(self.N, lat.dim)).squeeze() * 1.5
        default = smoothed_cdf(model, lat, x)
        assert transform._BLOCK_FLOATS // width == default_rows
        for rows in (1, 7, 4096, self.N + 1):
            monkeypatch.setattr(transform, "_BLOCK_FLOATS", rows * width)
            u = smoothed_cdf(model, lat, x)
            assert np.array_equal(u.view(np.int64), default.view(np.int64)), rows


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
        # the sized rule (10 nodes per half-cell at 0.8 sigma) against twice
        # its nodes
        base = gaussian(0, 1, dim=2)
        lat = hexagonal(0.8)
        xs = np.linspace(-3, 3, 50)
        x_hat = np.column_stack([np.full_like(xs, 0.7), xs])
        a = smoothed_cdf(base, lat, x_hat)
        count = transform._hex_node_count
        assert count(base, lat.step) == 10
        monkeypatch.setattr(transform, "_hex_node_count",
                            lambda model, scale: 2 * count(model, scale))
        b = smoothed_cdf(base, lat, x_hat)
        assert np.max(np.abs(a - b)) < 1e-8

    @pytest.mark.parametrize("model,kinks,step", CUBE_CASES, ids=CUBE_IDS)
    def test_cube_matches_split_reference(self, model, kinks, step):
        x = _cube_rows(model, step)
        u = smoothed_cdf(model, scaled_integer(step), x)
        assert np.max(np.abs(u - _cube_reference(model, kinks, step, x))) <= CUBE_TOL

    @pytest.mark.parametrize("model,kinks,step", CUBE_CONTROLS,
                             ids=[f"{m.family.value}-{step:g}"
                                  for m, _, step in CUBE_CONTROLS])
    def test_cube_reference_check_rejects_unsplit_rule(self, model, kinks, step):
        # negative control: the 32-node rule over the whole cell fails the
        # check above, by at least ten times its tolerance
        x = _cube_rows(model, step)
        err = np.max(np.abs(_cube_rule(model, step, x)
                            - _cube_reference(model, kinks, step, x)))
        assert err > 10 * CUBE_TOL, err

    def test_hex_quadrature_integrates_volume(self):
        # 12 nodes per half-cell: the Gaussian rule at 1.7 sigma; 32: the
        # Laplace and uniform rule.  Each node stands for a mirror pair of
        # chords of length 2h.
        lat = hexagonal(1.7)
        for n in (9, 12, 32):
            _, h, w = transform._hex_nodes(lat.step, n)
            assert (np.sum(4.0 * h * w)
                    == pytest.approx(lat.cell_volume, rel=1e-12)), n

    @pytest.mark.parametrize("model,nodes", [
        (gaussian(0.3, 1.5, dim=2), lambda s: _gaussian_hex_nodes(s, 1.5)),
        (laplace(-0.2, 0.8, dim=2), lambda s: 32)], ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.7, 8.0, 200.0])
    def test_hex_equals_64_chord_rule_bit_for_bit(self, model, nodes, scale):
        # The rule written out at its node count, folded over mirror pairs in
        # smoothed_cdf's order: 9, 9, 11, 22 and, capped, 256 nodes per
        # half-cell for the Gaussian, 32 (64 chords) for the Laplace.
        lat = hexagonal(scale)
        x = stream_rng(12, 0).normal(0.0, 2.0, size=(2000, 2))
        m = min(nodes(scale), 256)
        want = _hex_rule(model, scale, x, m)
        got = smoothed_cdf(model, lat, x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("var", [0.01, 1.0, 4.0])
    def test_hex_sized_rule_matches_256_node_reference(self, var):
        # From s = 1e-3 sigma to 32 sigma the sized rule is no farther from
        # the 256-node rule than twice the 32-node rule is, or than rounding.
        excess = {ratio: _hex_reference_excess(
                      var, ratio, lambda m, s, x: smoothed_cdf(m, hexagonal(s), x))
                  for ratio in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)}
        assert all(np.all(e <= 1.0) for e in excess.values()), excess

    @pytest.mark.parametrize("var,ratio,nodes", [
        (1.0, 4.0, lambda s: 9),
        (0.01, 5.0, lambda s: _gaussian_hex_nodes(s, 1.0))],
        ids=["fixed-9-at-4-sigma", "ignores-sigma-at-var-0.01"])
    def test_hex_reference_check_rejects_unsized_rules(self, var, ratio, nodes):
        # negative controls: a fixed 9-node rule, and a rule that reads s
        # but takes sigma as 1, each fail the reference check above
        excess = _hex_reference_excess(
            var, ratio, lambda m, s, x: _hex_rule(m, s, x, nodes(s)))
        assert np.max(excess) > 1.0

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

    def test_hex_outputs_beyond_last_node_reachable(self):
        # At s = 0.5 the outermost chord node sits 3.4e-4 inside the cell's
        # edge.  An output x_hat1 within that gap of 1 + s/2 has no node in
        # the uniform's support, and was refused as out of support.
        scheme = TransformDpq(uniform(0, 1, dim=2), 8, hexagonal(0.5))
        x = np.tile([1 - 1e-9, 0.5], (100_000, 1))
        out, _ = scheme.run(x, 0)
        assert np.all((out >= 0) & (out <= 1))
        # the edge chord continues the ratio from the last node's side
        inside, beyond = smoothed_cdf(scheme.source, scheme.lattice,
                                      np.array([[1.2496, 1.0], [1.2499, 1.0]]))
        assert abs(inside[1] - beyond[1]) < 1e-4


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
