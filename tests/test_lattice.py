import math

import numpy as np
import pytest

from dpquant.lattice import hexagonal, scaled_integer
from dpquant.rng import stream_rng


class TestNearestPoint:
    def test_simple_rounding(self):
        lat = scaled_integer(1.0, 1)
        idx, pt = lat.nearest_point(np.array([0.6]))
        assert idx[0] == 1 and pt[0] == 1.0

    def test_half_to_even_tie(self):
        lat = scaled_integer(1.0, 1)
        idx, pt = lat.nearest_point(np.array([0.5]))
        assert idx[0] == 0 and pt[0] == 0.0
        idx, pt = lat.nearest_point(np.array([1.5]))
        assert idx[0] == 2

    def test_per_axis(self):
        lat = scaled_integer(0.25, 2)
        _, pt = lat.nearest_point(np.array([0.6, -0.3]))
        assert np.allclose(pt, [0.5, -0.25])

    def test_index_consistency_cube(self):
        lat = scaled_integer(0.3, 3)
        rng = stream_rng(0, 0)
        idx = rng.integers(-50, 50, size=(1000, 3))
        idx2, _ = lat.nearest_point(lat.point(idx))
        assert np.array_equal(idx, idx2)

    def test_index_consistency_hex(self):
        lat = hexagonal(0.7)
        rng = stream_rng(1, 0)
        idx = rng.integers(-50, 50, size=(1000, 2))
        idx2, pt = lat.nearest_point(lat.point(idx))
        assert np.allclose(pt, lat.point(idx))
        assert np.array_equal(idx, idx2)

    def test_hex_nearest_minimizes_distance(self):
        lat = hexagonal(1.0)
        rng = stream_rng(2, 0)
        x = rng.uniform(-3, 3, size=(500, 2))
        _, pt = lat.nearest_point(x)
        # compare against exhaustive search over a generous index window
        ii, jj = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7))
        allpts = lat.point(np.column_stack([ii.ravel(), jj.ravel()]))
        d_best = np.min(np.linalg.norm(x[:, None, :] - allpts[None, :, :], axis=2), axis=1)
        d_got = np.linalg.norm(x - pt, axis=1)
        assert np.allclose(d_got, d_best, atol=1e-9)

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 3.7])
    def test_hex_corners_match_ring_search(self, scale):
        # Exhaustive search over the 5x5 index ring around the parallelogram,
        # candidates in lexicographic order, first minimum wins ties.
        lat = hexagonal(scale)
        g = lat.generator
        rng = stream_rng(8, 0)
        idx = rng.integers(-30, 30, size=(2000, 1, 2))
        lattice_pts = idx @ g.T
        b1, b2 = g[:, 0], g[:, 1]
        t = rng.random((2000, 1, 1))
        offsets = np.array([
            0 * b1, b1 / 2, b2 / 2, (b1 + b2) / 2, (b2 - b1) / 2,  # edge midpoints
            (b1 + b2) / 3, 2 * (b1 + b2) / 3, (2 * b1 - b2) / 3,  # Voronoi vertices
            (2 * b2 - b1) / 3])
        x = np.concatenate([
            rng.uniform(-20 * scale, 20 * scale, size=(20_000, 2)),
            (lattice_pts + offsets).reshape(-1, 2),
            (lattice_pts + t * b1).reshape(-1, 2),  # parallelogram edges
            (lattice_pts + t * b2).reshape(-1, 2),
            (lattice_pts + b1 + t * b2).reshape(-1, 2)])
        ring = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)])
        base = np.floor(x @ np.linalg.inv(g).T).astype(np.int64)
        cand = base[:, None, :] + ring[None, :, :]
        d2 = np.sum((cand @ g.T - x[:, None, :]) ** 2, axis=2)
        want = cand[np.arange(len(x)), np.argmin(d2, axis=1)]
        got, _ = lat.nearest_point(x)
        assert np.array_equal(got, want)


class TestDither:
    def test_cube_moments(self):
        lat = scaled_integer(1.0, 2)
        z = lat.sample_dither(stream_rng(3, 0), 100_000)
        assert np.all(np.abs(z.mean(axis=0)) < 0.005)
        assert np.all(np.abs(z.var(axis=0) - 1 / 12) < 0.003)

    def test_cube_draws_quantize_to_origin(self):
        lat = scaled_integer(0.5, 3)
        z = lat.sample_dither(stream_rng(4, 0), 10_000)
        _, pt = lat.nearest_point(z)
        assert np.all(np.abs(pt) < 1e-12)

    def test_hex_folding_lands_in_cell(self):
        lat = hexagonal(1.3)
        z = lat.sample_dither(stream_rng(5, 0), 100_000)
        _, pt = lat.nearest_point(z)
        assert np.all(np.abs(pt) < 1e-9)

    def test_hex_dither_mean_zero(self):
        lat = hexagonal(1.0)
        z = lat.sample_dither(stream_rng(6, 0), 100_000)
        assert np.all(np.abs(z.mean(axis=0)) < 0.005)


class TestGeometry:
    def test_volumes(self):
        assert scaled_integer(0.5, 3).cell_volume == pytest.approx(0.125)
        assert hexagonal(2.0).cell_volume == pytest.approx(4 * math.sqrt(3) / 2)

    def test_hex_volume_monte_carlo(self):
        s = 1.0
        lat = hexagonal(s)
        # the hexagon's bounding box: corners at x = +-s/2, y = +-s/sqrt(3)
        box = [(-s / 2, s / 2), (-s / math.sqrt(3), s / math.sqrt(3))]
        rng = stream_rng(7, 0)
        n = 1_000_000
        pts = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in box])
        _, nearest = lat.nearest_point(pts)
        inside = np.all(np.abs(nearest) < 1e-12, axis=1)
        box_area = (box[0][1] - box[0][0]) * (box[1][1] - box[1][0])
        est = inside.mean() * box_area
        assert abs(est - lat.cell_volume) / lat.cell_volume < 0.01


class TestValidation:
    def test_bad_step(self):
        with pytest.raises(ValueError):
            scaled_integer(0.0, 1)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            hexagonal(-1.0)
