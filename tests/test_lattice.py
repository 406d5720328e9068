import math

import numpy as np
import pytest

from dpquant.lattice import Lattice, hexagonal, scaled_integer
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

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.3, 0.5, 1.0, 3.7, 123.4])
    def test_hex_corners_match_ring_search(self, scale):
        # Exhaustive search over the 5x5 index ring around the parallelogram,
        # candidates in lexicographic order, first minimum wins ties.  Besides
        # the lattice points, edge midpoints and Voronoi vertices, their 1 and
        # 2 ulp neighbours on each side of each axis, where float distances,
        # not the geometry, decide.
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
        special = (lattice_pts[:500] + offsets).reshape(-1, 2)
        near = []
        for ulps in (1, 2):
            up, down = special, special
            for _ in range(ulps):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            near += [up, down, np.column_stack([up[:, 0], down[:, 1]]),
                     np.column_stack([down[:, 0], up[:, 1]])]
        x = np.concatenate([
            rng.uniform(-20 * scale, 20 * scale, size=(20_000, 2)),
            *near,
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

    @pytest.mark.parametrize("lat", [scaled_integer(0.3, 2), hexagonal(1e-3),
                                     hexagonal(0.3), hexagonal(123.4)],
                             ids=["cube-0.3", "hex-1e-3", "hex-0.3", "hex-123.4"])
    def test_point_is_point_of_index_bit_for_bit(self, lat):
        # The encoder's dither is u - nearest_point(u)[1] and the decoder
        # rebuilds with point(index): they agree only if these bits do.
        rng = stream_rng(9, 0)
        x = np.concatenate([rng.uniform(-40 * lat.step, 40 * lat.step, (20_000, 2)),
                            lat.sample_dither(rng, 20_000)])
        idx, pt = lat.nearest_point(x)
        assert np.array_equal(pt.view(np.int64), lat.point(idx).view(np.int64))

    @pytest.mark.parametrize("lat", [scaled_integer(1.0), hexagonal(1.0)],
                             ids=["cube", "hex"])
    def test_index_beyond_exact_float_range_refused(self, lat):
        # 1e300 and 1e19 were cast to index -2**63 with only a RuntimeWarning
        edge = 2.0 ** 51 * lat.step
        below = np.full(lat.dim, np.nextafter(edge, 0))
        _, pt = lat.nearest_point(below)
        assert np.max(np.abs(pt - below)) <= lat.step
        for far in (1e300, 1e19, edge, -edge):
            x = np.zeros(lat.dim)
            x[0] = far
            with pytest.raises(ValueError, match="2\\*\\*51"):
                lat.nearest_point(x)

    @pytest.mark.parametrize("lat,shape", [
        (scaled_integer(0.5, 3), (4, 2)),
        (scaled_integer(0.5, 3), (2,)),
        (hexagonal(1.0), (4, 1)),
        (hexagonal(1.0), (4, 3)),
        (scaled_integer(0.5, 2), (2, 3, 2)),
        (hexagonal(1.0), (2, 3, 2)),
    ], ids=["cube3-rows-2", "cube3-vector-2", "hex-rows-1", "hex-rows-3",
            "cube2-3d", "hex-3d"])
    def test_row_width_must_be_dim(self, lat, shape):
        # the cube returned 2-wide indices; the hexagon raised IndexError on
        # 1-wide rows and a broadcast error on 3-wide ones.  A 3-D batch the
        # cube quantized elementwise, and the hexagon hit a broadcast error
        with pytest.raises(ValueError, match="dim"):
            lat.nearest_point(np.zeros(shape))


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

    @pytest.mark.parametrize("build", [
        lambda: scaled_integer(math.nan),
        lambda: scaled_integer(math.inf, 2),
        lambda: hexagonal(math.nan),
        lambda: hexagonal(math.inf),
    ], ids=["step-nan", "step-inf", "scale-nan", "scale-inf"])
    def test_non_finite_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_zero_dimensions_refused(self):
        # a 0 x 0 generator has det 1, so this had cell volume 1
        with pytest.raises(ValueError, match="dim"):
            scaled_integer(0.1, 0)

    def test_unknown_kind_refused(self):
        # every kind but "scaled_integer" went down the hexagonal paths
        with pytest.raises(ValueError, match="kind"):
            Lattice("cube", 0.5, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_hexagonal_must_be_2d(self, k):
        with pytest.raises(ValueError, match="2-D"):
            Lattice("hexagonal", 1.0, k)

    @pytest.mark.parametrize("args", [
        ("scaled_integer", np.diag([0.1, 0.4])),
        ("scaled_integer", np.diag([0.1, 0.4]), 2),
    ], ids=["no-dim", "dim-2"])
    def test_matrix_step_refused(self, args):
        # a cube generator diag(0.1, 0.4) encoded with 0.1 on both axes but
        # decoded with the whole matrix
        with pytest.raises((TypeError, ValueError)):
            Lattice(*args)

    def test_integer_step_is_float(self):
        lat, ref = scaled_integer(1), scaled_integer(1.0)
        assert type(lat.step) is float and lat.step == 1.0 and lat == ref
        assert lat.point([3]).dtype == ref.point([3]).dtype == np.float64
        assert lat.nearest_point([2.2])[1].dtype == np.float64
