import math

import numpy as np
import pytest

from dpquant.coding import (arithmetic_decode, arithmetic_encode,
                            codelength_nats_per_symbol)
from dpquant.ecdq import (N_DITHERS, _index_counts, ecdq_decode, ecdq_encode,
                          ecdq_rate_analytic, ecdq_rate_empirical)
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, ks_statistic, laplace, plugin_entropy, uniform
from dpquant.rng import stream_rng

# frozen: h(U(0,1) + U(-1/2,1/2)) = entropy of the width-2 triangle = 1/2,
# from adaptive quadrature of -f ln f
TRIANGLE_ENTROPY = 0.5


class TestEncodeDecode:
    def test_zero_dither(self):
        lat = scaled_integer(1.0, 1)
        out = ecdq_encode(lat, np.array([0.0]), np.array([0.3]))
        assert out.x_hat[0] == 0.0

    def test_hand_example(self):
        lat = scaled_integer(1.0, 1)
        out = ecdq_encode(lat, np.array([0.3]), np.array([0.3]))
        assert out.indices[0] == 1
        assert out.x_hat[0] == pytest.approx(0.7)

    def test_roundtrip_exact(self):
        lat = scaled_integer(0.25, 3)
        rng = stream_rng(0, 0)
        x = rng.normal(size=(10_000, 3))
        z = lat.sample_dither(stream_rng(0, 1))
        out = ecdq_encode(lat, z, x)
        x_hat = ecdq_decode(lat, z, out.indices)
        assert np.array_equal(x_hat, out.x_hat)

    def test_mismatched_dither_shifts(self):
        lat = scaled_integer(1.0, 1)
        out = ecdq_encode(lat, np.array([0.2]), np.array([0.3]))
        other = ecdq_decode(lat, np.array([0.4]), out.indices)
        assert other[0] == pytest.approx(out.x_hat[0] - 0.2)

    def test_zero_index_returns_negated_dither(self):
        lat = scaled_integer(1.0, 2)
        z = np.array([0.1, -0.2])
        assert np.allclose(ecdq_decode(lat, z, np.array([0, 0])), -z)

    def test_dither_outside_cell_refused(self):
        lat = scaled_integer(1.0, 1)
        with pytest.raises(ValueError):
            ecdq_encode(lat, np.array([0.7]), np.array([0.0]))


class TestErrorStatistics:
    def _errors(self, step=1.0, n=100_000, seed=0):
        lat = scaled_integer(step, 1)
        x = gaussian(0, 1).sample(seed, n).values
        z = lat.sample_dither(stream_rng(seed, 1), n)  # fresh dither per sample
        _, pt = lat.nearest_point(x + z)
        x_hat = pt - z
        return x.ravel(), (x_hat - x).ravel()

    def test_mse_is_step_sq_over_12(self):
        x, err = self._errors(step=1.0)
        assert np.mean(err ** 2) == pytest.approx(1 / 12, abs=0.003)

    def test_error_uniform(self):
        for step in (0.5, 1.0, 2.0):
            x, err = self._errors(step=step, seed=2)
            d, ok = ks_statistic(err, uniform(-step / 2, step / 2))
            assert ok, f"step={step}: D={d}"

    def test_error_independent_of_source(self):
        x, err = self._errors(seed=3)
        corr = np.corrcoef(x, err)[0, 1]
        assert abs(corr) < 0.01


class TestRate:
    def test_coarse_cell_band(self):
        lat = scaled_integer(4.0, 1)
        rate, _ = ecdq_rate_empirical(lat, gaussian(0, 1), 20_000, seed=0)
        assert 0 < rate < 1

    def test_huge_cell_near_zero(self):
        lat = scaled_integer(100.0, 1)
        # The true rate is 0.018 nats (ecdq_rate_analytic): about 8% of
        # dithers put a cell boundary within 4 sigma of the mean, so a
        # 16-dither estimate is 0 or a few hundredths.
        rate, _ = ecdq_rate_empirical(lat, gaussian(0, 1), 20_000, seed=0)
        assert rate < 0.1

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0])
    def test_empirical_matches_analytic(self, step):
        lat = scaled_integer(step, 1)
        analytic = ecdq_rate_analytic(gaussian(0, 1), lat)
        empirical, _ = ecdq_rate_empirical(lat, gaussian(0, 1), 100_000, seed=1)
        assert abs(empirical - analytic) < 0.02

    def test_analytic_high_rate_value(self):
        lat = scaled_integer(0.1, 1)
        got = ecdq_rate_analytic(gaussian(0, 1), lat)
        # h(X + N) -> h(X) at high rate
        approx = 0.5 * math.log(2 * math.pi * math.e) - math.log(0.1)
        assert abs(got - approx) < 1e-3

    def test_analytic_uniform_triangle(self):
        got = ecdq_rate_analytic(uniform(0, 1), scaled_integer(1.0, 1))
        assert got > 0
        assert got == pytest.approx(TRIANGLE_ENTROPY - math.log(1.0), abs=1e-3)

    def test_monotone_in_step(self):
        rates = [ecdq_rate_analytic(gaussian(0, 1), scaled_integer(s, 1))
                 for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_shared_seed_dither_contract(self):
        lat = scaled_integer(0.5, 2)
        a = lat.sample_dither(stream_rng(99, 3, 0), 100)
        b = lat.sample_dither(stream_rng(99, 3, 0), 100)
        assert np.array_equal(a, b)


def _rowwise_counts(idx):
    return np.unique(idx, axis=0, return_counts=True)[1]


def _rate_rowwise(lat, model, n, seed=0):
    """ecdq_rate_empirical with the histogram counted by a row-wise np.unique."""
    k = lat.dim
    rates = []
    for j in range(N_DITHERS):
        z = lat.sample_dither(stream_rng(seed, 1, j))
        x = model.sample(seed, n, stream=j).values
        idx = ecdq_encode(lat, z, x).indices.reshape(n, k)
        rates.append(plugin_entropy(_rowwise_counts(idx)) / k)
    rates = np.asarray(rates)
    return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(N_DITHERS))


class TestIndexHistogram:
    @pytest.mark.parametrize("lat", [scaled_integer(0.3, 1), scaled_integer(0.7, 3),
                                     hexagonal(0.5)], ids=["cube1", "cube3", "hex"])
    def test_counts_match_rowwise_unique(self, lat):
        # Gaussian points centred at 0: negative indices in every column,
        # rows in no particular order
        x = np.random.default_rng(5).normal(size=(5000, lat.dim)) * 3
        idx, _ = lat.nearest_point(x)
        assert (idx < 0).any(axis=0).all()
        assert np.array_equal(_index_counts(idx), _rowwise_counts(idx))

    def test_unsorted_small_input(self):
        idx = np.array([[2, -1], [-3, 4], [2, -1], [0, 0], [-3, -5], [2, -2]])
        assert np.array_equal(_index_counts(idx), _rowwise_counts(idx))
        assert list(_index_counts(idx)) == [1, 1, 1, 1, 2]

    def test_single_repeated_row(self):
        idx = np.tile([-7, 3], (10, 1))
        assert list(_index_counts(idx)) == [10]

    def test_span_too_wide_for_int64_keys(self):
        # 2**41 * 2**41 keys do not fit an int64: refused, no array is built
        idx = np.array([[0, 0], [2**40, -(2**40)]])
        with pytest.raises(ValueError):
            _index_counts(idx)

    @pytest.mark.parametrize("lat,model", [
        (scaled_integer(0.1, 1), gaussian(0, 1)),
        (scaled_integer(0.1, 1), laplace(0, 1)),
        (hexagonal(0.5), gaussian(0, 1, 2)),
    ], ids=["cube-gaussian", "cube-laplace", "hex-gaussian"])
    def test_rate_bit_identical_to_rowwise(self, lat, model):
        assert ecdq_rate_empirical(lat, model, 10_000, seed=3) == \
            _rate_rowwise(lat, model, 10_000, seed=3)


class TestArithmeticCoder:
    def test_roundtrip(self):
        rng = stream_rng(0, 0)
        syms = rng.integers(0, 7, size=2000).tolist()
        bits = arithmetic_encode(syms, 7)
        assert arithmetic_decode(bits, len(syms), 7) == syms

    def test_codelength_validates_entropy_estimate(self):
        # indices of an ECDQ run: codelength within 0.05 nats of the plug-in
        # entropy estimate
        from dpquant.prob import plugin_entropy
        lat = scaled_integer(1.0, 1)
        x = gaussian(0, 1).sample(7, 20_000).values
        z = lat.sample_dither(stream_rng(7, 1))
        idx = ecdq_encode(lat, z, x).indices.ravel()
        shifted = (idx - idx.min()).tolist()
        _, counts = np.unique(idx, return_counts=True)
        h = plugin_entropy(counts)
        rate = codelength_nats_per_symbol(shifted, max(shifted) + 1)
        assert abs(rate - h) < 0.05
