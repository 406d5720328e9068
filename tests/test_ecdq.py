import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        z = np.array([0.0])
        idx = ecdq_encode(lat, z, np.array([0.3]))
        assert ecdq_decode(lat, z, idx)[0] == 0.0

    def test_hand_example(self):
        lat = scaled_integer(1.0, 1)
        z = np.array([0.3])
        idx = ecdq_encode(lat, z, np.array([0.3]))
        assert idx[0] == 1
        assert ecdq_decode(lat, z, idx)[0] == pytest.approx(0.7)

    def test_roundtrip_exact(self):
        # decoding the indices gives the nearest point of x + z, less z
        lat = scaled_integer(0.25, 3)
        rng = stream_rng(0, 0)
        x = rng.normal(size=(10_000, 3))
        z = lat.sample_dither(stream_rng(0, 1), 1)
        x_hat = ecdq_decode(lat, z, ecdq_encode(lat, z, x))
        assert np.array_equal(x_hat, lat.nearest_point(x + z)[1] - z)

    def test_mismatched_dither_shifts(self):
        lat = scaled_integer(1.0, 1)
        z = np.array([0.2])
        idx = ecdq_encode(lat, z, np.array([0.3]))
        other = ecdq_decode(lat, np.array([0.4]), idx)
        assert other[0] == pytest.approx(ecdq_decode(lat, z, idx)[0] - 0.2)

    def test_zero_index_returns_negated_dither(self):
        lat = scaled_integer(1.0, 2)
        z = np.array([0.1, -0.2])
        assert np.allclose(ecdq_decode(lat, z, np.array([0, 0])), -z)

    def test_dither_outside_cell_refused(self):
        lat = scaled_integer(1.0, 1)
        with pytest.raises(ValueError):
            ecdq_encode(lat, np.array([0.7]), np.array([0.0]))

    @pytest.mark.parametrize("lat", [scaled_integer(1e-12), hexagonal(1e-12)],
                             ids=["cube", "hex"])
    def test_dither_outside_tiny_cell_refused(self, lat):
        # a check on |point| > 1e-9 let a dither five cells out through
        dither = np.full(lat.dim, 5e-12)
        with pytest.raises(ValueError, match="basic cell"):
            ecdq_encode(lat, dither, np.zeros(lat.dim))

    @pytest.mark.parametrize("lat", [scaled_integer(0.5, 2), hexagonal(0.5)],
                             ids=["cube", "hex"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_refused(self, lat, bad):
        # NaN and inf were cast to index -2**63 with only a RuntimeWarning
        x = np.array([[0.3, -0.2], [bad, 0.1]])
        with pytest.raises(ValueError, match="NaN or inf"):
            ecdq_encode(lat, np.zeros(2), x)

    @settings(derandomize=True, deadline=None)
    @given(st.sampled_from(["cube:1", "cube:2", "cube:3", "hex"]),
           st.floats(-3.0, 3.0), st.integers(0, 2**32))
    def test_error_lands_in_basic_cell(self, kind, log_step, seed):
        # encoder and decoder each rebuild the dither from the seed alone;
        # x - x_hat is then the nearest-point error, inside the basic cell
        step = 10.0 ** log_step
        lat = (hexagonal(step) if kind == "hex"
               else scaled_integer(step, int(kind[-1])))
        x = stream_rng(seed, 0).normal(size=(1000, lat.dim))
        idx = ecdq_encode(lat, lat.sample_dither(stream_rng(seed, 1), 1000), x)
        x_hat = ecdq_decode(lat, lat.sample_dither(stream_rng(seed, 1), 1000), idx)
        assert np.all(lat.nearest_point(x - x_hat)[0] == 0)


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
            d, ok = ks_statistic(uniform(-step / 2, step / 2).cdf(err))
            assert ok, f"step={step}: D={d}"

    def test_error_independent_of_source(self):
        x, err = self._errors(seed=3)
        corr = np.corrcoef(x, err)[0, 1]
        assert abs(corr) < 0.01


class TestRate:
    def test_coarse_cell_band(self):
        lat = scaled_integer(4.0, 1)
        [(rate, _)] = ecdq_rate_empirical([lat], gaussian(0, 1), 20_000, seed=0)
        assert 0 < rate < 1

    def test_huge_cell_near_zero(self):
        lat = scaled_integer(100.0, 1)
        # The true rate is 0.018 nats (ecdq_rate_analytic): about 8% of
        # dithers put a cell boundary within 4 sigma of the mean, so a
        # 16-dither estimate is 0 or a few hundredths.
        [(rate, _)] = ecdq_rate_empirical([lat], gaussian(0, 1), 20_000, seed=0)
        assert rate < 0.1

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0])
    def test_empirical_matches_analytic(self, step):
        lat = scaled_integer(step, 1)
        analytic = ecdq_rate_analytic(gaussian(0, 1), lat)
        [(empirical, _)] = ecdq_rate_empirical([lat], gaussian(0, 1), 100_000,
                                               seed=1)
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

    @pytest.mark.parametrize("call,match", [
        (lambda: ecdq_rate_empirical([scaled_integer(1.0, 1)], gaussian(0, 1),
                                     9_999), "n >= 1e4"),
        (lambda: ecdq_rate_analytic(gaussian(0, 1, dim=2), hexagonal(1.0)),
         "scalar cubic lattice"),
    ], ids=["empirical-n-below-1e4", "analytic-hexagon"])
    def test_refusals(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

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
        z = lat.sample_dither(stream_rng(seed, 1, j), 1)
        x = model.sample(seed, n, stream=j).values
        idx = ecdq_encode(lat, z, x).reshape(n, k)
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
        assert np.array_equal(_index_counts(idx.copy()), _rowwise_counts(idx))

    def test_unsorted_small_input(self):
        idx = np.array([[2, -1], [-3, 4], [2, -1], [0, 0], [-3, -5], [2, -2]])
        assert np.array_equal(_index_counts(idx.copy()), _rowwise_counts(idx))
        assert list(_index_counts(idx.copy())) == [1, 1, 1, 1, 2]

    def test_one_column_counted_in_place(self):
        # the keys are idx's own column, shifted to start at 0
        n = 200_000
        idx = np.rint(stream_rng(17, 0).standard_normal((n, 1)) * 10).astype(np.int64)
        want = _rowwise_counts(idx)
        shifted = idx - idx.min()
        tracemalloc.start()
        try:
            got = _index_counts(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert np.array_equal(idx, shifted)
        assert peak < 0.25 * 8 * n

    def test_two_columns_counted_in_place(self):
        # the keys are formed in the strided first column and moved into the
        # index's first n slots, so np.bincount reads them without a copy:
        # counting the strided column allocated 0.50x here
        n, k = 200_000, 2
        x = stream_rng(18, 0).standard_normal((n, k)) * 3
        idx = hexagonal(0.5).nearest_index(x)
        want = _rowwise_counts(idx)
        tracemalloc.start()
        try:
            got = _index_counts(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 0.05 * 8 * n * k

    def test_two_column_rate_pass_traced_peak(self):
        # the hexagon's keys are formed in the index's first column; building
        # them from temporaries (keys * span, col - m, their sum) read 3.00x
        n, k = 200_000, 2
        tracemalloc.start()
        try:
            ecdq_rate_empirical([hexagonal(0.5)], gaussian(0, 1, k), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 8 * n * k

    def test_single_repeated_row(self):
        idx = np.tile([-7, 3], (10, 1))
        assert list(_index_counts(idx)) == [10]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("spans", [
        {1: (999,), 2: (27, 37), 3: (3, 9, 37)},
        {1: (1000,), 2: (10, 100), 3: (10, 10, 10)},
        {1: (1001,), 2: (7, 143), 3: (7, 11, 13)},
    ], ids=["span-n-1", "span-n", "span-n+1"])
    def test_counts_on_both_sides_of_bincount(self, k, spans, monkeypatch):
        # 1000 rows whose index spans multiply to n - 1, n and n + 1: the
        # first two are counted by bincount, the third by unique, so no
        # count array is longer than the keys
        spans = np.array(spans[k])
        rng = stream_rng(6, 0)
        lo = -(spans // 2) - 3
        idx = lo + rng.integers(0, spans, size=(1000, k))
        idx[:2] = [lo, lo + spans - 1]  # both ends of every column
        assert (idx < 0).any(axis=0).all()
        bins, bincount = [], np.bincount
        monkeypatch.setattr(np, "bincount", lambda keys: bins.append(bincount(keys)) or bins[-1])
        assert np.array_equal(_index_counts(idx.copy()), _rowwise_counts(idx))
        assert [len(b) for b in bins] == ([] if spans.prod() > 1000 else [spans.prod()])

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
        assert ecdq_rate_empirical([lat], model, 10_000, seed=3) == \
            [_rate_rowwise(lat, model, 10_000, seed=3)]


class TestMultiLattice:
    """One estimator pass over several lattices: each result is the
    single-lattice call's, bit for bit."""

    @pytest.mark.parametrize("lats,model", [
        ([scaled_integer(s, 1) for s in (0.1, 1.0, 4.0)], gaussian(0, 1)),
        ([scaled_integer(s, 1) for s in (0.1, 1.0, 4.0)], laplace(0, 1)),
        ([hexagonal(0.5), hexagonal(1.0)], gaussian(0, 1, 2)),
    ], ids=["cube-gaussian", "cube-laplace", "hex-gaussian"])
    def test_each_lattice_matches_its_own_call(self, lats, model):
        joint = ecdq_rate_empirical(lats, model, 10_000, seed=3)
        alone = [ecdq_rate_empirical([lat], model, 10_000, seed=3)[0]
                 for lat in lats]
        assert joint == alone
        assert len({rate for rate, _ in joint}) == len(lats)

    @pytest.mark.parametrize("lats", [[scaled_integer(1.0, 1), hexagonal(1.0)],
                                      [scaled_integer(1.0, 2)]],
                             ids=["one-of-two", "cube-2d"])
    def test_lattice_of_another_dimension_refused(self, lats):
        with pytest.raises(ValueError, match="dimension"):
            ecdq_rate_empirical(lats, gaussian(0, 1), 10_000)
