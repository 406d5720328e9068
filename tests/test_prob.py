import concurrent.futures
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

import dpquant.prob
from dpquant.prob import (EPS, Family, SourceModel, gaussian, ks_buckets,
                          ks_counts, ks_statistic, laplace, plugin_entropy,
                          uniform)
from dpquant.rng import stream_rng

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


# The standard laws' inverse cdfs as plain expressions that allocate their
# result; each `_LAWS` icdf overwrites its argument and must keep these bits.
_PLAIN_ICDF = {
    Family.GAUSSIAN: special.ndtri,
    Family.UNIFORM: lambda u: u - 0.5,
    Family.LAPLACE: lambda u: np.where(u < 0.5, np.log(2.0 * u),
                                       -np.log1p(1.0 - 2.0 * u)),
}
_FAMILIES = pytest.mark.parametrize(
    "model", [gaussian(0.3, 2.5), uniform(-1.5, 0.7), laplace(-0.2, 1.7)],
    ids=["gaussian", "uniform", "laplace"])


def _plain_icdf(model, u):
    _, c, s = model._place()
    return c + s * _PLAIN_ICDF[model.family](np.clip(u, EPS, 1.0 - EPS))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceScaling:
    # cdf forms (x - c) / s, and icdf c + s * F^-1(u), in the one array each
    # call allocates; both must keep the bits of the plain expressions
    @_FAMILIES
    def test_bit_identical_to_expressions(self, model):
        law, c, s = model._place()
        x = np.concatenate([np.linspace(-30, 30, 4001),
                            model.sample(0, 1000).values.ravel()])
        assert np.array_equal(model.cdf(x), law.cdf((x - c) / s))
        assert model.cdf(0.7) == law.cdf((0.7 - c) / s)
        assert np.array_equal(model.cdf([1, 2]),
                              law.cdf((np.array([1.0, 2.0]) - c) / s))
        # at, inside and beyond both clamp edges, and at 1/2 exactly; more
        # rows than one block of the Laplace icdf, also as a strided view
        u = np.concatenate([
            [0.0, 1e-300, 1e-13, EPS, np.nextafter(EPS, 1.0), 1e-9,
             np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
             1 - 1e-9, np.nextafter(1 - EPS, 0.0), 1 - EPS, 1 - 1e-13, 1.0],
            np.random.default_rng(1).random(20_000)])
        assert np.array_equal(_bits(model.icdf(u)), _bits(_plain_icdf(model, u)))
        grid = u[:19_998].reshape(-1, 2).T[:, ::3]
        assert np.array_equal(_bits(model.icdf(grid)),
                              _bits(_plain_icdf(model, grid)))
        for v in (0.0, EPS, 0.25, 0.5, 1 - EPS, 1.0):
            got = model.icdf(v)
            assert isinstance(got, float)
            assert _bits(got) == _bits(_plain_icdf(model, v))
        assert isinstance(model.cdf(0.7), float)

    @_FAMILIES
    @pytest.mark.parametrize("dim", [1, 3])
    def test_sample_inverts_the_stream_bit_for_bit(self, model, dim):
        model = SourceModel(model.family, model.params, dim)
        u = stream_rng(7, 5).random((5000, dim))
        got = model.sample(7, 5000, stream=5).values
        assert got.shape == (5000, dim)
        assert np.array_equal(_bits(got), _bits(_plain_icdf(model, u)))

    @_FAMILIES
    def test_caller_u_unchanged(self, model):
        u = np.concatenate([[0.0, 0.5, 1.0],
                            np.random.default_rng(2).random(19_998)])
        before = u.copy()
        model.icdf(u)
        model.icdf(u.reshape(-1, 3).T)
        assert np.array_equal(_bits(u), _bits(before))

    # sample inverts its own draw in place, and icdf its clamped copy of u:
    # one array of 8nk bytes each, and on Laplace blocks of its two branches.
    # With the copies of the plain expressions, sample read 3.00 / 5.13 /
    # 3.00 and icdf 2.00 / 4.13 / 2.00 (Gaussian / Laplace / uniform).
    @_FAMILIES
    def test_traced_peak_of_sample_and_icdf(self, model):
        n = 200_000
        u = np.random.default_rng(3).random((n, 1))
        assert _traced_peak(lambda: model.sample(0, n)) <= 1.25 * 8 * n
        assert _traced_peak(lambda: model.icdf(u)) <= 1.25 * 8 * n


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

    def test_overflowing_sample_refused(self):
        # scale 1e308 times a Laplace quantile beyond +-1.8 overflows to inf;
        # numpy's overflow warning would otherwise fail the test first
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="non-finite"):
            laplace(0, 1e308).sample(0, 1000)


class TestKs:
    def test_matching_model_passes_usually(self):
        m = gaussian(0, 1)
        passes = sum(ks_statistic(m.cdf(m.sample(seed, 100_000).values))[1]
                     for seed in range(20))
        assert passes >= 18  # ~95% pass rate at the 5% level

    def test_shifted_model_fails(self):
        s = gaussian(0, 1).sample(seed=3, n=10_000)
        d, ok = ks_statistic(gaussian(3, 1).cdf(s.values))
        assert not ok
        assert d > 0.5  # sup |Phi(x) - Phi(x-3)| ~ 0.87

    # D_n as scipy computes it, the sup over both one-sided distances of the
    # sorted sample; rounding to one decimal makes ties
    @pytest.mark.parametrize("n", [20, 10_000])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_matches_scipy_kstest(self, n, tied):
        model = laplace(0.5, 2)
        x = model.sample(3, n).values.ravel()
        if tied:
            x = np.round(x, 1)
            assert np.unique(x).size < n
        d, _ = ks_statistic(model.cdf(x))
        assert d == pytest.approx(stats.kstest(x, model.cdf).statistic, abs=1e-15)

    def test_small_n_refused(self):
        s = gaussian(0, 1).sample(seed=0, n=10)
        with pytest.raises(ValueError):
            ks_statistic(gaussian(0, 1).cdf(s.values))

    def test_chunked_grid_matches_whole_grid(self):
        # more rows than one chunk of the grid, and a partial last chunk
        model = gaussian(0, 1)
        x = model.sample(4, 150_001).values.ravel()
        u = np.sort(model.cdf(x))
        n = u.size
        grid = np.arange(n + 1) / n
        whole = max(np.max(grid[1:] - u), np.max(u - grid[:-1]))
        assert ks_statistic(model.cdf(x))[0] == whole

    @pytest.mark.parametrize("u", [[-0.1] + [0.5] * 30, [0.5] * 30 + [1.5],
                                   [0.5] * 30 + [math.nan]],
                             ids=["below", "above", "nan"])
    def test_outside_unit_interval_refused(self, u):
        # a raw sample passed in place of its cdf values is refused
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ks_statistic(u)

    @staticmethod
    def _pit(n):
        model = gaussian(0, 1)
        return np.sort(model.cdf(model.sample(5, n).values.ravel()))

    def test_sorted_and_shuffled_give_the_same_bits(self):
        # the order of u moves no bit of D_n; more rows than one chunk, and
        # a partial last chunk
        u = self._pit(150_001)
        shuffled = np.random.default_rng(0).permutation(u)
        (d, ok), (d_shuffled, ok_shuffled) = ks_statistic(u), ks_statistic(shuffled)
        assert d.hex() == d_shuffled.hex() and ok == ok_shuffled

    def test_descending_gives_the_sorted_result(self):
        u = self._pit(150_001)
        descending = u[::-1].copy()
        assert ks_statistic(descending) == ks_statistic(u)
        assert np.array_equal(descending, u[::-1])  # the caller's u is kept

    def test_ascending_but_for_a_final_nan_refused(self):
        u = np.linspace(0.0, 1.0, 100_000)
        u[-1] = math.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ks_statistic(u)

    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["ascending", "shuffled"])
    def test_ascending_input_not_copied(self, shuffled):
        # sorting a copy of u would allocate 8n bytes, in any order
        u = self._pit(1_000_000)
        if shuffled:
            u = np.random.default_rng(0).permutation(u)
        tracemalloc.start()
        try:
            ks_statistic(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * u.size


class TestKsBuckets:
    """From u's bucket counts, ks_statistic extracts a few candidate buckets'
    values instead of sorting u; D_n must keep the bits of a scan of every
    gap of sorted u, with counts summed over u's parts or formed whole."""

    @staticmethod
    def _counts(u, cuts):
        # summed over uneven parts, as evaluate's batches count theirs
        buckets = ks_buckets(u.size)
        return sum(ks_counts(part, buckets) for part in np.split(u, cuts))

    @staticmethod
    def _both(u, counts, map=map):
        v = np.sort(u)
        n = v.size
        grid = np.arange(n + 1) / n
        scan = float(max(np.max(grid[1:] - v), np.max(v - grid[:-1])))
        for d, ok in ks_statistic(u, counts, map), ks_statistic(u):
            assert d.hex() == scan.hex()
            assert ok == (scan < 1.36 / math.sqrt(n))
        return scan

    # ties, values on the bucket edges b/B and next to them, 0, 1, subnormals
    # and rows of one value, mixed into uniform or skewed draws
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(n=st.integers(20, 30_000), seed=st.integers(0, 2 ** 32 - 1),
           power=st.sampled_from([1.0, 0.05, 12.0]),
           special=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           decimals=st.sampled_from([None, 1, 3]), constant=st.booleans(),
           parts=st.integers(1, 7))
    def test_matches_the_scan_bit_for_bit(self, n, seed, power, special,
                                          decimals, constant, parts):
        rng = np.random.default_rng(seed)
        buckets = ks_buckets(n)
        edges = rng.integers(0, buckets + 1, 8) / buckets
        pool = np.concatenate([
            [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1 - 2 ** -53],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        u = rng.random(n) ** power
        if decimals is not None:
            tied = rng.random(n) < 0.5
            u[tied] = np.round(u[tied], decimals)
        swap = rng.random(n) < special
        u[swap] = rng.choice(pool, int(swap.sum()))
        if constant:
            u[:] = rng.choice(pool)
        cuts = np.sort(rng.integers(0, n + 1, parts - 1))
        self._both(u, self._counts(u, cuts))

    @pytest.mark.parametrize("n", [123_457, 2_000_000])
    @pytest.mark.parametrize("power", [1.0, 0.2], ids=["uniform", "skewed"])
    def test_matches_the_scan_at_large_n_in_a_pool(self, n, power):
        u = gaussian(0, 1).cdf(gaussian(0, 1).sample(6, n).values.ravel())
        u **= power
        cuts = np.cumsum([n // 3, n // 7])
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
            self._both(u, self._counts(u, cuts), ex.map)

    def test_one_sided_candidates_miss_a_lower_gap(self, monkeypatch):
        # negative control: every value in [1/2, 1), so D_n = 1/2 is the
        # lower gap u_(0) - 0; a candidate rule that bounds only the upper
        # gaps keeps the top buckets alone and misses it
        n = 10_000
        u = 0.5 + np.arange(n) / (2 * n)
        counts = self._counts(u, [])
        assert self._both(u, counts) == 0.5

        def upper_only(counts, n):
            above = np.cumsum(counts) / n
            edges = np.arange(counts.size + 1) / counts.size
            full = counts > 0
            return full & (above - edges[:-1]
                           >= np.max((above - edges[1:])[full]))

        monkeypatch.setattr(dpquant.prob, "_ks_candidates", upper_only)
        assert ks_statistic(u, counts)[0] < 0.01

    def test_buckets_a_power_of_two_near_n_over_64(self):
        assert [ks_buckets(n) for n in (20, 64, 10_000, 200_000, 2_000_000)] \
            == [1, 2, 256, 4096, 32768]

    @pytest.mark.parametrize("change", ["length", "total"])
    def test_counts_of_another_length_or_total_refused(self, change):
        u = np.linspace(0.0, 1.0, 10_000)
        counts = ks_counts(u, ks_buckets(u.size))
        if change == "length":
            counts = ks_counts(u, 2 * counts.size)
        else:
            counts[0] += 1
        with pytest.raises(ValueError, match="ks_counts"):
            ks_statistic(u, counts)

    @pytest.mark.parametrize("u", [[-0.1] + [0.5] * 30, [0.5] * 30 + [1.5],
                                   [0.5] * 30 + [math.nan]],
                             ids=["below", "above", "nan"])
    def test_outside_unit_interval_refused_before_the_cast(self, u):
        # a NaN or out-of-range value cast to int would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                ks_counts(u, 16)

    @pytest.mark.parametrize("buckets", [0, 3, 12])
    def test_buckets_not_a_power_of_two_refused(self, buckets):
        with pytest.raises(ValueError, match="power of two"):
            ks_counts([0.5] * 30, buckets)


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
        x = np.linspace(twin.ppf(1e-6) - 1, twin.ppf(1 - 1e-6) + 1, 1001)
        assert np.max(np.abs(model.cdf(x) - twin.cdf(x))) < 1e-12
        assert np.max(np.abs(model.pdf(x) - twin.pdf(x))) < 1e-12
        # down to the icdf's clamp EPS = 1e-12, where the tails are deepest
        u = np.concatenate([[1e-12, 1e-9], np.linspace(1e-6, 1 - 1e-6, 1001)])
        assert np.max(np.abs(model.icdf(u) - twin.ppf(u))) < 1e-12
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

    # the table's rows index params[0] and params[1]: a short tuple raised
    # IndexError and a long one was accepted with its extra entries ignored
    @pytest.mark.parametrize("params", [(), (0.0,), (0.0, 1.0, 2.0)],
                             ids=["none", "one", "three"])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_parameter_count_refused(self, family, params):
        with pytest.raises(ValueError, match="needs 2 parameters"):
            SourceModel(family, params)

    def test_non_integer_dim_refused(self):
        # gaussian(dim=2.0) was built, and `sample` then raised TypeError
        with pytest.raises(TypeError):
            gaussian(dim=2.0)
        model = gaussian(dim=np.int64(2))
        assert type(model.dim) is int and model == gaussian(dim=2)

    def test_dim_below_one_refused(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            gaussian(dim=0)

    def test_family_must_be_a_family(self):
        # a family name raised KeyError from the `_LAWS` lookup
        with pytest.raises(TypeError, match="Family"):
            SourceModel("gaussian", (0.0, 1.0))
