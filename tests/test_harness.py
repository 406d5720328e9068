import dataclasses
import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

import dpquant.ecdq
import dpquant.prob
import dpquant.schemes
from dpquant import harness
from dpquant.bounds import awgn_oracle_point
from dpquant.harness import (MIN_N, N_BATCHES, EvalReport, compare_to_bound,
                             evaluate, rd_sweep)
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, laplace, plugin_entropy
from dpquant.rng import stream_rng
from dpquant.schemes import (AwgnOracle, ResampleDpq, SimpleDpq, TransformDpq,
                             build)


@dataclasses.dataclass(frozen=True)
class _Recorded:
    """Stub scheme: outputs shape(x) at rate 0 and keeps each block's output."""

    source: object
    seed: int
    shape: object
    outputs: dict = dataclasses.field(default_factory=dict)

    def run(self, x, block):
        self.outputs[block] = self.shape(x)
        return self.outputs[block], None

    def rate(self, payloads):
        return 0.0, 0.0


@pytest.fixture(scope="module")
def transform_report():
    sc = TransformDpq(source=gaussian(0, 1), seed=0,
                      lattice=scaled_integer(0.5, 1))
    return evaluate(sc, 20_000, seed=7)


class TestEvaluate:
    def test_determinism_except_wall_time(self, transform_report):
        sc = TransformDpq(source=gaussian(0, 1), seed=123,
                          lattice=scaled_integer(0.5, 1))
        again = evaluate(sc, 20_000, seed=7)
        a = dataclasses.asdict(transform_report)
        b = dataclasses.asdict(again)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_parallel_matches_serial(self):
        sc = ResampleDpq(source=gaussian(0, 1), seed=0, step=0.3)
        serial = evaluate(sc, 20_000, seed=3, workers=1)
        parallel = evaluate(sc, 20_000, seed=3, workers=4)
        a, b = dataclasses.asdict(serial), dataclasses.asdict(parallel)
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_report_contents(self, transform_report):
        r = transform_report
        assert r.scheme["kind"] == "TransformDpq"
        assert r.n == 20_000 and r.seed == 7
        assert 0.02083 * 0.9 < r.mse_per_dim < 0.02083 * 1.1
        assert r.rate_nats_per_dim > 0 and r.rate_se >= 0
        assert all(p for _, p in r.ks_per_axis)
        assert abs(r.moment_errors["mean"]) < 0.05
        assert r.wall_time > 0

    def test_simple_scheme_zero_rate(self):
        rep = evaluate(SimpleDpq(source=gaussian(0, 1), seed=0), 20_000, seed=1)
        assert rep.rate_nats_per_dim == 0.0 and rep.rate_se == 0.0
        assert rep.mse_per_dim == pytest.approx(2.0, abs=0.1)

    def test_awgn_analytic_rate(self):
        rep = evaluate(AwgnOracle(source=gaussian(0, 1), seed=0, noise_var=1.0),
                       20_000, seed=2)
        assert rep.rate_nats_per_dim == pytest.approx(0.5 * math.log(2), abs=1e-12)
        assert rep.mse_per_dim == pytest.approx(2 - math.sqrt(2), abs=0.03)

    def test_small_n_refused(self):
        with pytest.raises(ValueError):
            evaluate(SimpleDpq(source=gaussian(0, 1), seed=0), 100, seed=0)

    # every reduction runs per batch, in the batch's worker; the merge goes
    # in batch order, so the worker count cannot move any field.  KS counts
    # each PIT row into buckets, 256 at n = 1e4 and 4096 at 2e5, and
    # extracts the candidates, both through the batches' map
    @pytest.mark.parametrize("scheme, n", [
        pytest.param(scheme, n, id=name + suffix)
        for n, suffix in [(10_000, ""), (200_000, "-2e5")]
        for scheme, name in [
            (SimpleDpq(gaussian(0, 1), 0), "simple"),
            (ResampleDpq(laplace(0, 1), 0, 0.3), "resample"),
            (TransformDpq(gaussian(0, 1, dim=2), 0, hexagonal(0.5)),
             "transform-hex"),
            (AwgnOracle(gaussian(0.5, 2), 0, 0.5), "awgn")]])
    def test_report_independent_of_worker_count(self, scheme, n):
        one, two, three = (
            dataclasses.replace(evaluate(scheme, n, 9, workers=w),
                                wall_time=0.0)
            for w in (1, 2, 3))
        assert one == two == three

    def test_shared_pit_survives_thread_switching(self, n=20_000):
        # The batches write their PIT columns into one shared array, and KS
        # adds its chunks' bucket counts to its totals; with more workers
        # than cores and threads switched every microsecond, a lost or
        # misplaced write would move the KS fields.
        scheme = ResampleDpq(gaussian(0, 1), 0, 0.3)
        serial = evaluate(scheme, n, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate(scheme, n, 5, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert dataclasses.replace(threaded, wall_time=0.0) == \
            dataclasses.replace(serial, wall_time=0.0)

    def test_shared_counts_survive_thread_switching_at_2e5(self):
        # the same at 4096 buckets
        self.test_shared_pit_survives_thread_switching(n=200_000)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_output_refused(self, workers):
        # KS refuses it as it counts, before a cast to int could warn, at
        # any worker count
        scheme = _Recorded(gaussian(0, 1), 0,
                           lambda x: np.where(x > 2.0, math.nan, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"KS test needs u in \[0, 1\]"):
                evaluate(scheme, 20_000, 0, workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            evaluate(SimpleDpq(source=gaussian(0, 1), seed=0), 10_000, seed=0,
                     workers=workers)

    @pytest.mark.parametrize("n, workers", [(1e5, 1), (MIN_N, 1.5)],
                             ids=["float-n", "float-workers"])
    def test_non_integer_size_refused(self, n, workers):
        scheme = _Recorded(gaussian(0, 1), 0, lambda x: x)
        with pytest.raises(TypeError, match="integer"):
            evaluate(scheme, n, 0, workers=workers)
        assert not scheme.outputs  # refused before any batch ran
        with pytest.raises(TypeError, match="integer"):
            rd_sweep("simple", [0.0], gaussian(0, 1), n, 0, workers=workers)

    def test_numpy_integer_size_taken_as_int(self):
        rep = evaluate(SimpleDpq(gaussian(0, 1), 0), np.int64(MIN_N), 0,
                       workers=np.int64(2))
        assert type(rep.n) is int and rep.n == MIN_N


class TestStreams:
    """No seed-derived stream is drawn twice in one evaluation: a stream that
    is would feed the same uniforms to two stages that are meant to be
    independent, such as the source batches and the rate pass's samples."""

    @staticmethod
    def _keys(monkeypatch, scheme):
        keys = []

        def record(seed, *indices):
            keys.append((seed, *indices))
            return stream_rng(seed, *indices)

        for module in (dpquant.prob, dpquant.schemes, dpquant.ecdq):
            monkeypatch.setattr(module, "stream_rng", record)
        evaluate(scheme, 10_000, 4)
        return keys

    # a transform draws 20 source batches, 20 dither batches and the rate
    # pass's 16 samples and 16 dithers; the others 20 source batches and 20
    # of their own
    @pytest.mark.parametrize("scheme, count", [
        (TransformDpq(gaussian(0, 1), 0, scaled_integer(0.5)), 72),
        (TransformDpq(gaussian(0, 1, dim=2), 0, hexagonal(0.5)), 72),
        (ResampleDpq(gaussian(0, 1), 0, 0.3), 40),
        (AwgnOracle(gaussian(0, 1), 0, 0.5), 40),
    ], ids=["transform-cube", "transform-hex", "resample", "awgn"])
    def test_no_stream_drawn_twice(self, monkeypatch, scheme, count):
        keys = self._keys(monkeypatch, scheme)
        assert len(keys) == count
        assert len(set(keys)) == count

    def test_source_batches_on_the_rate_pass_streams_repeat(self, monkeypatch):
        # negative control: with the source tag 0, batch b's stream is the
        # rate pass's sample stream b, for each of its 16 samples
        monkeypatch.setattr(harness, "_TAG_SOURCE", 0)
        keys = self._keys(monkeypatch,
                          TransformDpq(gaussian(0, 1), 0, scaled_integer(0.5)))
        assert len(keys) - len(set(keys)) == 16


class TestMemory:
    # evaluate keeps one n-sized array, the (k, n) PIT, which KS reads
    # where it lies; a sorted copy of a PIT row for KS alone would read 2.2x
    # here.  The rest of the peak is each worker's batch arrays, n / 20 rows
    # each: the sample, the output and one scratch array, and the resample
    # scheme's cells and masses besides, with its blocks of 16 384 rows.  At
    # n = 1e6 that reads 1.15x for simple and awgn and 1.21x for resample at
    # one worker; at two, where the workers' peaks may coincide, 1.31-1.32x,
    # 1.31x and 1.40-1.41x.  Forming (x - xt) ** 2 and the resample
    # scheme's gathers, inverse cdf and clip bounds whole read 1.42x,
    # 1.31-1.41x and 1.56-1.61x at two workers.
    @pytest.mark.parametrize("scheme, workers", [
        (SimpleDpq(gaussian(0, 1), 0), 1),
        (SimpleDpq(gaussian(0, 1), 0), 2),
        (ResampleDpq(gaussian(0, 1), 0, 0.1), 1),
        (ResampleDpq(gaussian(0, 1), 0, 0.1), 2),
        (AwgnOracle(gaussian(0, 1), 0, 1.0), 1),
        (AwgnOracle(gaussian(0, 1), 0, 1.0), 2),
    ], ids=["simple", "simple-2-workers", "resample", "resample-2-workers",
            "awgn", "awgn-2-workers"])
    def test_traced_peak_below_1_5_pit_sizes(self, scheme, workers):
        n = 1_000_000
        tracemalloc.start()
        try:
            evaluate(scheme, n, 1, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * scheme.source.dim

    # The cube transform's full evaluate, with the rate pass's 16 fresh
    # samples: the sample and its int64 index, whose histogram keys are
    # formed in place, or the sample and the next one as it is drawn, about
    # 2.1x.  Forming x + dither, x / step, the float index, the points and
    # the inverse cdf's copies as well read 4.04x (Gaussian) and 6.13x
    # (Laplace).
    @pytest.mark.parametrize("source", [gaussian(0, 1), laplace(0, 1)],
                             ids=["gaussian", "laplace"])
    def test_transform_traced_peak_below_2_5_sample_sizes(self, source):
        n = 200_000
        tracemalloc.start()
        try:
            evaluate(TransformDpq(source, 0, scaled_integer(0.1)), n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n


class TestMoments:
    # the moments pool every coordinate of the outputs, in block order
    @pytest.mark.parametrize("source, shape", [
        (gaussian(1, 4), lambda x: 0.9 * x + 0.1),
        (laplace(0, 1), lambda x: np.round(x, 1)),
        (gaussian(0, 1, dim=2), lambda x: x * np.array([1.0, 3.0])),
    ], ids=["gaussian", "laplace", "gaussian-2d"])
    def test_match_numpy_and_scipy(self, source, shape):
        scheme = _Recorded(source, 0, shape)
        rep = evaluate(scheme, 20_000, seed=4)
        out = np.concatenate([scheme.outputs[b] for b in sorted(scheme.outputs)])
        assert out.size == 20_000 * source.dim
        m = rep.moment_errors
        assert m["mean"] == pytest.approx(np.mean(out) - source.mean(), abs=1e-12)
        assert m["variance"] == pytest.approx(np.var(out) - source.variance(),
                                              abs=1e-12)
        assert m["skewness"] == pytest.approx(stats.skew(out.ravel(), bias=True),
                                              abs=1e-12)

    def test_large_mean_small_spread(self):
        # At mean 1e4 and variance 1e-2, raw power sums lose about 8 digits,
        # and stats.skew's one centring leaves 1.6e-11 in the skewness here;
        # the reference is exact rational arithmetic on the outputs.
        source = gaussian(1e4, 1e-2)
        scheme = _Recorded(source, 0, lambda x: x)
        rep = evaluate(scheme, 20_000, seed=4)
        out = [Fraction(v) for b in sorted(scheme.outputs)
               for v in scheme.outputs[b].ravel().tolist()]
        mean = sum(out) / len(out)
        m2 = sum((v - mean) ** 2 for v in out) / len(out)
        m3 = sum((v - mean) ** 3 for v in out) / len(out)
        m = rep.moment_errors
        # one ulp of 1e4 is 1.8e-12
        assert m["mean"] == pytest.approx(float(mean - Fraction(1e4)),
                                          abs=2e-12)
        assert m["variance"] == pytest.approx(float(m2 - Fraction(1e-2)),
                                              abs=1e-12)
        assert m["skewness"] == pytest.approx(float(m3) / float(m2) ** 1.5,
                                              abs=1e-12)

    def test_skewed_output_reported(self):
        # negative control: Exp(1)-distributed outputs, whose skewness is 2
        expo = _Recorded(gaussian(0, 1), 0, lambda x: -np.log(special.ndtr(-x)))
        assert evaluate(expo, 20_000, seed=4).moment_errors["skewness"] > 1


def _cell_entropy(model, step) -> float:
    """Exact entropy -sum p_j ln p_j of the cells [j*step, (j+1)*step)."""
    sd = math.sqrt(model.variance())
    lo, hi = model.mean() - 40 * sd, model.mean() + 40 * sd
    p = np.diff(model.cdf(np.arange(math.floor(lo / step),
                                    math.ceil(hi / step) + 1) * step))
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


class TestResampleRate:
    # the mean codelength -ln p(j) estimates the cell entropy without bias
    @pytest.mark.parametrize("source, step", [(gaussian(0, 1), 0.1),
                                              (laplace(0, 1), 0.5)],
                             ids=["gaussian", "laplace"])
    def test_within_3_se_of_cell_entropy(self, source, step):
        rep = evaluate(ResampleDpq(source, 0, step), 200_000, seed=8)
        h = _cell_entropy(source, step)
        assert abs(rep.rate_nats_per_dim - h) < 3 * rep.rate_se

    def test_codelength_under_another_model_fails(self):
        # negative control: the rate of cells drawn and coded under
        # N(0, 0.25), checked against the cell entropy of N(0, 1)
        rep = evaluate(ResampleDpq(gaussian(0, 0.25), 0, 0.1), 200_000, seed=8)
        h = _cell_entropy(gaussian(0, 1), 0.1)
        assert abs(rep.rate_nats_per_dim - h) > 3 * rep.rate_se


def _calibrated(z) -> bool:
    """Whether z = (value - exact) / SE over many seeds reads as standard
    normal: |mean| <= 0.3, sd within [0.8, 1.25], at most 2% beyond 3."""
    z = np.asarray(z)
    return bool(abs(z.mean()) <= 0.3 and 0.8 <= z.std(ddof=1) <= 1.25
                and np.mean(np.abs(z) > 3) <= 0.02)


class TestStandardErrorCalibration:
    """Each reported SE against a closed form, over 200 seeds at n = 1e4."""

    SEEDS = range(200)

    def test_awgn_mse_se(self):
        exact = awgn_oracle_point(1.0, 0.25).distortion
        reps = [evaluate(AwgnOracle(gaussian(0, 1), 0, 0.25), MIN_N, seed=s)
                for s in self.SEEDS]
        err = np.array([r.mse_per_dim for r in reps]) - exact
        se = np.array([r.mse_se for r in reps])
        assert _calibrated(err / se)
        # negative controls: an SE sqrt(N_BATCHES) too wide, the spread of
        # one batch's MSE, and one that much too narrow
        assert not _calibrated(err / (se * math.sqrt(N_BATCHES)))
        assert not _calibrated(err / (se / math.sqrt(N_BATCHES)))

    def test_resample_rate_se(self):
        m, step = gaussian(0, 1), 0.1
        exact = _cell_entropy(m, step)
        reps = [evaluate(ResampleDpq(m, 0, step), MIN_N, seed=s)
                for s in self.SEEDS]
        se = np.array([r.rate_se for r in reps])
        assert _calibrated((np.array([r.rate_nats_per_dim for r in reps])
                            - exact) / se)
        # negative control: the plug-in entropy of n cells in place of the
        # rate, biased low by about (K - 1)/2n nats over K occupied cells
        plug = np.array([plugin_entropy(np.unique(
            np.floor(m.sample(s, MIN_N, stream=77).values / step),
            return_counts=True)[1]) for s in self.SEEDS])
        assert not _calibrated((plug - exact) / se)


class TestCompareToBound:
    def test_valid_scheme_passes(self, transform_report):
        out = compare_to_bound(transform_report)
        assert out["above_bound"]
        assert out["margin_nats"] >= -out["tolerance_nats"]

    def test_corrupted_rate_fails(self, transform_report):
        bad = dataclasses.replace(transform_report,
                                  rate_nats_per_dim=transform_report.rate_nats_per_dim - 1.0)
        assert not compare_to_bound(bad)["above_bound"]

    def test_zero_rate_scheme_passes(self):
        # SimpleDpq sits exactly on the D=2*var endpoint; mse noise alone
        # must not trigger a violation
        rep = evaluate(SimpleDpq(source=gaussian(0, 1), seed=0), 100_000, seed=5)
        assert compare_to_bound(rep)["above_bound"]

    def test_lossless_scheme_on_bound(self):
        # rate +inf at mse 0 is the DP-RDF's D = 0 end: margin 0, not nan
        rep = evaluate(AwgnOracle(gaussian(0, 1), 0, 0.0), MIN_N, seed=1)
        assert rep.rate_nats_per_dim == math.inf and rep.mse_per_dim == 0.0
        out = compare_to_bound(rep)
        assert out["above_bound"] is True and out["margin_nats"] == 0.0

    def test_non_gaussian_refused(self, transform_report):
        d = dataclasses.asdict(transform_report)
        d["scheme"]["source"]["family"] = "uniform"
        d["ks_per_axis"] = [tuple(t) for t in d["ks_per_axis"]]
        bad = EvalReport(**d)
        with pytest.raises(ValueError):
            compare_to_bound(bad)


class TestSweep:
    def test_sorted_and_monotone(self):
        pts = rd_sweep("transform", [0.3, 1.2, 0.6], gaussian(0, 1),
                       20_000, seed=0)
        d = [rep.mse_per_dim for _, rep in pts]
        r = [rep.rate_nats_per_dim for _, rep in pts]
        assert d == sorted(d)
        assert all(a > b for a, b in zip(r, r[1:]))

    @pytest.mark.parametrize("source", [gaussian(0, 1), laplace(0, 1)],
                             ids=["gaussian", "laplace"])
    def test_transform_points_match_separate_evaluations(self, source):
        # the sweep measures its ECDQ rates in one estimator pass; every
        # report must still be the one evaluate gives alone
        grid = [0.1, 1.0, 4.0]
        t0 = time.perf_counter()
        pts = rd_sweep("transform", grid, source, 20_000, seed=5)
        elapsed = time.perf_counter() - t0
        got = {p: dataclasses.asdict(rep) for p, rep in pts}
        walls = [d.pop("wall_time") for d in got.values()]
        for p in grid:
            want = dataclasses.asdict(evaluate(build("transform", source, 5, p),
                                               20_000, 5))
            want.pop("wall_time")
            assert got[p] == want, p
        assert all(w > 0 for w in walls)
        assert sum(walls) <= elapsed

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            rd_sweep("transform", [], gaussian(0, 1), 20_000, seed=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            rd_sweep("nope", [1.0], gaussian(0, 1), 20_000, seed=0)
