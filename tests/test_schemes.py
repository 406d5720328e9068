import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpquant.schemes
from dpquant.harness import MIN_N, N_BATCHES, evaluate
from dpquant.lattice import Lattice, hexagonal, scaled_integer
from dpquant.prob import SourceModel, gaussian, ks_statistic, laplace, uniform
from dpquant.rng import stream_rng
from dpquant.schemes import (FAMILIES, AwgnOracle, ResampleDpq, SchemeError,
                             SimpleDpq, TransformDpq, awgn_oracle_apply, build,
                             resample_dpq, simple_dpq, transform_dpq_decode,
                             transform_dpq_encode)


class TestSimpleDpq:
    def test_zero_rate_mse(self):
        m = gaussian(0, 1)
        sc = SimpleDpq(source=m, seed=1)
        x = m.sample(1, 100_000, stream=50).values
        xt = simple_dpq(sc, x)
        assert np.mean((x - xt) ** 2) == pytest.approx(2.0, abs=0.03)

    def test_output_distribution(self):
        m = gaussian(0, 1)
        sc = SimpleDpq(source=m, seed=2)
        x = m.sample(2, 50_000, stream=50).values
        xt = simple_dpq(sc, x)
        _, ok = ks_statistic(m.cdf(xt))
        assert ok

    def test_independent_of_source(self):
        m = gaussian(0, 1)
        sc = SimpleDpq(source=m, seed=3)
        x = m.sample(3, 100_000, stream=50).values
        xt = simple_dpq(sc, x)
        assert abs(np.corrcoef(x.ravel(), xt.ravel())[0, 1]) < 0.01


class TestResampleDpq:
    def test_three_db_loss(self):
        m = gaussian(0, 1)
        step = 0.05
        sc = ResampleDpq(source=m, seed=4, step=step)
        x = m.sample(4, 100_000, stream=50).values
        j, _, xt = resample_dpq(sc, x)
        mse_resample = np.mean((x.ravel() - xt) ** 2)
        midpoint = (j + 0.5) * step
        mse_base = np.mean((x.ravel() - midpoint) ** 2)
        assert 1.9 <= mse_resample / mse_base <= 2.1

    def test_stays_in_cell(self):
        m = gaussian(0, 1)
        sc = ResampleDpq(source=m, seed=5, step=0.3)
        x = m.sample(5, 20_000, stream=50).values
        j, _, xt = resample_dpq(sc, x)
        assert np.all(xt >= j * 0.3)
        assert np.all(xt < (j + 1) * 0.3)

    def test_preserves_distribution(self):
        m = gaussian(0, 1)
        sc = ResampleDpq(source=m, seed=0, step=0.5)
        x = m.sample(0, 100_000, stream=50).values
        _, _, xt = resample_dpq(sc, x)
        _, ok = ks_statistic(m.cdf(xt))
        assert ok

    def test_resampling_law_toy_oracle(self):
        # 4-cell toy: conditional resampling keeps P(cell) and the within-cell
        # law; check cell masses against the model's cell probabilities
        m = uniform(0, 1)
        step = 0.25
        sc = ResampleDpq(source=m, seed=7, step=step)
        x = m.sample(7, 100_000, stream=50).values
        j, _, xt = resample_dpq(sc, x)
        for cell in range(4):
            got = np.mean(np.floor(xt / step).astype(int) == cell)
            assert got == pytest.approx(0.25, abs=0.01)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            ResampleDpq(source=gaussian(0, 1), seed=0, step=0.0)

    @pytest.mark.parametrize("step,bad", [
        (1e-300, None), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
    ], ids=["step-1e-300", "nan", "inf", "-inf"])
    def test_input_beyond_exact_index_range_refused(self, step, bad):
        # floor(x / step) was cast to int64 with a RuntimeWarning; at step
        # 1e-300 the run then failed as a zero-probability base cell
        m = gaussian(0, 1)
        x = m.sample(0, 1000, stream=50).values
        if bad is not None:
            x[7] = bad
        with pytest.raises(ValueError, match="2\\*\\*51"):
            resample_dpq(ResampleDpq(m, 0, step), x)

    @staticmethod
    def _per_sample(sc, x, block):
        # the form that prices both edges of every sample's cell
        j = np.floor(x / sc.step).astype(np.int64)
        lo, hi = j * sc.step, (j + 1) * sc.step
        fa = sc.source.cdf(lo)
        mass = sc.source.cdf(hi) - fa
        rng = stream_rng(sc.seed, dpquant.schemes._TAG_SCHEME, block)
        xt = sc.source.icdf(fa + mass * rng.random(x.shape))
        return j, mass, np.clip(xt, lo, np.nextafter(hi, -np.inf))

    @pytest.mark.parametrize("step", [1e-6, 0.1, 4.0])
    @pytest.mark.parametrize("source", [gaussian(0, 1), laplace(0, 1), uniform(-1, 2)],
                             ids=["gaussian", "laplace", "uniform"])
    def test_edge_table_matches_per_sample_form(self, source, step):
        # step 1e-6 spans more edges than rows and takes the per-sample form
        sc = ResampleDpq(source, 6, step)
        x = source.sample(6, 20_000, stream=50).values.ravel()
        j = np.floor(x / step)
        assert (j.max() - j.min() + 2 > x.size) == (step == 1e-6)
        for got, want in zip(resample_dpq(sc, x, block=2), self._per_sample(sc, x, 2)):
            assert np.array_equal(got, want)

    # rows beyond icdf's clamp at u = EPS: the reconstruction icdf(EPS) lies
    # above their cells, and the clip pins it below each upper edge
    @pytest.mark.parametrize("source, step, tail", [
        (gaussian(0, 1), 0.1, ()),
        (gaussian(0, 1), 1e-7, ()),
        (laplace(0, 1), 0.5, ()),
        (gaussian(0, 1), 0.1, (-8.0, -9.55, -12.0)),
        (gaussian(0, 1), 1e-7, (-8.0, -9.55, -12.0)),
        (laplace(0, 1), 0.5, (-28.0, -30.2, -33.0)),
    ], ids=["gaussian-table", "gaussian-per-sample", "laplace-table",
            "gaussian-table-tail", "gaussian-per-sample-tail",
            "laplace-table-tail"])
    def test_matches_reference_formula(self, source, step, tail):
        # the reference forms fa + mass * r, then clips icdf(u) to
        # [edge(0), nextafter(edge(1), -inf)], in new arrays each time
        sc = ResampleDpq(source, 9, step)
        x = source.sample(9, 20_000, stream=50).values.ravel()
        x[:len(tail)] = tail
        j = np.floor(x / step)
        assert (j.max() - j.min() + 2 > x.size) == (step == 1e-7)
        got = resample_dpq(sc, x, block=4)
        want = self._per_sample(sc, x, 4)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        top = np.nextafter((want[0][:len(tail)] + 1) * step, -np.inf)
        assert np.array_equal(got[2][:len(tail)], top)

    def test_each_cell_edge_priced_once(self, monkeypatch):
        sizes = []
        real = SourceModel.cdf

        def counted(model, v):
            sizes.append(np.size(v))
            return real(model, v)

        m = gaussian(0, 1)
        x = m.sample(8, 100_000, stream=50).values
        monkeypatch.setattr(SourceModel, "cdf", counted)
        j, _, _ = resample_dpq(ResampleDpq(m, 8, 0.1), x)
        assert sizes == [j.max() - j.min() + 2]
        assert sizes[0] < 200

    @pytest.mark.parametrize("workers", [1, 2])
    def test_evaluate_calls_resample_dpq_per_batch(self, monkeypatch, workers):
        # `run` looks resample_dpq up by its module name, so a wrapper set
        # there (a counter here, a tracer's span elsewhere) sees every batch
        calls = []
        real = dpquant.schemes.resample_dpq

        def counted(scheme, x, block=0):
            calls.append(block)
            return real(scheme, x, block)

        monkeypatch.setattr(dpquant.schemes, "resample_dpq", counted)
        evaluate(ResampleDpq(gaussian(0, 1), 0, 0.5), MIN_N, 3, workers=workers)
        assert sorted(calls) == list(range(N_BATCHES))


class TestTransformDpq:
    def test_roundtrip_determinism(self):
        m = gaussian(0, 1, dim=2)
        sc = TransformDpq(source=m, seed=8, lattice=scaled_integer(0.5, 2))
        x = m.sample(8, 10_000, stream=50).values
        idx = transform_dpq_encode(sc, x)
        a = transform_dpq_decode(sc, idx)
        b = transform_dpq_decode(sc, idx)
        assert np.array_equal(a, b)
        assert np.array_equal(idx, transform_dpq_encode(sc, x))

    def test_decoder_never_sees_source(self):
        # decode is a function of (indices, seed) alone: rebuild the scheme
        # from scratch and get the same output
        m = gaussian(0, 1)
        sc = TransformDpq(source=m, seed=9, lattice=scaled_integer(0.25, 1))
        x = m.sample(9, 10_000, stream=50).values
        idx = transform_dpq_encode(sc, x)
        sc2 = TransformDpq(source=gaussian(0, 1), seed=9,
                           lattice=scaled_integer(0.25, 1))
        assert np.array_equal(transform_dpq_decode(sc, idx),
                              transform_dpq_decode(sc2, idx))

    def test_mse_close_to_ecdq_at_high_rate(self):
        m = gaussian(0, 1)
        step = 0.1
        sc = TransformDpq(source=m, seed=10, lattice=scaled_integer(step, 1))
        x = m.sample(10, 100_000, stream=50).values
        xt = transform_dpq_decode(sc, transform_dpq_encode(sc, x))
        mse = np.mean((x - xt) ** 2)
        assert 0.95 <= mse / (step ** 2 / 12) <= 1.05
        _, ok = ks_statistic(m.cdf(xt))
        assert ok

    def test_coarse_step_still_preserves_distribution(self):
        m = gaussian(0, 1)
        sc = TransformDpq(source=m, seed=11, lattice=scaled_integer(4.0, 1))
        x = m.sample(11, 100_000, stream=50).values
        xt = transform_dpq_decode(sc, transform_dpq_encode(sc, x))
        _, ok = ks_statistic(m.cdf(xt))
        assert ok

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            TransformDpq(source=gaussian(0, 1, dim=2), seed=0,
                         lattice=scaled_integer(1.0, 1))

    def test_flat_scalar_input_refused(self):
        # a flat x became one n-wide row under a single dither, and decode
        # then failed inside a matmul
        m = gaussian(0, 1)
        sc = TransformDpq(source=m, seed=0, lattice=scaled_integer(0.5, 1))
        x = m.sample(0, 1000, stream=50).values
        with pytest.raises(ValueError, match="dim"):
            transform_dpq_encode(sc, x.ravel())

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(lat=st.one_of(
               st.builds(scaled_integer, st.floats(0.05, 4.0), st.integers(1, 3)),
               st.builds(hexagonal, st.floats(0.05, 4.0))),
           seed=st.integers(0, 2 ** 64 - 1),
           block=st.integers(0, N_BATCHES - 1))
    def test_run_is_decode_of_encode_sharing_only_the_seed(self, lat, seed, block):
        # the decoder side is a scheme rebuilt from the source, the seed and
        # the lattice alone, handed nothing but the indices
        source = gaussian(0, 1, dim=lat.dim)
        x = source.sample(seed, 2000, stream=50).values
        scheme = TransformDpq(source, seed, lat)
        fresh = TransformDpq(SourceModel(source.family, source.params, source.dim),
                             seed, Lattice(lat.kind, lat.step, lat.dim))
        want = transform_dpq_decode(fresh, transform_dpq_encode(scheme, x, block),
                                    block)
        got = scheme.run(x, block)[0]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("lat,rows_per_sample", [
        (scaled_integer(0.5, 2), 1), (hexagonal(0.5), 2)], ids=["cube", "hex"])
    def test_run_draws_and_searches_each_dither_once(self, monkeypatch, lat,
                                                     rows_per_sample):
        # one draw per batch, and one nearest-index row per sample for the
        # encode, plus on the hexagon one for folding the dither into the
        # cell; nearest_point searches through nearest_index, so every
        # search is counted here once
        draws, rows = [], []
        real_draw, real_search = Lattice.sample_dither, Lattice.nearest_index

        def counted_draw(self, rng, n):
            draws.append(n)
            return real_draw(self, rng, n)

        def counted_search(self, x, shift=None):
            rows.append(len(np.atleast_2d(x)))
            return real_search(self, x, shift)

        monkeypatch.setattr(Lattice, "sample_dither", counted_draw)
        monkeypatch.setattr(Lattice, "nearest_index", counted_search)
        source = gaussian(0, 1, dim=2)
        x = source.sample(4, 1000, stream=50).values
        TransformDpq(source, 4, lat).run(x, 2)
        assert draws == [1000]
        assert sum(rows) == rows_per_sample * 1000

    @pytest.mark.parametrize("source", [gaussian(0, 1), laplace(0, 1)],
                             ids=["gaussian", "laplace"])
    def test_run_traced_peak_below_4_75_batch_sizes(self, source):
        # the dithers, the index, and then the points (with the index cast to
        # float for the generator matmul), or x_hat and its smoothed cdf: the
        # decode subtracts the dither where the points lie, and the transform
        # inverts the smoothed cdf a block at a time.  A new x_hat and a
        # whole inverted copy read 5.00x (Gaussian) and 5.17x (Laplace).
        m = 200_000
        x = source.sample(3, m).values
        tracemalloc.start()
        try:
            TransformDpq(source, 3, scaled_integer(0.1)).run(x, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * x.nbytes


class TestAwgnOracle:
    def test_mse_matches_closed_form(self):
        m = gaussian(0, 1)
        sc = AwgnOracle(source=m, seed=12, noise_var=1.0)
        x = m.sample(12, 1_000_000, stream=50).values
        xt = awgn_oracle_apply(sc, x)
        assert np.mean((x - xt) ** 2) == pytest.approx(2 - math.sqrt(2), abs=0.005)

    def test_output_distribution(self):
        m = gaussian(0, 1)
        sc = AwgnOracle(source=m, seed=13, noise_var=1.0)
        x = m.sample(13, 100_000, stream=50).values
        _, ok = ks_statistic(m.cdf(awgn_oracle_apply(sc, x)))
        assert ok

    def test_noiseless_limit(self):
        m = gaussian(0, 1)
        sc = AwgnOracle(source=m, seed=14, noise_var=1e-12)
        x = m.sample(14, 10_000, stream=50).values
        assert np.mean((x - awgn_oracle_apply(sc, x)) ** 2) < 1e-10

    def test_non_gaussian_refused(self):
        with pytest.raises(ValueError):
            AwgnOracle(source=uniform(0, 1), seed=0, noise_var=1.0)


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_matches_module_functions(self, family):
        m = gaussian(0, 1)
        sc = build(family, m, 5, 0.5)
        x = m.sample(5, 1000, stream=50).values
        xt, payload = sc.run(x, 3)
        assert xt.shape == x.shape
        if isinstance(sc, TransformDpq):
            idx = transform_dpq_encode(sc, x, block=3)
            assert payload is None
            assert np.array_equal(xt, transform_dpq_decode(sc, idx, block=3))
        elif isinstance(sc, ResampleDpq):
            j, cell_mass, ref = resample_dpq(sc, x, block=3)
            mass = m.cdf((j + 1) * sc.step) - m.cdf(j * sc.step)
            assert np.array_equal(cell_mass, mass)
            # the batch's mean codelength -log p(j), and its rows
            assert payload == (np.mean(-np.log(mass)), len(x))
            assert np.array_equal(xt.ravel(), ref)
        else:
            ref = (simple_dpq if isinstance(sc, SimpleDpq) else awgn_oracle_apply)
            assert payload is None and np.array_equal(xt, ref(sc, x, block=3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_refuses_nan_and_inf(self, family, bad):
        # simple and awgn do not quantize, and passed such rows through
        m = gaussian(0, 1)
        x = m.sample(5, 1000, stream=50).values
        x[17] = bad
        with pytest.raises(ValueError):
            build(family, m, 5, 0.5).run(x, 0)

    @pytest.mark.parametrize("family,source,param", [
        *[(f, gaussian(0, 1), 0.5) for f in sorted(FAMILIES)],
        ("transform", gaussian(0, 1, dim=2), hexagonal(0.5)),
    ], ids=[*sorted(FAMILIES), "transform-hex"])
    def test_payload_is_a_batch_statistic(self, family, source, param):
        # a batch hands back None or a (statistic, rows) pair, never an
        # array that grows with the batch
        sc = build(family, source, 5, param)
        _, payload = sc.run(source.sample(5, 1000, stream=50).values, 0)
        if payload is not None:
            stat, rows = payload
            assert type(stat) is float and type(rows) is int and rows == 1000

    def test_built_classes(self):
        m = gaussian(0, 1)
        assert type(build("simple", m, 0, None)) is SimpleDpq
        assert build("resample", m, 0, 0.5).step == 0.5
        assert build("awgn", m, 0, 0.5).noise_var == 0.5
        assert build("transform", m, 0, 0.5).lattice.step == 0.5
        hex_scheme = build("transform", gaussian(0, 1, dim=2), 0, hexagonal(0.5))
        assert hex_scheme.lattice.kind == "hexagonal"

    @pytest.mark.parametrize("family,source,param", [
        ("nope", gaussian(0, 1), 1.0),
        ("resample", gaussian(0, 1), 0.0),
        ("awgn", gaussian(0, 1), -1.0),
        ("awgn", uniform(0, 1), 1.0),
        ("transform", gaussian(0, 1), -0.5),
        # NaN passed `step <= 0` and `noise_var < 0` alike: a NaN noise
        # variance gave a report whose rate and MSE were NaN
        ("resample", gaussian(0, 1), math.nan),
        ("resample", gaussian(0, 1), math.inf),
        ("awgn", gaussian(0, 1), math.nan),
        ("awgn", gaussian(0, 1), math.inf),
    ])
    def test_bad_build_raises_scheme_error(self, family, source, param):
        with pytest.raises(SchemeError):
            build(family, source, 0, param)

    def test_rates(self):
        m = gaussian(0, 4)
        assert SimpleDpq(m, 0).rate([None]) == (0.0, 0.0)
        assert AwgnOracle(m, 0, 4.0).rate([None]) == (0.5 * math.log(2), 0.0)
        assert AwgnOracle(m, 0, 0.0).rate([None]) == (math.inf, 0.0)
        # two equiprobable cells in every batch: a mean codelength of ln 2
        # with zero spread
        c = (math.log(2), 4)
        assert ResampleDpq(m, 0, 1.0).rate([c, c, c]) == (math.log(2), 0.0)
        # batch means 1 over 3 rows and 4 over 1 row: the mean over all
        # samples, not over the batch means (2.5); the SE is the batch means'
        # standard error, std([1, 4]) / sqrt(2)
        rate, se = ResampleDpq(m, 0, 1.0).rate([(1.0, 3), (4.0, 1)])
        assert rate == 1.75 and se == pytest.approx(1.5, rel=1e-15)
        with pytest.raises(NotImplementedError):
            TransformDpq(m, 0, scaled_integer(0.5)).rate([None])

    def test_equal_builds_compare_equal(self):
        m, m2 = gaussian(0, 1), gaussian(0, 1, dim=2)
        assert build("transform", m, 3, 0.5) == build("transform", m, 3, 0.5)
        assert build("transform", m2, 3, hexagonal(0.5)) == \
            build("transform", m2, 3, hexagonal(0.5))
        assert build("transform", m, 3, 0.5) != build("transform", m, 3, 0.25)

    def test_report_lists_scheme_fields(self):
        # a report names the scheme by its kind, the evaluation seed, its
        # source and each of its other fields
        m = gaussian(0, 1)

        def fields(scheme):
            rep = evaluate(scheme, MIN_N, seed=1).scheme
            assert (rep["kind"], rep["seed"]) == (type(scheme).__name__, 1)
            assert rep["source"] == {"family": "gaussian", "params": [0.0, 1.0],
                                     "dim": 1}
            return {k: v for k, v in rep.items()
                    if k not in ("kind", "seed", "source")}

        assert fields(SimpleDpq(m, 0)) == {}
        assert fields(ResampleDpq(m, 0, 0.5)) == {"step": 0.5}
        assert fields(AwgnOracle(m, 0, 0.5)) == {"noise_var": 0.5}
        assert fields(TransformDpq(m, 0, scaled_integer(0.5))) == {
            "lattice": {"kind": "scaled_integer", "step": 0.5, "dim": 1}}
        # an integer step is stored as the float it means
        one = fields(build("transform", m, 0, 1))
        assert one == fields(build("transform", m, 0, 1.0))
        assert type(one["lattice"]["step"]) is float
