"""Monte-Carlo evaluation of DPQ schemes and rate-distortion sweeps.

Samples are processed in a fixed number of seed-indexed batches.  Each batch
is reduced where it is run, and the reductions are merged in batch order;
standard errors come from the batch means.  So results are independent of
how many workers process the batches.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .bounds import dp_rdf_gaussian
from .ecdq import ecdq_rate_empirical
from .prob import Family, SourceModel, ks_statistic
from .schemes import TransformDpq, build

__all__ = ["EvalReport", "evaluate", "rd_sweep", "compare_to_bound",
           "N_BATCHES", "MIN_N"]

N_BATCHES = 20
MIN_N = 10_000  # the smallest sample count evaluate accepts
_TAG_SOURCE = 1


@dataclass(frozen=True)
class EvalReport:
    scheme: dict               # kind, seed, source, the other scheme fields
    n: int
    seed: int
    rate_nats_per_dim: float
    rate_se: float
    mse_per_dim: float
    mse_se: float
    ks_per_axis: list          # [(D_n, passed), ...]
    moment_errors: dict        # mean/variance/skewness deltas
    wall_time: float


def evaluate(scheme, n: int, seed: int, workers: int = 1) -> EvalReport:
    """Monte-Carlo evaluation of one scheme at one parameter setting.

    The evaluation seed replaces ``scheme.seed``: it drives the source
    samples and the scheme's shared randomness, and the report records it.
    Identical (scheme, n, seed) gives an identical report except wall_time,
    for any worker count.

    Each batch is reduced where it is run: to its MSE, its moments
    (`_batch_moments`), its payload for ``scheme.rate`` (a batch statistic or
    None) and its columns of the probability integral transform,
    ``cdf(output)``, a (k, n) array with one row per axis, the one n-sized
    array an evaluation keeps.  The KS test compares each row with U(0, 1)
    by `prob.ks_statistic`, run on the batches' map without sorting the row.
    The moments pool every coordinate of the n outputs, merged in batch
    order; the variance is the population variance.

    A worker holds at most three arrays of its batch's size: the sample,
    the scheme's output and the squared error.  The sample is dropped
    before the PIT's cdf and the moments, which form two each.  The resample
    scheme adds its cells and their masses until it returns.
    """
    [report] = _evaluate_all([scheme], n, seed, workers)
    return report


def _evaluate_all(schemes, n: int, seed: int, workers: int) -> list:
    """The `evaluate` report of each of schemes, which share one source; n
    and workers are checked once, as ints.  One `ecdq_rate_empirical` pass
    measures every TransformDpq's lattice on the same fresh draws of the
    source, and each of their reports counts an equal share of its seconds.
    """
    n, workers = operator.index(n), operator.index(workers)
    if n < MIN_N:
        raise ValueError(f"need n >= {MIN_N}")
    if workers < 1:
        raise ValueError("need workers >= 1")
    lats = [s.lattice for s in schemes if isinstance(s, TransformDpq)]
    if lats:
        t0 = time.perf_counter()
        rates = iter(ecdq_rate_empirical(lats, schemes[0].source, n, seed=seed))
        share = (time.perf_counter() - t0) / len(lats)
    return [_evaluate(s, n, seed, workers,
                      (*next(rates), share) if isinstance(s, TransformDpq)
                      else None)
            for s in schemes]


def _evaluate(scheme, n: int, seed: int, workers: int, ecdq_rate) -> EvalReport:
    """`evaluate`, with the (rate, se, seconds) of a TransformDpq handed in by
    `_evaluate_all` and its seconds counted into wall_time.

    Once every batch has written its PIT columns, KS runs through the
    batches' map, each row read where it lies.
    """
    t0 = time.perf_counter()
    scheme = dataclasses.replace(scheme, seed=seed)
    model = scheme.source
    k = model.dim
    sizes = [n // N_BATCHES + (1 if b < n % N_BATCHES else 0)
             for b in range(N_BATCHES)]
    starts = np.cumsum([0] + sizes)
    pit = np.empty((k, n))  # one contiguous row per axis, for KS

    def run(b):
        x = model.sample(seed, sizes[b], stream=(_TAG_SOURCE << 8) + b).values
        xt, payload = scheme.run(x, b)
        # squared where it lies, the difference has the bits of (x - xt) ** 2
        err = x - xt
        del x
        err *= err
        mse = np.mean(err)
        del err
        xt = np.reshape(xt, (-1, k))
        pit[:, starts[b]:starts[b + 1]] = model.cdf(xt).T
        moments = _batch_moments(xt.ravel())
        del xt
        return mse, moments, payload

    def run_all(map):
        results = list(map(run, range(N_BATCHES)))
        return results, [ks_statistic(pit[i], map) for i in range(k)]

    # One worker runs here, not in a pool of one: a pool thread allocates
    # from a second malloc arena, which raised hex-eval's peak RSS by 2 MB.
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            results, ks = run_all(ex.map)
    else:
        results, ks = run_all(map)

    batch_mse = np.array([mse for mse, _, _ in results])
    mse = float(np.average(batch_mse, weights=sizes))
    mse_se = float(np.std(batch_mse, ddof=1) / math.sqrt(N_BATCHES))

    rate, rate_se, rate_seconds = (
        ecdq_rate or (*scheme.rate([p for _, _, p in results]), 0.0))

    count, m1, m2, m3 = functools.reduce(_merge_moments,
                                         [m for _, m, _ in results])
    var = m2 / count
    skew = m3 / count / var ** 1.5 if var > 0 else 0.0
    moments = {"mean": m1 - model.mean(),
               "variance": var - model.variance(),
               "skewness": skew}  # all provided families are symmetric

    source = {"family": model.family.value, "params": list(model.params),
              "dim": model.dim}
    params = {k: v for k, v in dataclasses.asdict(scheme).items()
              if k not in ("source", "seed")}
    return EvalReport(
        scheme={"kind": type(scheme).__name__, "seed": seed, "source": source,
                **params},
        n=n, seed=seed,
        rate_nats_per_dim=float(rate), rate_se=float(rate_se),
        mse_per_dim=mse, mse_se=mse_se,
        ks_per_axis=[(float(d), bool(p)) for d, p in ks],
        moment_errors=moments,
        wall_time=time.perf_counter() - t0 + rate_seconds,
    )


def _batch_moments(v) -> tuple[int, float, float, float]:
    """(count, mean, M2, M3) of v, where M2 and M3 sum d * d and d * d * d
    for d = v - mean; products rather than a power, which would call libm's
    pow per element."""
    mean = float(v.mean())
    d = v - mean
    dd = d * d
    m2 = float(dd.sum())
    dd *= d
    return v.size, mean, m2, float(dd.sum())


def _merge_moments(a, b) -> tuple[int, float, float, float]:
    """The `_batch_moments` of two samples pooled, from theirs.

    The pairwise update of Chan, Golub & LeVeque (1979), with Pebay's (2008)
    term for M3: it combines centred sums, so it keeps the digits that raw
    power sums lose when the spread is small against the mean.
    """
    na, ma, m2a, m3a = a
    nb, mb, m2b, m3b = b
    n = na + nb
    delta = mb - ma
    return (n, ma + delta * nb / n,
            m2a + m2b + delta * delta * na * nb / n,
            m3a + m3b + delta ** 3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * m2b - nb * m2a) / n)


def rd_sweep(family: str, params, source: SourceModel, n: int, seed: int,
             workers: int = 1) -> list[tuple[float, EvalReport]]:
    """Evaluate a scheme family of `schemes.FAMILIES` over a parameter grid.

    family: "transform" (cubic lattice step), "resample" (base step),
    "awgn" (noise variance), "simple" (parameter ignored).

    Each point's report equals ``evaluate(scheme, n, seed, workers)`` of its
    scheme except wall_time.  The transform points' ECDQ rates come from one
    `ecdq_rate_empirical` pass over all their lattices, which draws the
    estimator's source samples once per sweep; each of the G transform
    reports' wall_time counts 1/G of that pass.
    """
    params = list(params)
    if not params:
        raise ValueError("empty parameter grid")
    schemes = [build(family, source, seed, p) for p in params]
    out = list(zip(map(float, params),
                   _evaluate_all(schemes, n, seed, workers)))
    out.sort(key=lambda t: t[1].mse_per_dim)
    return out


def _dp_rdf_slope(var: float, d: float) -> float:
    if d <= 0 or d >= 2 * var:
        return 0.0
    return -(var - d / 2.0) / (2.0 * (var * d - d * d / 4.0))


def _report_source(report: EvalReport) -> SourceModel:
    """The source model a report's scheme ran on, rebuilt from its dict."""
    source = report.scheme["source"]
    return SourceModel(Family(source["family"]), tuple(source["params"]),
                       source["dim"])


def compare_to_bound(report: EvalReport) -> dict:
    """Check a report against the Gaussian DP-RDF lower bound.

    margin = rate - bound(measured mse), and 0 where the two are equal: a
    lossless scheme's rate and the bound at D = 0 are both +inf.  The
    tolerance is 3x the combined standard error: the rate SE plus (by the
    delta method) the mse SE propagated through the bound's slope, so that
    schemes whose rate is analytic (zero SE) do not false-alarm from mse
    noise alone.
    """
    model = _report_source(report)
    if model.family is not Family.GAUSSIAN:
        raise ValueError("closed-form bound check needs a Gaussian source")
    var = model.variance()
    d = report.mse_per_dim
    bound = dp_rdf_gaussian(var, d)
    rate = report.rate_nats_per_dim
    margin = 0.0 if rate == bound else rate - bound
    tol = 3.0 * math.sqrt(report.rate_se ** 2
                          + (_dp_rdf_slope(var, d) * report.mse_se) ** 2)
    return {"above_bound": bool(margin >= -tol),
            "margin_nats": float(margin),
            "tolerance_nats": float(tol)}
