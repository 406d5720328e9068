"""Monte-Carlo evaluation of DPQ schemes and rate-distortion sweeps.

Samples are processed in a fixed number of seed-indexed batches; statistics
and their standard errors come from the batch means, so results are
independent of how many workers process the batches.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import dp_rdf_gaussian, rdf_gaussian
from .ecdq import ecdq_rate_empirical
from .prob import SourceModel, gaussian, ks_statistic
from .schemes import TransformDpq, build

__all__ = ["EvalReport", "evaluate", "rd_sweep", "compare_to_bound",
           "write_curve_csv", "write_points_csv", "write_reports_csv",
           "N_BATCHES", "MIN_N"]

N_BATCHES = 20
MIN_N = 10_000  # the smallest sample count evaluate accepts
_TAG_SOURCE = 1


@dataclass(frozen=True)
class EvalReport:
    scheme: dict
    n: int
    seed: int
    rate_nats_per_dim: float
    rate_se: float
    mse_per_dim: float
    mse_se: float
    ks_per_axis: list          # [(D_n, passed), ...]
    moment_errors: dict        # mean/variance/skewness deltas
    wall_time: float

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "EvalReport":
        d = json.loads(s)
        d["ks_per_axis"] = [tuple(t) for t in d["ks_per_axis"]]
        return EvalReport(**d)


def evaluate(scheme, n: int, seed: int, workers: int = 1) -> EvalReport:
    """Monte-Carlo evaluation of one scheme at one parameter setting.

    The evaluation seed replaces ``scheme.seed``: it drives the source
    samples and the scheme's shared randomness, and the report records it.
    Identical (scheme, n, seed) gives an identical report except wall_time,
    for any worker count.
    """
    if n < MIN_N:
        raise ValueError(f"need n >= {MIN_N}")
    if workers < 1:
        raise ValueError("need workers >= 1")
    t0 = time.perf_counter()
    scheme = dataclasses.replace(scheme, seed=seed)
    model = scheme.source
    sizes = [n // N_BATCHES + (1 if b < n % N_BATCHES else 0)
             for b in range(N_BATCHES)]

    def run(b):
        x = model.sample(seed, sizes[b], stream=(_TAG_SOURCE << 8) + b).values
        return (x, *scheme.run(x, b))

    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, range(N_BATCHES)))
    else:
        results = [run(b) for b in range(N_BATCHES)]

    k = model.dim
    batch_mse = np.array([np.mean((x - xt) ** 2) for x, xt, _ in results])
    mse = float(np.average(batch_mse, weights=sizes))
    mse_se = float(np.std(batch_mse, ddof=1) / math.sqrt(N_BATCHES))

    outputs = np.concatenate([np.atleast_2d(xt.reshape(-1, k))
                              for _, xt, _ in results])
    if isinstance(scheme, TransformDpq):
        # The ECDQ rate is re-measured on fresh samples, not taken from this
        # run's indices, until a conditional codelength of those replaces it.
        rate, rate_se = ecdq_rate_empirical(scheme.lat, model, n, seed=seed)
    else:
        rate, rate_se = scheme.rate([p for _, _, p in results])

    ks = [ks_statistic(outputs[:, i], dataclasses.replace(model, dim=1))
          for i in range(k)]

    flat = outputs.ravel()
    m1 = float(flat.mean())
    m2 = float(flat.var())
    sd = flat.std()
    skew = float(np.mean(((flat - m1) / sd) ** 3)) if sd > 0 else 0.0
    moments = {"mean": m1 - model.mean(),
               "variance": m2 - model.variance(),
               "skewness": skew}  # all provided families are symmetric

    source = {"family": model.family.value, "params": list(model.params),
              "dim": model.dim}
    return EvalReport(
        scheme={"kind": type(scheme).__name__, "seed": seed, "source": source,
                **scheme.describe()},
        n=n, seed=seed,
        rate_nats_per_dim=float(rate), rate_se=float(rate_se),
        mse_per_dim=mse, mse_se=mse_se,
        ks_per_axis=[(float(d), bool(p)) for d, p in ks],
        moment_errors=moments,
        wall_time=time.perf_counter() - t0,
    )


def rd_sweep(family: str, params, source: SourceModel, n: int, seed: int,
             workers: int = 1) -> list[tuple[float, EvalReport]]:
    """Evaluate a scheme family of `schemes.FAMILIES` over a parameter grid.

    family: "transform" (cubic lattice step), "resample" (base step),
    "awgn" (noise variance), "simple" (parameter ignored).
    """
    params = list(params)
    if not params:
        raise ValueError("empty parameter grid")
    schemes = [build(family, source, seed, p) for p in params]
    out = [(float(p), evaluate(scheme, n, seed, workers=workers))
           for p, scheme in zip(params, schemes)]
    out.sort(key=lambda t: t[1].mse_per_dim)
    return out


def _dp_rdf_slope(var: float, d: float) -> float:
    if d <= 0 or d >= 2 * var:
        return 0.0
    return -(var - d / 2.0) / (2.0 * (var * d - d * d / 4.0))


def compare_to_bound(report: EvalReport, var: float | None = None) -> dict:
    """Check a report against the Gaussian DP-RDF lower bound.

    margin = rate - bound(measured mse).  The tolerance is 3x the combined
    standard error: the rate SE plus (by the delta method) the mse SE
    propagated through the bound's slope, so that schemes whose rate is
    analytic (zero SE) do not false-alarm from mse noise alone.
    """
    if var is None:
        fam = report.scheme["source"]
        if fam["family"] != "gaussian":
            raise ValueError("closed-form bound check needs a Gaussian source")
        var = fam["params"][1]
    d = report.mse_per_dim
    bound = dp_rdf_gaussian(var, d)
    margin = report.rate_nats_per_dim - bound
    tol = 3.0 * math.sqrt(report.rate_se ** 2
                          + (_dp_rdf_slope(var, d) * report.mse_se) ** 2)
    return {"above_bound": bool(margin >= -tol),
            "margin_nats": float(margin),
            "tolerance_nats": float(tol)}


# ---- CSV emission ---------------------------------------------------------------

LN2 = math.log(2.0)
_CURVE_HEADER = "D,rate_nats,rate_bits,source"


def _curve_row(d: float, rate: float, name: str) -> str:
    return f"{d:.10g},{rate:.10g},{rate / LN2:.10g},{name}"


def _write_csv(path, config: dict | None, header: str, rows):
    """`# key=value` lines of the config, sorted by key, the header, the rows."""
    lines = [f"# {k}={v}" for k, v in sorted((config or {}).items())]
    lines.append(header)
    lines += rows
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_curve_csv(path, var: float, d_grid, config: dict | None = None):
    """Analytic bound curves over a distortion grid.

    Columns: D,rate_nats,rate_bits,source -- one row per (D, curve) pair,
    `source` naming the curve (dp_rdf, rdf, slb, sandwich_upper).
    """
    from .bounds import dp_rdf_sandwich_gaussian, slb_mse
    model = gaussian(0.0, var)
    rows = []
    for d in d_grid:
        curves = {"dp_rdf": dp_rdf_gaussian(var, d),
                  "rdf": rdf_gaussian(var, d),
                  "slb": slb_mse(model, d)}
        if 0 < d < 2 * var:
            curves["sandwich_upper"] = dp_rdf_sandwich_gaussian(var, d)[1]
        rows += [_curve_row(d, r, name) for name, r in curves.items()]
    _write_csv(path, config, _CURVE_HEADER, rows)


def write_points_csv(path, points, config: dict):
    """Solved discrete DP-RDF points (`bounds.RdPoint`), by distortion.

    The columns of `write_curve_csv`, with `source` dp_rdf_discrete.
    """
    rows = [_curve_row(p.distortion, p.rate, "dp_rdf_discrete")
            for p in sorted(points, key=lambda q: q.distortion)]
    _write_csv(path, config, _CURVE_HEADER, rows)


def write_reports_csv(path, rows: list[tuple[float, EvalReport]],
                      config: dict | None = None, reference: bool = False):
    """Measured sweep points.

    Columns: scheme,param,n,seed,rate_nats,rate_se,mse,mse_se,ks_max,ks_pass
    (plus dp_rdf_nats,rdf_nats reference columns when reference=True; they
    are left empty for a non-Gaussian source, which has no closed form).
    """
    header = "scheme,param,n,seed,rate_nats,rate_se,mse,mse_se,ks_max,ks_pass"
    if reference:
        header += ",dp_rdf_nats,rdf_nats"
    lines = []
    for param, rep in rows:
        ks_max = max(d for d, _ in rep.ks_per_axis)
        ks_pass = all(p for _, p in rep.ks_per_axis)
        line = (f"{rep.scheme['kind']},{param:.10g},{rep.n},{rep.seed},"
                f"{rep.rate_nats_per_dim:.10g},{rep.rate_se:.10g},"
                f"{rep.mse_per_dim:.10g},{rep.mse_se:.10g},"
                f"{ks_max:.10g},{int(ks_pass)}")
        if reference and rep.scheme["source"]["family"] == "gaussian":
            var, d = rep.scheme["source"]["params"][1], rep.mse_per_dim
            line += f",{dp_rdf_gaussian(var, d):.10g},{rdf_gaussian(var, d):.10g}"
        elif reference:  # the closed-form bounds are Gaussian only
            line += ",,"
        lines.append(line)
    _write_csv(path, config, header, lines)
