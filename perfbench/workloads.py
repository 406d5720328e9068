"""The benchmark's workloads: inputs from a seed, set-up, operations, checks.

Each workload is a closed loop with one client: a pass runs its units one
after the other, and a unit starts only when the previous one has finished.
A unit makes one call into dpquant and yields one or more operations, each
one ``harness.evaluate`` report or one ``bounds.sinkhorn_coupling`` result.
Every pass repeats the same inputs, so the time of a unit is comparable
across passes and every repeated report must be bit-identical to the first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from dataclasses import dataclass, field

import numpy as np

from dpquant import bounds, harness, schemes, transform
from dpquant.ecdq import ecdq_rate_analytic
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, laplace

from perfbench import checks

CUBE_STEPS = (0.1, 1.0, 4.0)
CUBE_N = 200_000
HEX_N = 30_000
LIGHT_N = 2_000_000
LIGHT_WORKERS = 2
SINKHORN_M = 64
SINKHORN_TOL = 1e-10
SINKHORN_LAMBDAS = np.geomspace(1e-2, 1e2, 16)
# The worker-count determinism guard in set-up evaluates the resample scheme
# of light-schemes at a smaller n, so that set-up stays short and the peak
# memory of each workload is its own.
GUARD_N = 200_000
WARMUP_N = 256          # samples through the transform layers in warm-up
WARMUP_EVAL_N = 10_000  # the smallest n evaluate accepts


@dataclass
class Op:
    """The outcome of one operation."""

    label: str
    value: object = None           # EvalReport or Coupling; None if it raised
    reasons: list = field(default_factory=list)
    analytic_rate: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def incorrect(self) -> bool:
        """Failed with an output that is wrong, not by raising."""
        return self.value is not None and self.failed

    def fingerprint(self) -> str:
        """The non-timing fields of the output, as canonical JSON."""
        v = self.value
        if v is None:
            return json.dumps({"raised": self.reasons})
        if isinstance(v, harness.EvalReport):
            d = dataclasses.asdict(v)
            d.pop("wall_time")
            return json.dumps(d, sort_keys=True)
        return json.dumps({"joint": hashlib.sha256(v.joint.tobytes()).hexdigest(),
                           "residual": v.marginal_residual(),
                           "mi": v.mutual_information(),
                           "cost": v.expected_cost()})


def run_unit(labels, fn):
    """Run one unit; an exception fails each of its operations."""
    try:
        return fn()
    except Exception as exc:
        traceback.print_exc()
        reason = f"raised {type(exc).__name__}: {exc}"
        return [Op(label, reasons=[reason]) for label in labels]


def _seeds(seed: int, k: int, stream: int = 0) -> list[int]:
    """k evaluation seeds drawn from the workload seed."""
    rng = np.random.default_rng([stream, seed])
    return [int(s) for s in rng.integers(0, 2 ** 63, size=k)]


def _evaluate_op(label, scheme, n, seed, workers=1, analytic_rate=None):
    report = harness.evaluate(scheme, n, seed, workers=workers)
    return Op(label, report, checks.check_report(report, analytic_rate),
              analytic_rate)


class Workload:
    """Inputs, set-up and units of one workload.

    ``units`` is a list of (labels, callable returning a list of Op).
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.units = []

    def setup(self) -> list[str]:
        """Construct models and lattices, warm caches, run the guard.

        Returns the reasons the worker-count determinism guard failed.
        """
        for cached in ("_gl_nodes", "_hex_nodes"):
            fn = getattr(transform, cached, None)
            if fn is not None and hasattr(fn, "cache_clear"):
                fn.cache_clear()
        self.build()
        self.warm_up()
        return determinism_guard(self.seed)

    def build(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError


def _warm_transform(scheme):
    x = scheme.source.sample(scheme.seed, WARMUP_N).values
    idx = schemes.transform_dpq_encode(scheme, x)
    schemes.transform_dpq_decode(scheme, idx)


class CubeSweep(Workload):
    name = "cube-sweep"

    def __init__(self, seed):
        super().__init__(seed)
        self.sweep_seed, self.laplace_seed = _seeds(seed, 2)
        # Reference rates for the checks; not part of the program's set-up.
        self.analytic = {p: ecdq_rate_analytic(gaussian(0, 1), scaled_integer(p))
                         for p in CUBE_STEPS}
        self.laplace_analytic = ecdq_rate_analytic(laplace(0, 1),
                                                   scaled_integer(0.5))

    def build(self):
        self.source = gaussian(0, 1)
        self.laplace_scheme = schemes.TransformDpq(
            laplace(0, 1), self.laplace_seed, scaled_integer(0.5))
        sweep_labels = [f"transform gaussian step {p:g}" for p in CUBE_STEPS]
        laplace_label = ["transform laplace step 0.5"]
        self.units = [(sweep_labels, self._sweep),
                      (laplace_label, lambda: [_evaluate_op(
                          laplace_label[0], self.laplace_scheme, CUBE_N,
                          self.laplace_seed,
                          analytic_rate=self.laplace_analytic)])]

    def _sweep(self):
        rows = harness.rd_sweep("transform", CUBE_STEPS, self.source, n=CUBE_N,
                                seed=self.sweep_seed, workers=1)
        rows.sort(key=lambda row: row[0])
        return [Op(f"transform gaussian step {p:g}", rep,
                   checks.check_report(rep, self.analytic[p]), self.analytic[p])
                for p, rep in rows]

    def warm_up(self):
        for p in CUBE_STEPS:
            _warm_transform(schemes.TransformDpq(self.source, self.sweep_seed,
                                                 scaled_integer(p)))
        _warm_transform(self.laplace_scheme)


class HexEval(Workload):
    name = "hex-eval"

    def __init__(self, seed):
        super().__init__(seed)
        (self.eval_seed,) = _seeds(seed, 1)

    def build(self):
        self.scheme = schemes.TransformDpq(gaussian(0, 1, dim=2), self.eval_seed,
                                           hexagonal(0.5))
        label = "transform gaussian-2d hex 0.5"
        self.units = [([label], lambda: [_evaluate_op(
            label, self.scheme, HEX_N, self.eval_seed)])]

    def warm_up(self):
        _warm_transform(self.scheme)


class LightSchemes(Workload):
    name = "light-schemes"

    def __init__(self, seed):
        super().__init__(seed)
        self.eval_seeds = _seeds(seed, 3)

    def build(self):
        g = gaussian(0, 1)
        s1, s2, s3 = self.eval_seeds
        self.evaluated = [("simple", schemes.SimpleDpq(g, s1)),
                          ("resample step 0.1", schemes.ResampleDpq(g, s2, 0.1)),
                          ("awgn noise_var 0.25", schemes.AwgnOracle(g, s3, 0.25))]
        self.units = [self._unit(label, scheme) for label, scheme in self.evaluated]

    @staticmethod
    def _unit(label, scheme):
        return [label], lambda: [_evaluate_op(label, scheme, LIGHT_N, scheme.seed,
                                              workers=LIGHT_WORKERS)]

    def warm_up(self):
        for _, scheme in self.evaluated:
            harness.evaluate(scheme, WARMUP_EVAL_N, scheme.seed)


def sinkhorn_inputs():
    """Gaussian-shaped pmf over 64 symbols and the squared-distance cost."""
    i = np.arange(SINKHORN_M)
    pmf = np.exp(-((i - (SINKHORN_M - 1) / 2) / 10.0) ** 2 / 2)
    pmf /= pmf.sum()
    cost = (i[:, None] - i[None, :]).astype(float) ** 2
    return pmf, cost


def sinkhorn_op(label, pmf, cost, lam, **kwargs):
    kwargs.setdefault("tol", SINKHORN_TOL)
    coupling = bounds.sinkhorn_coupling(pmf, cost, lam, **kwargs)
    return Op(label, coupling, checks.check_coupling(coupling, kwargs["tol"]))


class DpRdfSolve(Workload):
    name = "dp-rdf-solve"

    def __init__(self, seed):
        super().__init__(seed)
        # The seed orders the lambda grid; the grid itself is fixed.
        self.order = np.random.default_rng(seed).permutation(len(SINKHORN_LAMBDAS))

    def build(self):
        self.pmf, self.cost = sinkhorn_inputs()
        self.units = [self._unit(float(lam)) for lam in SINKHORN_LAMBDAS[self.order]]

    def _unit(self, lam):
        label = f"sinkhorn lambda {lam:.4g}"
        return [label], lambda: [sinkhorn_op(label, self.pmf, self.cost, lam)]

    def warm_up(self):
        bounds.sinkhorn_coupling(self.pmf, self.cost, float(SINKHORN_LAMBDAS[0]),
                                 tol=SINKHORN_TOL)


WORKLOADS = {w.name: w for w in (CubeSweep, HexEval, LightSchemes, DpRdfSolve)}


def determinism_guard(seed: int) -> list[str]:
    """One light-schemes operation must give the same report at 1 and 2 workers."""
    (s,) = _seeds(seed, 1, stream=1)
    scheme = schemes.ResampleDpq(gaussian(0, 1), s, 0.1)
    one, two = (Op("guard", harness.evaluate(scheme, GUARD_N, s, workers=w))
                for w in (1, LIGHT_WORKERS))
    if one.fingerprint() != two.fingerprint():
        return ["report differs between workers=1 and workers=2"]
    return []


def summarize(ops: list[Op]) -> dict:
    """The statistical end-to-end figures of one pass (None when undefined)."""
    reports = [op.value for op in ops
               if isinstance(op.value, harness.EvalReport)]
    cube = [abs(op.value.rate_nats_per_dim - op.analytic_rate) for op in ops
            if op.analytic_rate is not None and op.value is not None]
    ks = [z for r in reports for z in checks.ks_scaled(r)]
    return {
        "rate_se_nats": float(np.median([r.rate_se for r in reports]))
        if reports else None,
        "rate_err_nats": max(cube) if cube else None,
        "ks_max": max(ks) if ks else None,
    }


def digest(ops: list[Op]) -> str:
    """Hash of the non-timing fields of a pass's outputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        h.update(op.fingerprint().encode())
    return h.hexdigest()[:16]
