"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json``; regenerate that file
after editing it:

    python3 perfbench/spec.py

Besides the fields ``BENCHMARK.json`` carries, each workload lists the layers
a change is predicted to move on it (``moves``) and to leave alone
(``holds``), and each per-layer metric lists the end-to-end metrics it should
move, as ``metric@workload``.  The traced run prints that mapping next to
the numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    {"name": "cube-sweep",
     "why": "Scalar cube ECDQ + transform at n=2e5 (Gaussian steps 0.1/1/4, "
            "Laplace 0.5): the plug-in rate re-encode dominates, the "
            "transform is ~7%; single-threaded baseline.",
     "moves": ["ecdq", "prob.sample", "transform (cube path)"],
     "holds": ["bounds", "schemes.simple/resample/awgn"]},
    {"name": "hex-eval",
     "why": "2-D hexagonal lattice at n=3e4: the non-product quadrature in "
            "the transform and the hex nearest-point search take the time.",
     "moves": ["transform (hex path)", "lattice", "ecdq"],
     "holds": ["bounds", "schemes.simple/resample/awgn"]},
    {"name": "light-schemes",
     "why": "Simple, resample and AWGN schemes at n=2e6 with 2 workers: "
            "bypasses ECDQ and the transform, so it catches harness "
            "slow-downs of the common path.",
     "moves": ["harness", "prob.sample/icdf/ks_statistic", "rng", "schemes"],
     "holds": ["ecdq", "transform", "lattice", "bounds"]},
    {"name": "dp-rdf-solve",
     "why": "Sinkhorn DP-RDF couplings, m=64 Gaussian pmf, squared cost, "
            "16 log-spaced lambdas in [1e-2, 1e2]; the one lambda that does "
            "not converge is counted as failed.",
     "moves": ["bounds"],
     "holds": ["prob", "rng", "lattice", "ecdq", "transform", "schemes",
               "harness"]},
]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Printed by every untraced run, but not gated: they are zero or undefined
# on some workloads and are statistical estimates that vary with the seed.
# The correctness checks guard them instead.
REPORTED = [
    ("fail_frac", "ratio"),
    ("rate_se_nats", "nats"),
    ("rate_err_nats", "nats"),
    ("ks_max", "sqrt(n)*D_n"),
]

_CUBE, _HEX, _LIGHT, _SOLVE = (w["name"] for w in WORKLOADS)
_RATE = [f"wall_s@{_CUBE}", f"rate_se_nats@{_CUBE}", f"rate_err_nats@{_CUBE}",
         f"wall_s@{_HEX}"]
_TRANSFORM = [f"wall_s@{_HEX}", f"wall_s@{_CUBE}"]
_HEXPATH = [f"wall_s@{_HEX}"]
_COMMON = [f"wall_s@{_LIGHT}", f"peak_rss_mb@{_LIGHT}"]
_SOLVER = [f"wall_s@{_SOLVE}", f"fail_frac@{_SOLVE}"]


def _layer(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = [
    _layer("ecdq.rate_empirical.s", "s", "lower", _RATE),
    _layer("ecdq.rate_empirical.self_s", "s", "lower", _RATE),
    _layer("ecdq.rate_reuse_ratio", "ratio", "higher", _RATE),
    _layer("prob.sample.items", "count", "lower", _RATE),
    _layer("transform.dpq_transform.s", "s", "lower", _TRANSFORM),
    _layer("transform.dpq_transform.self_s", "s", "lower", _TRANSFORM),
    _layer("transform.dpq_transform.items", "count", "lower", _TRANSFORM),
    _layer("prob.cdf.elems", "count", "lower", _TRANSFORM),
    _layer("prob.pdf.elems", "count", "lower", _TRANSFORM),
    _layer("transform.cdf_evals_per_item", "evals/item", "lower", _TRANSFORM),
    _layer("lattice.nearest_point.s", "s", "lower", _HEXPATH),
    _layer("lattice.nearest_point.items", "count", "lower", _HEXPATH),
    _layer("lattice.sample_dither.s", "s", "lower", _HEXPATH),
    _layer("ecdq.encode.s", "s", "lower", _HEXPATH),
    _layer("ecdq.encode.items", "count", "lower", _HEXPATH),
    _layer("ecdq.decode.s", "s", "lower", _HEXPATH),
    _layer("prob.sample.s", "s", "lower", _COMMON),
    _layer("prob.ks_statistic.s", "s", "lower", _COMMON),
    _layer("prob.icdf.s", "s", "lower", _COMMON),
    _layer("prob.icdf.elems", "count", "lower", _COMMON),
    _layer("prob.icdf.clamped", "count", "lower",
           _COMMON + [f"ks_max@{_LIGHT}"]),
    _layer("rng.stream_rng.calls", "count", "lower", _COMMON),
    _layer("rng.stream_rng.s", "s", "lower", _COMMON),
    _layer("schemes.simple.s", "s", "lower", _COMMON),
    _layer("schemes.resample.s", "s", "lower", _COMMON),
    _layer("schemes.awgn.s", "s", "lower", _COMMON),
    _layer("harness.evaluate.self_s", "s", "lower", _COMMON),
    _layer("bounds.sinkhorn.calls", "count", "lower", _SOLVER),
    _layer("bounds.sinkhorn.s", "s", "lower", _SOLVER),
    _layer("bounds.sinkhorn.s_max", "s", "lower", _SOLVER),
    _layer("bounds.sinkhorn.failed", "count", "lower", _SOLVER),
    _layer("trace.overhead_frac", "ratio", "lower", []),
]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, with only the keys it may carry."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    out.write_text(render())
    print(f"wrote {out}")
