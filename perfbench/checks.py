"""Per-operation correctness checks.

Each check returns a list of reasons; an empty list means the output passed.
The levels are set so that a correct program fails any one check with
probability about 1e-6: the benchmark makes thousands of checks across its
runs, and one false alarm would mark a whole run incorrect.  They still
reject the negative controls in ``tests/test_checks.py`` by a wide margin.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from dpquant import harness

FALSE_ALARM = 1e-6
# sqrt(n) * D_n beyond which KS rejects (asymptotic Kolmogorov law).
KS_CRIT = float(special.kolmogi(FALSE_ALARM))
# rate_se comes from the spread over 16 dithers, so the rate error in SE
# units is Student t with 15 degrees of freedom.
RATE_DITHERS = 16
RATE_K = float(stats.t.isf(FALSE_ALARM / 2, RATE_DITHERS - 1))
# A point lies below the DP-RDF when its margin is more than BOUND_K
# combined standard errors under it (one-sided).  The SEs come from 16
# dithers or 20 batches; 15 degrees of freedom is the conservative choice.
BOUND_K = float(stats.t.isf(FALSE_ALARM, RATE_DITHERS - 1))
# Covers the plug-in entropy bias ((bins - 1) / 2n, ~2.5e-4 nats at step 0.1
# and n = 2e5) and the 1e-4 tolerance of the analytic rate quadrature.
RATE_FLOOR = 1e-3


def ks_scaled(report) -> list[float]:
    """sqrt(n) * D_n per axis of an evaluation report."""
    return [math.sqrt(report.n) * d for d, _ in report.ks_per_axis]


def check_report(report, analytic_rate: float | None = None) -> list[str]:
    """Check one ``harness.evaluate`` report.

    Fails on non-finite fields, a KS rejection on any axis, a point below
    the Gaussian DP-RDF by more than BOUND_K standard errors and, when
    ``analytic_rate`` is given (scalar cube lattice), a rate further from it
    than RATE_K standard errors plus RATE_FLOOR.
    """
    fields = [report.rate_nats_per_dim, report.rate_se, report.mse_per_dim,
              report.mse_se, *report.moment_errors.values(),
              *(d for d, _ in report.ks_per_axis)]
    if not all(math.isfinite(v) for v in fields):
        return ["non-finite report field"]
    reasons = []
    for axis, z in enumerate(ks_scaled(report)):
        if z > KS_CRIT:
            reasons.append(f"KS rejects axis {axis}: sqrt(n)*D_n = {z:.3f} "
                           f"> {KS_CRIT:.3f}")
    if report.scheme["source"]["family"] == "gaussian":
        cmp = harness.compare_to_bound(report)
        # compare_to_bound's tolerance is 3 combined standard errors.
        tol = BOUND_K * cmp["tolerance_nats"] / 3
        if cmp["margin_nats"] < -tol:
            reasons.append(f"below the DP-RDF by {-cmp['margin_nats']:.4g} "
                           f"nats (tolerance {tol:.3g})")
    if analytic_rate is not None:
        err = abs(report.rate_nats_per_dim - analytic_rate)
        tol = RATE_K * report.rate_se + RATE_FLOOR
        if err > tol:
            reasons.append(f"rate {report.rate_nats_per_dim:.6f} is "
                           f"{err:.3g} nats from the analytic "
                           f"{analytic_rate:.6f} (tolerance {tol:.3g})")
    return reasons


def check_coupling(coupling, tol: float) -> list[str]:
    """Check one ``bounds.sinkhorn_coupling`` result against its tolerance."""
    if not np.all(np.isfinite(coupling.joint)):
        return ["non-finite coupling"]
    res = coupling.marginal_residual()
    if not res <= tol:
        return [f"marginal residual {res:.3e} exceeds tolerance {tol:.1e}"]
    return []
