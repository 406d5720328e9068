"""Negative controls: every correctness check rejects a known-bad output."""

import dataclasses
import math

import numpy as np
import pytest

import dpquant.harness
import dpquant.schemes
from dpquant.bounds import Coupling
from dpquant.ecdq import ecdq_rate_analytic
from dpquant.harness import evaluate
from dpquant.lattice import scaled_integer
from dpquant.prob import gaussian
from dpquant.schemes import TransformDpq

from perfbench import checks, workloads

N = 200_000
SEED = 11


def _cube_report(step=1.0):
    return evaluate(TransformDpq(gaussian(0, 1), SEED, scaled_integer(step)),
                    N, SEED)


@pytest.fixture(scope="module")
def analytic():
    return ecdq_rate_analytic(gaussian(0, 1), scaled_integer(1.0))


def test_correct_transform_passes(analytic):
    assert checks.check_report(_cube_report(), analytic) == []


def test_untransformed_ecdq_output_is_rejected(monkeypatch, analytic):
    monkeypatch.setattr(dpquant.schemes, "dpq_transform",
                        lambda model, lat, x_hat: x_hat)
    reasons = checks.check_report(_cube_report(), analytic)
    assert any("KS rejects" in r for r in reasons)


def test_output_with_wrong_variance_is_rejected(monkeypatch, analytic):
    real = dpquant.schemes.dpq_transform
    monkeypatch.setattr(dpquant.schemes, "dpq_transform",
                        lambda model, lat, x_hat: math.sqrt(1.5) * real(model, lat, x_hat))
    reasons = checks.check_report(_cube_report(), analytic)
    assert any("KS rejects" in r for r in reasons)


def test_rate_under_wrong_variance_model_is_rejected(monkeypatch, analytic):
    real = dpquant.harness.ecdq_rate_empirical

    def wrong_rate(lat, model, n, **kwargs):
        return real(lat, gaussian(0, 0.25), n, **kwargs)

    monkeypatch.setattr(dpquant.harness, "ecdq_rate_empirical", wrong_rate)
    reasons = checks.check_report(_cube_report(), analytic)
    assert any("from the analytic" in r for r in reasons)
    assert any("below the DP-RDF" in r for r in reasons)


def test_non_finite_report_is_rejected():
    report = evaluate(dpquant.schemes.SimpleDpq(gaussian(0, 1), SEED), 10_000, SEED)
    assert checks.check_report(report) == []
    bad = dataclasses.replace(report, mse_se=math.nan)
    assert checks.check_report(bad) == ["non-finite report field"]


def test_sinkhorn_with_tiny_max_iter_fails():
    pmf, cost = workloads.sinkhorn_inputs()
    ok = workloads.run_unit(["ok"], lambda: [workloads.sinkhorn_op(
        "ok", pmf, cost, 0.01)])
    assert not ok[0].failed
    bad = workloads.run_unit(["tiny"], lambda: [workloads.sinkhorn_op(
        "tiny", pmf, cost, 1.0, max_iter=3)])
    assert bad[0].failed and bad[0].value is None
    assert "RuntimeError" in bad[0].reasons[0]


def test_coupling_off_its_marginals_is_rejected():
    pmf, cost = workloads.sinkhorn_inputs()
    unscaled = np.outer(pmf, pmf) * np.exp(-1.0 * cost)
    coupling = Coupling(joint=unscaled, row_marginal=pmf, col_marginal=pmf,
                        cost=cost)
    reasons = checks.check_coupling(coupling, workloads.SINKHORN_TOL)
    assert reasons and "marginal residual" in reasons[0]


def test_check_levels_are_strict_but_finite():
    # About 1e-6 false alarms per check: far beyond the 5% KS gate of the
    # harness, yet well below the untransformed control (~4.7 at n = 2e5).
    assert 2.6 < checks.KS_CRIT < 2.8
    assert 7 < checks.RATE_K < 9
