"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) and then
asserts, so a plain `pytest tests/test_acceptance.py` shows the scoreboard.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr
from scipy.stats import spearmanr

import dpquant.schemes
import dpquant.transform
from dpquant.bounds import (awgn_oracle_point, discrete_dp_rdf_curve,
                            dp_rdf_gaussian, rdf_gaussian, sinkhorn_coupling)
from dpquant.ecdq import ecdq_rate_analytic
from dpquant.harness import compare_to_bound, evaluate, rd_sweep
from dpquant.lattice import scaled_integer
from dpquant.prob import KS_ALPHA_005_COEFF, gaussian, ks_statistic
from dpquant.rng import stream_rng
from dpquant.schemes import (AwgnOracle, ResampleDpq, SimpleDpq, TransformDpq,
                             resample_dpq, simple_dpq, transform_dpq_decode,
                             transform_dpq_encode)
from dpquant.transform import (BivariateGaussian, dpq_transform,
                               gaussian_smoothed_transform, smoothed_cdf)


@pytest.fixture
def check(capsys):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""
    def _check(num, name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {num:02d}] {verdict} {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _check


def test_01_zero_rate_point(check):
    # Negative control: synthesis from N(0, 1.21) in place of the source law,
    # independent of x as the scheme is, has MSE 1 + 1.21 = 2.21 and must
    # fall outside the band.
    m = gaussian(0, 1)
    rep = evaluate(SimpleDpq(source=m, seed=0), 100_000, seed=0)

    def in_band(mse):
        return abs(mse - 2.0) <= 0.03

    x = m.sample(0, 100_000, stream=77).values
    wrong = simple_dpq(SimpleDpq(source=gaussian(0, 1.21), seed=0), x)
    mse_wrong = float(np.mean((x - wrong) ** 2))
    ok = (in_band(rep.mse_per_dim) and rep.rate_nats_per_dim == 0.0
          and not in_band(mse_wrong))
    check(1, "zero-rate synthesis: MSE = 2.00 +/- 0.03 at rate 0", ok,
           f"mse={rep.mse_per_dim:.4f}; variance-1.21 control "
           f"mse={mse_wrong:.4f}, rejected={not in_band(mse_wrong)}")


def test_02_awgn_curve_achievement(check):
    # Negative control: the scheme run with a noise variance 10% high must
    # land outside 3 SE of the eta2 point's distortion.
    ok = True
    details = []
    for eta2 in (0.25, 1.0, 4.0):
        oracle = awgn_oracle_point(1.0, eta2)

        def se_off(noise_var):
            rep = evaluate(AwgnOracle(source=gaussian(0, 1), seed=0,
                                      noise_var=noise_var), 1_000_000, seed=0)
            return rep, abs(rep.mse_per_dim - oracle.distortion) / rep.mse_se

        rep, off = se_off(eta2)
        _, off_wrong = se_off(1.1 * eta2)
        r_ok = rep.rate_nats_per_dim == oracle.rate
        analytic_ok = abs(oracle.rate
                          - dp_rdf_gaussian(1.0, oracle.distortion)) < 1e-9
        ok = ok and off <= 3 and r_ok and analytic_ok and off_wrong > 3
        details.append(f"eta2={eta2}: D={rep.mse_per_dim:.4f}, "
                       f"1.1*eta2 control {off_wrong:.0f} SE off, "
                       f"rejected={off_wrong > 3}")
    check(2, "scaled-AWGN scheme sits on the distortion bound curve", ok,
           "; ".join(details))


def test_03_dp_rdf_matches_discretized_solver(check):
    # An independent derivation of the Gaussian DP-RDF: N(0, 1) in equal
    # cells on +-5 sigma (the pmf is the Phi differences, renormalized) under
    # squared cost between the cell midpoints, traced by the coupling solver.
    # Negative controls, each of which must fail the same tolerance: the
    # classic RDF in place of the closed form, and the curve on 32 cells,
    # whose discretization error alone exceeds it.
    def worst_gap(cells, bound):
        edges = np.linspace(-5.0, 5.0, cells + 1)
        pmf = np.diff(ndtr(edges))
        pmf /= pmf.sum()
        mid = (edges[:-1] + edges[1:]) / 2
        pts = [p for p in discrete_dp_rdf_curve(pmf, np.subtract.outer(mid, mid) ** 2)
               if 0.02 <= p.distortion <= 1.5]
        return len(pts), max(abs(p.rate - bound(1.0, p.distortion)) for p in pts)

    tol = 2e-3
    count, err = worst_gap(64, dp_rdf_gaussian)
    _, err_rdf = worst_gap(64, rdf_gaussian)
    _, err_32 = worst_gap(32, dp_rdf_gaussian)
    ok = count >= 20 and err <= tol and err_rdf > tol and err_32 > tol
    check(3, "closed-form DP-RDF matches the solver on a 64-cell Gaussian", ok,
           f"{count} points in 0.02 <= D <= 1.5, max |R - bound|={err:.2e}; "
           f"classic-RDF control off by {err_rdf:.3f}, rejected={err_rdf > tol}; "
           f"32-cell control off by {err_32:.2e}, rejected={err_32 > tol}")


def test_04_resampling_3db_loss(check):
    # Negative control: the cell midpoint as the reconstruction, the base
    # quantizer itself, has ratio 1 and must fall outside the band.
    m = gaussian(0, 1)
    step = 0.05
    sc = ResampleDpq(source=m, seed=0, step=step)
    x = m.sample(0, 100_000, stream=77).values.ravel()
    j, _, xt = resample_dpq(sc, x)
    midpoint = (j + 0.5) * step
    mse_base = float(np.mean((x - midpoint) ** 2))

    def ratio_to_base(y):
        return float(np.mean((x - y) ** 2)) / mse_base

    def in_band(ratio):
        return 1.9 <= ratio <= 2.1

    ratio, ratio_mid = ratio_to_base(xt), ratio_to_base(midpoint)
    check(4, "in-cell resampling doubles the base quantizer MSE",
           in_band(ratio) and not in_band(ratio_mid),
           f"ratio={ratio:.3f}; midpoint control ratio={ratio_mid:.3f}, "
           f"rejected={not in_band(ratio_mid)}")


def test_05_distribution_preservation_all_rates(check, monkeypatch):
    # Negative controls, each decoding the same indices wrongly: without the
    # transform (X + U with U uniform on the cell, whose cdf is the cell
    # average F~ of the source cdf F), with a 2-node rule in place of the
    # cube's cell average at every step (the 32-node rule below sigma, the
    # closed form from sigma up), and with a decoder model of variance 1.21.
    # D is the sup over the grid of the control's cdf distance from F:
    # |F~ - F|, |u_2 - u| for the 2-node rule's smoothed cdf u_2 and the
    # cube's own u, and |F~(x) - F(F_w^-1(F~_w(x)))| for the wrong model's
    # F_w.  Where KS cannot resolve D at this n (sqrt(n) D below the 5%
    # coefficient 1.36), a control cannot fail and its row says so, with how
    # far the transform moves the outputs.
    m = gaussian(0, 1)
    wrong = gaussian(0, 1.21)
    n = 100_000
    grid = np.linspace(-8.0, 8.0, 16_001)
    ok = True
    details = []

    def two_node_rule(mp):  # the cube's Gaussian rule at every step, on 2 nodes
        mp.setattr(dpquant.transform, "_CUBE_RULE_SIGMAS", math.inf)
        mp.setattr(dpquant.transform, "_NODES", 2)

    for step in (0.1, 1.0, 4.0):
        lat = scaled_integer(step, 1)
        with monkeypatch.context() as mp:
            two_node_rule(mp)
            u_2 = smoothed_cdf(m, lat, grid)
        cell_cdf = m.cdf_average(grid - step / 2, grid + step / 2)
        wrong_cdf = m.cdf(wrong.icdf(
            wrong.cdf_average(grid - step / 2, grid + step / 2)))
        d_controls = {
            "untransformed": np.max(np.abs(cell_cdf - m.cdf(grid))),
            "2-node": np.max(np.abs(u_2 - smoothed_cdf(m, lat, grid))),
            "variance-1.21": np.max(np.abs(cell_cdf - wrong_cdf)),
        }
        passes = shift = 0
        rejected = dict.fromkeys(d_controls, 0)
        for seed in (0, 1, 2):
            sc = TransformDpq(source=m, seed=seed, lattice=lat)
            x = m.sample(seed, n, stream=77).values
            indices = transform_dpq_encode(sc, x)
            decoded = transform_dpq_decode(sc, indices)
            passes += ks_statistic(m.cdf(decoded))[1]
            controls = {}
            with monkeypatch.context() as mp:
                mp.setattr(dpquant.schemes, "dpq_transform",
                           lambda model, lat, x_hat: x_hat)
                controls["untransformed"] = transform_dpq_decode(sc, indices)
            with monkeypatch.context() as mp:
                two_node_rule(mp)
                controls["2-node"] = transform_dpq_decode(sc, indices)
            controls["variance-1.21"] = transform_dpq_decode(
                TransformDpq(source=wrong, seed=seed, lattice=lat), indices)
            for name, y in controls.items():
                rejected[name] += not ks_statistic(m.cdf(y))[1]
            shift = max(shift, np.max(np.abs(decoded - controls["untransformed"])))
        ok = ok and passes >= 2
        notes = [f"{passes}/3 seeds"]
        for name, d in d_controls.items():
            if math.sqrt(n) * d > KS_ALPHA_005_COEFF:
                ok = ok and rejected[name] >= 2
                notes.append(f"{name} control rejected on {rejected[name]}/3")
            else:
                notes.append(f"{name} control: no power at n = 1e5, sqrt(n)*D = "
                             f"{math.sqrt(n) * d:.2g} < {KS_ALPHA_005_COEFF}")
        notes.append(f"the transform moves an output by at most "
                     f"{shift / step:.2f} cell")
        details.append(f"step={step}: " + ", ".join(notes))
    check(5, "transform scheme output passes KS at every rate", ok,
           "; ".join(details))


def test_06_high_rate_mse_gap(check):
    m = gaussian(0, 1)
    # Monte-Carlo paired ratio at step 0.1
    step = 0.1
    lat = scaled_integer(step, 1)
    x = m.sample(0, 100_000, stream=77).values
    z = lat.sample_dither(stream_rng(0, 78), len(x))
    _, pt = lat.nearest_point(x + z)
    x_hat = pt - z
    xt = dpq_transform(m, lat, x_hat)
    ratio = float(np.mean((x - xt) ** 2) / np.mean((x - x_hat) ** 2))
    band_ok = 0.95 <= ratio <= 1.05

    # exact quadrature of E|X - g(X_hat)|^2: relative gap shrinks with step.
    # Negative control: the untransformed x_hat through the same quadrature,
    # whose gaps are rounding noise of order 1e-15, must not pass.
    tx, wx = hermgauss(200)
    te, we = leggauss(64)

    def rel_gaps(transform):
        gaps = []
        for s in (0.4, 0.2, 0.1):
            xq = math.sqrt(2) * tx
            eq = (s / 2) * te
            X, E = np.meshgrid(xq, eq, indexing="ij")
            g = transform(scaled_integer(s, 1), X + E)
            mse = float(np.einsum("i,j,ij->", wx / math.sqrt(math.pi),
                                  we / 2, (X - g) ** 2))
            gaps.append(1.0 - mse / (s * s / 12.0))
        return gaps

    def vanishing(gaps):
        return gaps[0] > gaps[1] > gaps[2] and min(gaps) >= 1e-6

    gaps = rel_gaps(lambda lat, xh: dpq_transform(
        m, lat, xh.ravel()[:, None]).reshape(xh.shape))
    gaps_id = rel_gaps(lambda lat, xh: xh)
    check(6, "high-rate MSE matches dithered quantization, gap vanishing",
           band_ok and vanishing(gaps) and not vanishing(gaps_id),
           f"ratio={ratio:.4f}; rel gaps={[f'{g:.2e}' for g in gaps]}; "
           f"untransformed control gaps={[f'{g:.1e}' for g in gaps_id]}, "
           f"rejected={not vanishing(gaps_id)}")


def test_07_box_bound(check):
    # Negative control: the smoothed cdf under a variance-1.21 model,
    # inverted under the true one, must move some coordinate out of the box.
    m = gaussian(0, 1, dim=3)
    lat = scaled_integer(0.5, 3)
    rng = stream_rng(0, 79)
    x_hat = rng.uniform(-4, 4, size=(10_000, 3))

    def worst_move(g):
        return float(np.max(np.abs(g - x_hat)))

    def in_box(move):
        return move <= 0.25 + 1e-9

    worst = worst_move(dpq_transform(m, lat, x_hat))
    wrong = worst_move(m.icdf(smoothed_cdf(gaussian(0, 1.21, dim=3), lat, x_hat)))
    check(7, "transform moves each coordinate at most half a cell",
           in_box(worst) and not in_box(wrong),
           f"max move={worst:.6f}; variance-1.21 control max move={wrong:.3f}, "
           f"rejected={not in_box(wrong)}")


def test_08_dp_rdf_lower_bound(check):
    # Negative control: the transform's reports with 90% of their measured
    # rate; the bound check must reject at least one of them.
    src = gaussian(0, 1)
    sweeps = [("transform", [0.1, 0.5, 1.0, 2.0, 4.0]),
              ("resample", [0.05, 0.2, 0.5, 1.0]),
              ("awgn", [0.25, 1.0, 4.0]),
              ("simple", [1.0])]
    ok = True
    worst = math.inf
    rejected = 0
    for family, grid in sweeps:
        for _, rep in rd_sweep(family, grid, src, 50_000, seed=0):
            verdict = compare_to_bound(rep)
            ok = ok and verdict["above_bound"]
            worst = min(worst, verdict["margin_nats"] + verdict["tolerance_nats"])
            if family == "transform":
                low = dataclasses.replace(
                    rep, rate_nats_per_dim=0.9 * rep.rate_nats_per_dim)
                rejected += not compare_to_bound(low)["above_bound"]
    check(8, "every sweep point of every scheme respects the lower bound",
           ok and rejected > 0,
           f"worst margin+tol={worst:.4f} nats; 0.9-rate transform control "
           f"rejected at {rejected}/{len(sweeps[0][1])} points")


def test_09_discrete_solver_vs_oracle(check):
    # The reference is exact: a uniform pmf over m symbols under Hamming cost
    # has DP-RDF = RDF = ln m - h(d) - d ln(m - 1), as the RDF's symmetric
    # test channel has two uniform marginals.  Negative control: the coupling
    # solved only to a residual of 1e-2, whose rate, cost and residual each
    # miss their gate, must not pass.
    m, d = 3, 0.11
    pmf = [1 / m] * m
    cost = 1.0 - np.eye(m)
    # Lagrange multiplier that puts the symmetric optimum exactly at cost d
    lam = math.log((1 - d) * (m - 1) / d)
    closed = (math.log(m) + d * math.log(d) + (1 - d) * math.log(1 - d)
              - d * math.log(m - 1))

    def passes(coupling):
        return (abs(coupling.mutual_information() - closed) <= 1e-9
                and abs(coupling.expected_cost() - d) <= 1e-6
                and coupling.marginal_residual() <= 1e-8)

    coupling = sinkhorn_coupling(pmf, cost, lam)
    loose = sinkhorn_coupling(pmf, cost, lam, tol=1e-2)
    rate, loose_rate = coupling.mutual_information(), loose.mutual_information()
    check(9, "discrete solver matches the closed form",
           passes(coupling) and not passes(loose),
           f"m={m}: rate={rate:.10f}, closed={closed:.10f}, "
           f"off by {abs(rate - closed):.1e}; "
           f"tol=1e-2 control rate off by {abs(loose_rate - closed):.4f}, "
           f"residual={loose.marginal_residual():.1e}, "
           f"rejected={not passes(loose)}")


def test_10_rosenblatt_correctness(check):
    bg = BivariateGaussian(rho=0.8)
    rng = stream_rng(0, 80)
    gn = rng.standard_normal((100_000, 2))
    x = np.column_stack([gn[:, 0], 0.8 * gn[:, 0]
                         + math.sqrt(1 - 0.64) * gn[:, 1]])
    u = bg.cdf(x)
    ks_ok = all(ks_statistic(u[:, i])[1] for i in range(2))
    rho_s = abs(spearmanr(u[:, 0], u[:, 1]).statistic)
    back = bg.icdf(u)
    inv_err = float(np.max(np.abs(back - x)))
    # Negative control: the rho = 0 map leaves the pair correlated
    u_0 = BivariateGaussian(rho=0.0).cdf(x)
    rho_0 = abs(spearmanr(u_0[:, 0], u_0[:, 1]).statistic)
    ok = ks_ok and rho_s < 0.02 and inv_err < 1e-7 and rho_0 >= 0.02
    check(10, "sequential uniformization is exact and decorrelating", ok,
           f"|rank corr|={rho_s:.4f}, inverse err={inv_err:.1e}; rho=0 control "
           f"|rank corr|={rho_0:.3f}, rejected={rho_0 >= 0.02}")


def test_11_asymptotic_transform_closed_form(check, monkeypatch):
    # Negative control: the quadrature on 4 Gauss-Hermite nodes must miss the
    # linear map by more than the tolerance.
    mu, var, eta = 0.5, 2.0, 0.8
    m = gaussian(mu, var)
    xs = np.linspace(mu - 5 * math.sqrt(var), mu + 5 * math.sqrt(var), 100)
    want = math.sqrt(var / (var + eta * eta)) * (xs - mu) + mu

    def max_err():
        return float(np.max(np.abs(gaussian_smoothed_transform(m, eta, xs)
                                   - want)))

    err = max_err()
    monkeypatch.setattr(dpquant.transform, "_HERMITE_NODES", 4)
    err_4 = max_err()
    check(11, "Gaussian-noise smoothing collapses to the linear map",
           err < 1e-6 and err_4 >= 1e-6,
           f"max err={err:.1e}; 4-node control max err={err_4:.1e}, "
           f"rejected={err_4 >= 1e-6}")


def test_12_synthesis_end(check, monkeypatch):
    # PAPER.md's "seamless transition between signal synthesis and
    # quantization": at a step of 64 sigma the transform scheme's rate is
    # near 0, and its output must still follow the source law, at a point
    # between the simple scheme's (0, 2 sigma^2) and the DP-RDF.  The rate is
    # `ecdq_rate_analytic`, at the measured D.  Negative controls: the
    # 32-node rule in place of the cube's closed-form cell average, which KS
    # must reject, D being its grid distance from the closed form as in
    # criterion 05; and the simple scheme's rate 0 at the measured D, which
    # the bound check must reject.
    m = gaussian(0, 1)
    lat = scaled_integer(64.0, 1)
    n = 1_000_000
    grid = np.linspace(-40.0, 40.0, 16_001)

    def rule(mp):  # the cube's Gaussian rule at every step
        mp.setattr(dpquant.transform, "_CUBE_RULE_SIGMAS", math.inf)

    with monkeypatch.context() as mp:
        rule(mp)
        u_32 = smoothed_cdf(m, lat, grid)
    d_rule = float(np.max(np.abs(u_32 - smoothed_cdf(m, lat, grid))))
    power = math.sqrt(n) * d_rule > KS_ALPHA_005_COEFF
    passes = rejected = 0
    for seed in (0, 1, 2):
        sc = TransformDpq(source=m, seed=seed, lattice=lat)
        x = m.sample(seed, n, stream=77).values
        passes += ks_statistic(m.cdf(sc.run(x, 0)[0]))[1]
        with monkeypatch.context() as mp:
            rule(mp)
            rejected += not ks_statistic(m.cdf(sc.run(x, 0)[0]))[1]

    rep = evaluate(TransformDpq(source=m, seed=0, lattice=lat), 200_000, seed=1)
    rate = ecdq_rate_analytic(m, lat)

    def bound_check(r):
        return compare_to_bound(dataclasses.replace(
            rep, rate_nats_per_dim=r, rate_se=0.0))

    above, zero = bound_check(rate), bound_check(0.0)
    d, d_se = rep.mse_per_dim, rep.mse_se
    between = 0.0 < rate and d < 2.0 - 3.0 * d_se and above["above_bound"]
    ok = (passes >= 2 and power and rejected >= 2 and between
          and not zero["above_bound"])
    check(12, "synthesis end: output on the source law at step 64 sigma", ok,
          f"{passes}/3 seeds pass KS at n = 1e6; 32-node rule control "
          f"rejected on {rejected}/3, its grid sqrt(n)*D = "
          f"{math.sqrt(n) * d_rule:.2f}; rate={rate:.4f} nats, "
          f"mse={d:.4f} +/- {d_se:.4f}, bound margin "
          f"{above['margin_nats']:.4f}; rate-0 control margin "
          f"{zero['margin_nats']:.4f} (tolerance {zero['tolerance_nats']:.4f}), "
          f"rejected={not zero['above_bound']}")
