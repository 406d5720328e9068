import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpquant.bounds import (_EXP_ZERO, _LAMBDAS, RdPoint, _exp,
                            awgn_oracle_point, check_pmf,
                            discrete_dp_rdf_curve, dp_rdf_gaussian,
                            rdf_gaussian, sinkhorn_coupling, slb_mse)
from dpquant.prob import gaussian

# frozen from the jointly-Gaussian mutual-information oracle -0.5 ln(1 - rho^2),
# rho = 1 - D/2
DP_RDF_1_1 = 0.14384103622589045
DP_RDF_1_025 = 0.7254164411287309

HAMMING2 = 1.0 - np.eye(2)


@st.composite
def _distortion_problems(draw):
    m = draw(st.integers(2, 8))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    upper = draw(st.lists(st.floats(0.0, 5.0), min_size=m * (m - 1) // 2,
                          max_size=m * (m - 1) // 2))
    cost = np.zeros((m, m))
    cost[np.triu_indices(m, 1)] = upper
    lam = draw(st.floats(0.0, 100.0))
    return weights / weights.sum(), cost + cost.T, lam


class TestGaussianClosedForms:
    def test_dp_rdf_zero_branch(self):
        assert dp_rdf_gaussian(1.0, 2.0) == 0.0

    def test_dp_rdf_at_one(self):
        assert dp_rdf_gaussian(1.0, 1.0) == pytest.approx(DP_RDF_1_1, abs=1e-6)

    def test_dp_rdf_at_quarter(self):
        assert dp_rdf_gaussian(1.0, 0.25) == pytest.approx(DP_RDF_1_025, abs=1e-6)

    def test_dp_rdf_matches_awgn_point(self):
        pt = awgn_oracle_point(1.0, 1.0)
        assert dp_rdf_gaussian(1.0, pt.distortion) == pytest.approx(pt.rate, abs=1e-6)

    def test_dp_rdf_zero_distortion_sentinel(self):
        assert dp_rdf_gaussian(1.0, 0.0) == math.inf

    def test_rdf_zero_branch(self):
        assert rdf_gaussian(1.0, 1.0) == 0.0

    def test_rdf_quarter(self):
        assert rdf_gaussian(1.0, 0.25) == pytest.approx(math.log(2), abs=1e-6)

    def test_gap_vanishes_at_high_rate(self):
        for d in (1e-3, 1e-5, 1e-7):
            gap = dp_rdf_gaussian(1.0, d) - rdf_gaussian(1.0, d)
            assert 0 <= gap < d  # gap = 0.5 ln(1/(1 - D/4)) ~ D/8

    def test_monotone_and_convex(self):
        var = 1.0
        ds = np.linspace(1e-4, 2 * var, 200)
        r = np.array([dp_rdf_gaussian(var, d) for d in ds])
        assert np.all(np.diff(r) <= 1e-12)
        assert np.all(np.diff(r, 2) >= -1e-9)

    def test_dp_rdf_dominates_rdf(self):
        for d in np.linspace(1e-4, 2, 200):
            assert dp_rdf_gaussian(1.0, d) >= rdf_gaussian(1.0, d) - 1e-12


class TestSlb:
    def test_tight_for_gaussian(self):
        assert slb_mse(gaussian(0, 1), 0.25) == pytest.approx(math.log(2), abs=1e-6)

    def test_zero_at_variance(self):
        assert slb_mse(gaussian(0, 1), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_at_zero_distortion(self):
        assert slb_mse(gaussian(0, 1), 0.0) == math.inf

    def test_quartering_identity_before_floor(self):
        # R(4D) = R(D) - ln 2 wherever the floor is inactive
        m = gaussian(0, 1)
        d = 0.01
        assert slb_mse(m, 4 * d) == pytest.approx(slb_mse(m, d) - math.log(2), abs=1e-9)


class TestAwgnOracle:
    def test_unit_point(self):
        pt = awgn_oracle_point(1.0, 1.0)
        assert pt.rate == pytest.approx(0.34657359027997264, abs=1e-6)
        assert pt.distortion == pytest.approx(2 - math.sqrt(2), abs=1e-6)

    def test_zero_rate_limit(self):
        pt = awgn_oracle_point(1.0, 1e12)
        assert pt.distortion == pytest.approx(2.0, abs=1e-5)
        assert pt.rate == pytest.approx(0.0, abs=1e-5)

    def test_high_rate_limit(self):
        pt = awgn_oracle_point(1.0, 1e-12)
        assert pt.distortion < 1e-5
        assert pt.rate > 10

    def test_sweep_traces_dp_rdf(self):
        for nv in np.geomspace(1e-3, 1e3, 50):
            pt = awgn_oracle_point(1.0, nv)
            assert abs(pt.rate - dp_rdf_gaussian(1.0, pt.distortion)) < 1e-9


class TestNonFiniteRefused:
    # NaN slipped past every `x < 0` range check and inf past most: these
    # returned NaN, inf or 0 in place of an error
    NAN, INF = math.nan, math.inf

    @pytest.mark.parametrize("var,d", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF)])
    def test_dp_rdf_gaussian(self, var, d):
        with pytest.raises(ValueError):
            dp_rdf_gaussian(var, d)

    @pytest.mark.parametrize("var,d", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (1.0, INF)])
    def test_rdf_gaussian(self, var, d):
        with pytest.raises(ValueError):
            rdf_gaussian(var, d)

    @pytest.mark.parametrize("d", [NAN, INF, -1.0])
    def test_slb_mse(self, d):
        with pytest.raises(ValueError):
            slb_mse(gaussian(0, 1), d)

    @pytest.mark.parametrize("var,noise_var", [(NAN, 1.0), (1.0, NAN), (INF, 1.0),
                                               (1.0, INF)])
    def test_awgn_oracle_point(self, var, noise_var):
        with pytest.raises(ValueError):
            awgn_oracle_point(var, noise_var)

    @pytest.mark.parametrize("rate,d", [(NAN, 1.0), (1.0, NAN)])
    def test_rd_point(self, rate, d):
        with pytest.raises(ValueError):
            RdPoint(rate=rate, distortion=d)


class TestCheckPmf:
    def test_bad_pmf(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_pmf([0.5, 0.6])
        with pytest.raises(ValueError, match="sum to 1"):
            check_pmf([-0.1, 1.1])

    @pytest.mark.parametrize("pmf", [[math.nan, 0.5], [0.5, math.inf]],
                             ids=["pmf-nan", "pmf-inf"])
    def test_non_finite_refused(self, pmf):
        with pytest.raises(ValueError, match="finite"):
            check_pmf(pmf)

    def test_longer_than_solver_limit_refused(self):
        with pytest.raises(ValueError, match="at most 64 entries, not 65"):
            check_pmf([1 / 65] * 65)

    def test_distribution_accepted_as_float_array(self):
        p = check_pmf([0.2, 0.3, 0.5])
        assert p.dtype == float and np.array_equal(p, [0.2, 0.3, 0.5])
        assert check_pmf([1 / 64] * 64).size == 64

    def test_solver_refuses_mass_above_one(self):
        # the solver used to return a coupling of mass 1.1, residual 8e-13
        with pytest.raises(ValueError, match="sum to 1"):
            sinkhorn_coupling([0.5, 0.6], HAMMING2, 1.0)

    def test_curve_refuses_mass_below_one(self):
        # the curve used to return 64 points for a pmf of mass 0.75
        with pytest.raises(ValueError, match="sum to 1"):
            discrete_dp_rdf_curve([0.25, 0.25, 0.25], 1.0 - np.eye(3))


class TestSinkhorn:
    def test_lambda_zero_is_product_coupling(self):
        p = [0.3, 0.7]
        c = sinkhorn_coupling(p, HAMMING2, 0.0)
        assert c.mutual_information() == pytest.approx(0.0, abs=1e-12)
        assert c.expected_cost() == pytest.approx(2 * 0.3 * 0.7, abs=1e-10)

    def test_marginals_pinned(self):
        c = sinkhorn_coupling([0.2, 0.8], HAMMING2, 3.0)
        assert c.marginal_residual() < 1e-8

    def test_large_lambda_diagonal_limit(self):
        p = [0.25, 0.25, 0.25, 0.25]
        c = sinkhorn_coupling(p, 1.0 - np.eye(4), 50.0)
        assert c.expected_cost() < 1e-3
        assert c.mutual_information() == pytest.approx(math.log(4), abs=1e-2)

    def test_curve_shape(self):
        pts = discrete_dp_rdf_curve([0.5, 0.5], HAMMING2)
        pts = sorted(pts, key=lambda q: q.distortion)
        rates = [q.rate for q in pts]
        assert all(r1 >= r2 - 1e-9 for r1, r2 in zip(rates, rates[1:]))

    @pytest.mark.parametrize("pmf,cost", [
        (np.full(16, 1 / 16), np.subtract.outer(np.arange(16.0), np.arange(16.0)) ** 2),
        ([0.2, 0.0, 0.3, 0.5], 1.0 - np.eye(4)),
    ], ids=["uniform16-squared", "zero-symbol-hamming"])
    def test_curve_equals_separate_solves(self, pmf, cost):
        # the curve checks its inputs and builds its tables once; each point
        # must still be the one sinkhorn_coupling gives alone, bit for bit
        want = []
        for lam in _LAMBDAS:
            c = sinkhorn_coupling(pmf, cost, float(lam))
            want.append(RdPoint(rate=max(0.0, c.mutual_information()),
                                distortion=c.expected_cost()))
        assert discrete_dp_rdf_curve(pmf, cost) == want

    def test_lambda_negative_refused(self):
        with pytest.raises(ValueError):
            sinkhorn_coupling([0.5, 0.5], HAMMING2, -1.0)

    def test_binary_hamming_exact_at_every_lambda(self):
        # the optimal coupling puts d = 1/(1 + e^lam) off the diagonal, so
        # I = ln 2 - H_b(d) and the expected Hamming cost is d
        for lam in _LAMBDAS:
            c = sinkhorn_coupling([0.5, 0.5], HAMMING2, float(lam))
            d = 1.0 / (1.0 + math.exp(lam))
            hb = -(d * math.log(d) + (1 - d) * math.log1p(-d))
            assert c.mutual_information() == pytest.approx(math.log(2) - hb, abs=1e-9)
            assert c.expected_cost() == pytest.approx(d, abs=1e-9)

    def test_ternary_hamming_converges_at_every_lambda(self):
        p = [0.2, 0.3, 0.5]
        for lam in _LAMBDAS:
            assert sinkhorn_coupling(p, 1.0 - np.eye(3), float(lam)).marginal_residual() < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 16, 64])
    def test_random_distortion_measures_converge(self, m):
        # Dirichlet(0.3) pmfs with one entry forced to 1e-15, and symmetric
        # zero-diagonal costs with entries in [0, 1)
        rng = np.random.default_rng(m)
        for _ in range(10):
            pmf = np.maximum(rng.dirichlet(np.full(m, 0.3)), 1e-15)
            pmf[0] = 1e-15
            pmf /= pmf.sum()
            upper = np.triu(rng.random((m, m)), 1)
            cost = upper + upper.T
            for lam in [*_LAMBDAS, 1e3]:
                c = sinkhorn_coupling(pmf, cost, float(lam))
                assert c.marginal_residual() < 1e-10

    def test_zero_probability_symbol_gets_zero_row_and_column(self):
        c = sinkhorn_coupling([0.5, 0.0, 0.5], 1.0 - np.eye(3), 2.0)
        assert np.all(c.joint[1] == 0) and np.all(c.joint[:, 1] == 0)
        assert c.marginal_residual() < 1e-10

    def test_masked_exp_is_exp_bit_for_bit(self):
        assert np.exp(_EXP_ZERO) == 0.0
        x = np.concatenate([np.linspace(-800.0, 710.0, 100_001),
                            np.linspace(-745.13, -708.4, 10_001),  # subnormal results
                            [_EXP_ZERO, np.nextafter(_EXP_ZERO, 0.0), -np.inf, np.nan]])
        with np.errstate(over="ignore"):
            got, want = _exp(x), np.exp(x)
        assert np.isnan(got[-1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the solver's 2-D tables, across the subnormal band
        x = x[:10_000].reshape(100, 100)
        assert np.array_equal(_exp(x).view(np.int64), np.exp(x).view(np.int64))

    def test_kernel_need_not_be_positive_semidefinite(self):
        # exp(-lam e) has an eigenvalue of -0.276 here; the Newton matrix
        # diag(r) + P stays positive definite through its 2 P_ii margin
        cost = np.array([[0.0, 0.1, 5.0], [0.1, 0.0, 0.1], [5.0, 0.1, 0.0]])
        assert np.linalg.eigvalsh(np.exp(-cost)).min() < -0.27
        c = sinkhorn_coupling([0.3, 0.4, 0.3], cost, 1.0)
        assert c.marginal_residual() < 1e-10
        assert np.array_equal(c.joint, c.joint.T)

    @pytest.mark.parametrize("cost,match", [
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric with a zero diagonal"),
        (np.array([[0.5, 1.0], [1.0, 0.0]]), "symmetric with a zero diagonal"),
        (1.0 - np.eye(3), "m x m"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "nonnegative"),
        (np.array([[0.0, math.nan], [math.nan, 0.0]]), "finite"),
    ], ids=["asymmetric", "nonzero-diagonal", "wrong-shape", "negative", "nan"])
    def test_cost_outside_distortion_measures_refused(self, cost, match):
        with pytest.raises(ValueError, match=match):
            sinkhorn_coupling([0.5, 0.5], cost, 1.0)

    def test_too_few_newton_steps_raise(self):
        # negative control: 3 Newton steps do not reach tol at lam = 1 on the
        # m = 64 Gaussian-shaped pmf under squared cost
        i = np.arange(64)
        pmf = np.exp(-((i - 31.5) / 10.0) ** 2 / 2)
        cost = (i[:, None] - i[None, :]).astype(float) ** 2
        with pytest.raises(RuntimeError, match="after 3 Newton steps"):
            sinkhorn_coupling(pmf / pmf.sum(), cost, 1.0, max_iter=3)

    @settings(derandomize=True, deadline=None)
    @given(_distortion_problems())
    def test_coupling_properties(self, problem):
        pmf, cost, lam = problem
        c = sinkhorn_coupling(pmf, cost, lam)
        assert np.array_equal(c.joint, c.joint.T)
        assert c.marginal_residual() < 1e-10
        # a product coupling (lam = 0 or a zero cost) sums to -1.5e-16 in
        # floating point; the curve clamps its rates at 0
        assert c.mutual_information() >= -1e-12


def _uniform_hamming_gap(m, rate, d):
    """Rate minus ln m - h(d) - d ln(m - 1), in nats, for 0 < d <= 1 - 1/m:
    the DP-RDF of a uniform pmf over m symbols under Hamming cost.  It equals
    the RDF, whose test channel is symmetric and so has two uniform marginals
    (Cover & Thomas 10.3.1)."""
    h = -(d * math.log(d) + (1 - d) * math.log1p(-d))
    return rate - (math.log(m) - h - d * math.log(m - 1))


class TestUniformHammingClosedForm:
    @pytest.mark.parametrize("m", [2, 3, 8, 64])
    def test_curve_meets_closed_form(self, m):
        pts = discrete_dp_rdf_curve([1 / m] * m, 1.0 - np.eye(m))
        gaps = [_uniform_hamming_gap(m, p.rate, p.distortion) for p in pts]
        assert max(map(abs, gaps)) <= 1e-8

    def test_perturbed_optimum_rejected(self):
        # negative control: eps moved around an off-diagonal cycle of the
        # m = 3 optimum at d = 0.11 keeps both marginals and the cost, yet
        # raises the rate 0.0173 nats above the closed form
        m, d, eps = 3, 0.11, 0.01
        opt = sinkhorn_coupling([1 / m] * m, 1.0 - np.eye(m),
                                math.log((1 - d) * (m - 1) / d))
        joint = opt.joint.copy()
        for i, j, sign in [(0, 1, 1), (0, 2, -1), (1, 2, 1),
                           (1, 0, -1), (2, 0, 1), (2, 1, -1)]:
            joint[i, j] += sign * eps
        moved = dataclasses.replace(opt, joint=joint)
        assert moved.marginal_residual() < 1e-15
        assert moved.expected_cost() == pytest.approx(d, abs=1e-15)
        gap, moved_gap = (_uniform_hamming_gap(m, c.mutual_information(),
                                               c.expected_cost())
                          for c in (opt, moved))
        assert abs(gap) <= 1e-8 < abs(moved_gap)
        assert moved_gap == pytest.approx(0.0173, abs=1e-4)
