import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpquant.bounds import (_LAMBDAS, awgn_oracle_point, check_pmf,
                            discrete_dp_rdf_bruteforce, discrete_dp_rdf_curve,
                            dp_rdf_gaussian, dp_rdf_sandwich_gaussian,
                            rdf_gaussian, sinkhorn_coupling, slb_mse)
from dpquant.prob import gaussian, plugin_entropy

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

    def test_quartering_identity_before_floor(self):
        # R(4D) = R(D) - ln 2 wherever the floor is inactive
        m = gaussian(0, 1)
        d = 0.01
        assert slb_mse(m, 4 * d) == pytest.approx(slb_mse(m, d) - math.log(2), abs=1e-9)


class TestSandwich:
    def test_point_values(self):
        lo, hi = dp_rdf_sandwich_gaussian(1.0, 1.0)
        assert lo == 0.0
        assert hi == pytest.approx(DP_RDF_1_1, abs=1e-6)

    def test_quarter(self):
        lo, hi = dp_rdf_sandwich_gaussian(1.0, 0.25)
        assert lo == pytest.approx(math.log(2), abs=1e-6)
        assert hi == pytest.approx(DP_RDF_1_025, abs=1e-6)

    def test_identity_and_bracket_on_grid(self):
        var = 1.0
        for d in np.linspace(0.01, 2 * var, 200, endpoint=False)[1:]:
            lo, hi = dp_rdf_sandwich_gaussian(var, d)
            r = dp_rdf_gaussian(var, d)
            assert abs(hi - r) < 1e-9
            assert lo - 1e-12 <= r <= hi + 1e-12

    def test_out_of_regime_refused(self):
        with pytest.raises(ValueError):
            dp_rdf_sandwich_gaussian(1.0, 2.0)


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

    def test_oracle_refuses_mass_below_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            discrete_dp_rdf_bruteforce([0.25, 0.25], HAMMING2, 0.5)


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

    def test_matches_binary_closed_form(self):
        # bisect lambda so the expected Hamming cost hits 0.11, then compare
        # with ln 2 - H_b(0.11)
        p = [0.5, 0.5]
        lo, hi = 0.01, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if sinkhorn_coupling(p, HAMMING2, mid).expected_cost() > 0.11:
                lo = mid
            else:
                hi = mid
        c = sinkhorn_coupling(p, HAMMING2, lo)
        hb = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
        assert c.mutual_information() == pytest.approx(math.log(2) - hb, abs=1e-3)

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

    @pytest.mark.parametrize("cost", [
        np.array([[0.0, 1.0], [2.0, 0.0]]),
        np.array([[0.5, 1.0], [1.0, 0.0]]),
    ], ids=["asymmetric", "nonzero-diagonal"])
    def test_cost_outside_distortion_measures_refused(self, cost):
        with pytest.raises(ValueError, match="symmetric with a zero diagonal"):
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


class TestBruteForce:
    def test_binary_closed_form(self):
        r = discrete_dp_rdf_bruteforce([0.5, 0.5], HAMMING2, 0.11)
        hb = -(0.11 * math.log(0.11) + 0.89 * math.log(0.89))
        assert r == pytest.approx(math.log(2) - hb, abs=1e-3)

    def test_independent_coupling_reaches_half(self):
        assert discrete_dp_rdf_bruteforce([0.5, 0.5], HAMMING2, 0.5) == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_source(self):
        assert discrete_dp_rdf_bruteforce([1.0, 0.0], HAMMING2, 0.01) == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_refused(self):
        with pytest.raises(ValueError):
            discrete_dp_rdf_bruteforce([0.5, 0.5], HAMMING2, -0.5)

    def test_ternary_against_sinkhorn(self):
        p = [1 / 3] * 3
        cost = 1.0 - np.eye(3)
        c = sinkhorn_coupling(p, cost, 2.5)
        d = c.expected_cost()
        r_bf = discrete_dp_rdf_bruteforce(p, cost, d)
        assert r_bf == pytest.approx(c.mutual_information(), abs=2e-3)
