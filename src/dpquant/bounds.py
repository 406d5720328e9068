"""Rate-distortion bounds for distribution preserving quantization.

Closed forms for the Gaussian/MSE case (DP-RDF, RDF, Shannon lower bound,
the SLB sandwich, the AWGN curve-achieving construction) plus a discrete
DP-RDF solver, traced over a Lagrange-multiplier grid.  The solver finds the
entropic coupling whose two marginals both equal the source pmf by a damped
Newton solve of its symmetric scaling equations; the pmf must pass
`check_pmf` and the cost table must be a distortion measure (symmetric,
zero on the diagonal).

All rates are in nats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .prob import SourceModel

__all__ = [
    "RdPoint",
    "Coupling",
    "dp_rdf_gaussian",
    "rdf_gaussian",
    "slb_mse",
    "dp_rdf_sandwich_gaussian",
    "awgn_oracle_point",
    "MAX_ALPHABET",
    "check_pmf",
    "sinkhorn_coupling",
    "discrete_dp_rdf_curve",
    "discrete_dp_rdf_bruteforce",
]


@dataclass(frozen=True)
class RdPoint:
    rate: float        # nats per dimension
    distortion: float  # MSE / expected cost per dimension

    def __post_init__(self):
        if self.rate < 0 or self.distortion < 0:
            raise ValueError("rate and distortion must be nonnegative")


@dataclass(frozen=True)
class Coupling:
    """Joint pmf over a finite alphabet pair with prescribed marginals."""

    joint: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    cost: np.ndarray

    def marginal_residual(self) -> float:
        r = np.abs(self.joint.sum(axis=1) - self.row_marginal).max()
        c = np.abs(self.joint.sum(axis=0) - self.col_marginal).max()
        return float(max(r, c))

    def mutual_information(self) -> float:
        """I(X; X~) of the coupling, in nats."""
        p = self.joint
        outer = np.outer(p.sum(axis=1), p.sum(axis=0))
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))

    def expected_cost(self) -> float:
        return float(np.sum(self.joint * self.cost))


# ---- Gaussian / MSE closed forms --------------------------------------------

def dp_rdf_gaussian(var: float, d: float) -> float:
    """Distribution preserving RDF of a Gaussian source under MSE, in nats.

    log(sigma^2 / sqrt(sigma^2 D - D^2/4)) for D < 2 sigma^2, else 0.
    D = 0 returns +inf.
    """
    if var <= 0 or d < 0:
        raise ValueError("need var > 0 and d >= 0")
    if d == 0:
        return math.inf
    if d >= 2 * var:
        return 0.0
    return math.log(var) - 0.5 * math.log(var * d - d * d / 4.0)


def rdf_gaussian(var: float, d: float) -> float:
    """Classic Gaussian RDF under MSE: (1/2) ln(sigma^2/D), in nats."""
    if var <= 0 or d < 0:
        raise ValueError("need var > 0 and d >= 0")
    if d == 0:
        return math.inf
    if d >= var:
        return 0.0
    return 0.5 * math.log(var / d)


def slb_mse(model: SourceModel, d: float) -> float:
    """Shannon lower bound under MSE: h(X) - (1/2) ln(2 pi e D), floored at 0."""
    if d <= 0:
        return math.inf
    return max(0.0, model.diff_entropy() - 0.5 * math.log(2 * math.pi * math.e * d))


def dp_rdf_sandwich_gaussian(var: float, d: float) -> tuple[float, float]:
    """SLB sandwich of the Gaussian DP-RDF for 0 < D < 2 sigma^2.

    lower = SLB; upper = (1/2) ln(sigma^2/D) + (1/2) ln(sigma^2/(sigma^2 - D/4)),
    the backward/forward-channel construction with noise variance D/4.  The
    upper bound coincides analytically with the DP-RDF.
    """
    if not 0 < d < 2 * var:
        raise ValueError("sandwich requires 0 < D < 2 var")
    lower = max(0.0, 0.5 * math.log(var / d))
    upper = 0.5 * math.log(var / d) + 0.5 * math.log(var / (var - d / 4.0))
    return lower, upper


def awgn_oracle_point(var: float, noise_var: float) -> RdPoint:
    """(R, D) of the scaled-AWGN construction; lies exactly on the DP-RDF."""
    if var <= 0 or noise_var <= 0:
        raise ValueError("variances must be > 0")
    d = 2 * var * (1.0 - math.sqrt(var / (var + noise_var)))
    r = 0.5 * math.log((var + noise_var) / noise_var)
    return RdPoint(rate=r, distortion=d)


# ---- discrete DP-RDF solver ---------------------------------------------------

# Shortest Newton step the line search tries.  Pmf entries near 1e-15 at
# lam >= 41 need steps down to 2^-45 before the quadratic phase starts.
_MIN_STEP = 2.0 ** -60

MAX_ALPHABET = 64  # the largest pmf the coupling solver takes


def check_pmf(pmf) -> np.ndarray:
    """pmf as a float array; ValueError unless its entries are finite, >= 0,
    sum to 1 within 1e-12 and number at most `MAX_ALPHABET`."""
    p = np.asarray(pmf, dtype=float)
    if p.size > MAX_ALPHABET:
        raise ValueError(f"a pmf takes at most {MAX_ALPHABET} entries, "
                         f"not {p.size}")
    if (p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(p < 0)
            or abs(p.sum() - 1.0) > 1e-12):
        raise ValueError("pmf entries must be finite, >= 0 and sum to 1")
    return p


def sinkhorn_coupling(pmf, cost, lam: float, tol: float = 1e-10,
                      max_iter: int = 100) -> Coupling:
    """Entropic coupling with both marginals pinned to pmf, by symmetric Newton.

    The coupling minimizes I(coupling) + lam * expected cost over the polytope
    of couplings whose two marginals both equal pmf.  Both marginals are p and
    the cost is symmetric, so the minimizer is
    P_ij = exp(a_i + a_j) p_i p_j exp(-lam e_ij) with a single vector a over
    the symbols where p > 0 (Knight & Ruiz 2013).  Each damped Newton step
    solves (diag(r) + P) d = p - r, r the row sums, and halves the step until
    ||r - p||^2 passes an Armijo test; symbols with p = 0 get a zero row and
    column.

    The pmf must pass `check_pmf`.  The cost must be a distortion measure:
    finite, nonnegative, symmetric and zero on the diagonal.  The zero
    diagonal keeps every P_ii > 0, so the Newton matrix stays positive
    definite at any lam.
    Returns once ``marginal_residual() < tol``; raises ``RuntimeError`` after
    ``max_iter`` Newton steps, on a singular solve or when no step length down
    to 2^-60 reduces the residual.
    """
    p = check_pmf(pmf)
    e = np.asarray(cost, dtype=float)
    m = p.size
    if e.shape != (m, m) or np.any(e < 0) or not np.all(np.isfinite(e)):
        raise ValueError("cost must be a finite nonnegative m x m table")
    if not np.array_equal(e, e.T) or np.any(np.diag(e) != 0):
        raise ValueError("cost must be symmetric with a zero diagonal")
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and >= 0")

    pos = p > 0
    q = p[pos]
    log_k = np.log(q)[:, None] + np.log(q)[None, :] - lam * e[np.ix_(pos, pos)]

    def scaled(a):
        # the coupling on the support at scaling a, its row sums and ||r - p||^2
        k = np.exp(a[:, None] + a[None, :] + log_k)
        r = k.sum(axis=1)
        return k, r, (q - r) @ (q - r)

    a = np.zeros(q.size)
    k, r, f = scaled(a)
    for steps in itertools.count():
        joint = np.zeros((m, m))
        joint[np.ix_(pos, pos)] = k
        coupling = Coupling(joint=joint, row_marginal=p, col_marginal=p, cost=e)
        res = coupling.marginal_residual()
        if res < tol:
            return coupling
        where = f"marginal residual {res:.3e} after {steps} Newton steps"
        if steps >= max_iter:
            raise RuntimeError(f"Newton solve did not converge: {where}")
        try:
            d = np.linalg.solve(np.diag(r) + k, q - r)
        except np.linalg.LinAlgError:
            raise RuntimeError(f"singular Newton matrix: {where}") from None
        # The Newton direction descends ||r - p||^2 at rate -2f, so the Armijo
        # test is f(t) <= (1 - 2 c t) f; trial points that overflow fail it.
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= _MIN_STEP:
                k_t, r_t, f_t = scaled(a + t * d)
                if f_t <= (1 - 2e-4 * t) * f:
                    break
                t *= 0.5
            else:
                raise RuntimeError(f"Newton line search failed: {where}")
        a, k, r, f = a + t * d, k_t, r_t, f_t


# 0 and 63 log-spaced values: the near-independent (lam -> 0) through the
# near-diagonal (large lam) regimes
_LAMBDAS = np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 63)])


def discrete_dp_rdf_curve(pmf, cost) -> list[RdPoint]:
    """Trace the discrete DP-RDF by sweeping the Lagrange multiplier over
    the 64 values of `_LAMBDAS`."""
    points = []
    for lam in _LAMBDAS:
        c = sinkhorn_coupling(pmf, cost, float(lam))
        points.append(RdPoint(rate=max(0.0, c.mutual_information()),
                              distortion=c.expected_cost()))
    return points


def _coupling_entropy_objective(free, p, m):
    # free parameters are the (m-1) x (m-1) top-left block; the last row and
    # column are determined by the marginal constraints
    t = np.empty((m, m))
    t[: m - 1, : m - 1] = free.reshape(m - 1, m - 1)
    t[: m - 1, m - 1] = p[: m - 1] - t[: m - 1, : m - 1].sum(axis=1)
    t[m - 1, : m - 1] = p[: m - 1] - t[: m - 1, : m - 1].sum(axis=0)
    t[m - 1, m - 1] = p[m - 1] - t[m - 1, : m - 1].sum()
    return t


def discrete_dp_rdf_bruteforce(pmf, cost, d: float, grid: int = 20001) -> float:
    """Independent oracle for the discrete DP-RDF at distortion budget d.

    m = 2: exact 1-dof grid search over the coupling polytope.
    m = 3, 4: projected search (SLSQP over the free block with linear marginal
    constraints), multi-start.  Accurate to ~1e-3 in rate.
    """
    p = check_pmf(pmf)
    e = np.asarray(cost, dtype=float)
    m = p.size
    if m > 4:
        raise ValueError("brute force restricted to m <= 4")

    def mi(t):
        outer = np.outer(p, p)
        mask = t > 1e-15
        return float(np.sum(t[mask] * np.log(t[mask] / outer[mask])))

    if m == 2:
        lo = max(0.0, 2 * p[0] - 1.0)
        hi = p[0]
        ts = np.linspace(lo, hi, grid)
        best = None
        for t00 in ts:
            t = np.array([[t00, p[0] - t00],
                          [p[0] - t00, 1.0 - 2 * p[0] + t00]])
            if np.any(t < -1e-15):
                continue
            if np.sum(t * e) <= d + 1e-12:
                r = mi(np.clip(t, 0.0, None))
                if best is None or r < best:
                    best = r
        if best is None:
            raise ValueError(f"distortion budget {d} infeasible for this pmf/cost")
        return max(0.0, best)

    # m in {3, 4}: minimize I over the free block under the budget
    nfree = (m - 1) ** 2

    def obj(free):
        t = _coupling_entropy_objective(free, p, m)
        if np.any(t < 0):
            return 1e6 + np.sum(np.minimum(t, 0) ** 2)
        return mi(t)

    cons = [
        {"type": "ineq",
         "fun": lambda f: _coupling_entropy_objective(f, p, m).ravel()},
        {"type": "ineq",
         "fun": lambda f: d - np.sum(_coupling_entropy_objective(f, p, m) * e)},
    ]
    best = None
    rng = np.random.default_rng(0)
    starts = [np.outer(p, p)[: m - 1, : m - 1].ravel()]
    starts += [starts[0] * rng.uniform(0.2, 1.8, size=nfree) for _ in range(7)]
    for x0 in starts:
        res = optimize.minimize(obj, x0, method="SLSQP", constraints=cons,
                                options={"maxiter": 500, "ftol": 1e-12})
        if res.success:
            t = np.clip(_coupling_entropy_objective(res.x, p, m), 0.0, None)
            if (np.sum(t * e) <= d + 1e-6
                    and np.abs(t.sum(axis=1) - p).max() < 1e-8):
                r = mi(t)
                if best is None or r < best:
                    best = r
    if best is None:
        raise ValueError(f"distortion budget {d} infeasible or search failed")
    return max(0.0, best)
