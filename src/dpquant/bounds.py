"""Rate-distortion bounds for distribution preserving quantization.

Closed forms for the Gaussian/MSE case (DP-RDF, RDF, Shannon lower bound,
the SLB sandwich, the AWGN curve-achieving construction) plus a discrete
DP-RDF solver: an alternating-scaling projection onto couplings with both
marginals pinned to the source pmf, traced over a Lagrange-multiplier grid.

All rates are in nats.
"""

from __future__ import annotations

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
    if not model.is_continuous:
        raise ValueError("SLB requires a continuous model")
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

def sinkhorn_coupling(pmf, cost, lam: float, tol: float = 1e-10,
                      max_iter: int = 100_000) -> Coupling:
    """Entropic coupling projection with both marginals pinned to pmf.

    Alternating scaling on the kernel K_ij = p_i p_j exp(-lam e_ij); the fixed
    point minimizes I(coupling) + lam * expected cost over the polytope of
    couplings whose two marginals both equal pmf.
    """
    p = np.asarray(pmf, dtype=float)
    e = np.asarray(cost, dtype=float)
    m = p.size
    if m > 64:
        raise ValueError("alphabet too large (m <= 64)")
    if e.shape != (m, m) or np.any(e < 0) or not np.all(np.isfinite(e)):
        raise ValueError("cost must be a finite nonnegative m x m table")
    if lam < 0:
        raise ValueError("lam must be >= 0")

    k = np.outer(p, p) * np.exp(-lam * e)
    u = np.ones(m)
    v = np.ones(m)
    pos = p > 0
    for _ in range(max_iter):
        ku = k.T @ u
        v = np.divide(p, ku, out=np.zeros_like(p), where=pos & (ku > 0))
        kv = k @ v
        u = np.divide(p, kv, out=np.zeros_like(p), where=pos & (kv > 0))
        joint = u[:, None] * k * v[None, :]
        res = max(np.abs(joint.sum(axis=1) - p).max(),
                  np.abs(joint.sum(axis=0) - p).max())
        if res < tol:
            return Coupling(joint=joint, row_marginal=p, col_marginal=p, cost=e)
    raise RuntimeError(f"Sinkhorn did not converge: marginal residual {res:.3e} "
                       f"after {max_iter} iterations")


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
    p = np.asarray(pmf, dtype=float)
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
