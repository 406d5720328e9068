"""Rate-distortion bounds for distribution preserving quantization.

Closed forms for the Gaussian/MSE case (DP-RDF, RDF, Shannon lower bound,
the AWGN curve-achieving construction) plus a discrete DP-RDF solver,
traced over a Lagrange-multiplier grid.  The solver finds the entropic
coupling whose two marginals both equal the source pmf by a damped Newton
solve of its symmetric scaling equations; the pmf must pass
`check_pmf` and the cost table must be a distortion measure (symmetric,
zero on the diagonal).  Each Newton step is one Cholesky solve: the zero
diagonal gives every row of the symmetric Newton matrix a diagonal that
exceeds its off-diagonal sum by 2 P_ii > 0, so the matrix is positive
definite.

All rates are in nats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .prob import SourceModel

__all__ = [
    "RdPoint",
    "Coupling",
    "dp_rdf_gaussian",
    "rdf_gaussian",
    "slb_mse",
    "awgn_oracle_point",
    "MAX_ALPHABET",
    "check_pmf",
    "sinkhorn_coupling",
    "discrete_dp_rdf_curve",
]


@dataclass(frozen=True)
class RdPoint:
    rate: float        # nats per dimension
    distortion: float  # MSE / expected cost per dimension

    def __post_init__(self):
        if not (self.rate >= 0 and self.distortion >= 0):  # NaN fails too
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
    if not (0 < var < math.inf and 0 <= d < math.inf):
        raise ValueError("need finite var > 0 and d >= 0")
    if d == 0:
        return math.inf
    if d >= 2 * var:
        return 0.0
    return math.log(var) - 0.5 * math.log(var * d - d * d / 4.0)


def rdf_gaussian(var: float, d: float) -> float:
    """Classic Gaussian RDF under MSE: (1/2) ln(sigma^2/D), in nats."""
    if not (0 < var < math.inf and 0 <= d < math.inf):
        raise ValueError("need finite var > 0 and d >= 0")
    if d == 0:
        return math.inf
    if d >= var:
        return 0.0
    return 0.5 * math.log(var / d)


def slb_mse(model: SourceModel, d: float) -> float:
    """Shannon lower bound under MSE: h(X) - (1/2) ln(2 pi e D), floored at 0.
    D = 0 returns +inf."""
    if not 0 <= d < math.inf:
        raise ValueError("need a finite d >= 0")
    if d == 0:
        return math.inf
    return max(0.0, model.diff_entropy() - 0.5 * math.log(2 * math.pi * math.e * d))


def awgn_oracle_point(var: float, noise_var: float) -> RdPoint:
    """(R, D) of the scaled-AWGN construction; lies exactly on the DP-RDF."""
    if not (0 < var < math.inf and 0 < noise_var < math.inf):
        raise ValueError("variances must be finite and > 0")
    d = 2 * var * (1.0 - math.sqrt(var / (var + noise_var)))
    r = 0.5 * math.log((var + noise_var) / noise_var)
    return RdPoint(rate=r, distortion=d)


# ---- discrete DP-RDF solver ---------------------------------------------------

# Shortest Newton step the line search tries.  Pmf entries near 1e-15 at
# lam >= 41 need steps down to 2^-45 before the quadratic phase starts.
_MIN_STEP = 2.0 ** -60

MAX_ALPHABET = 64  # the largest pmf the coupling solver takes

_TOL = 1e-10     # the solver's default marginal residual
_MAX_ITER = 100  # and its default limit on Newton steps

# exp(_EXP_ZERO) is 0.0; so is exp of every argument at or below it
_EXP_ZERO = -745.2


def _exp(x):
    """np.exp(x), bit for bit, without evaluating exp where the result is 0.

    Arguments at or below `_EXP_ZERO` (-inf included) take 0.0 directly: exp
    takes its slow path on arguments whose results underflow.  NaN fails the
    comparison, so it still goes through exp and stays NaN."""
    return np.exp(x, out=np.zeros(x.shape), where=~(x <= _EXP_ZERO))


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


def sinkhorn_coupling(pmf, cost, lam: float, tol: float = _TOL,
                      max_iter: int = _MAX_ITER) -> Coupling:
    """Entropic coupling with both marginals pinned to pmf, by symmetric Newton.

    The coupling minimizes I(coupling) + lam * expected cost over the polytope
    of couplings whose two marginals both equal pmf.  Both marginals are p and
    the cost is symmetric, so the minimizer is
    P_ij = exp(a_i + a_j) p_i p_j exp(-lam e_ij) with a single vector a over
    the symbols where p > 0 (Knight & Ruiz 2013).  Each damped Newton step
    solves (diag(r) + P) d = p - r, r the row sums, by one Cholesky
    factorization (entries below 1e-150 min(r) dropped), and halves the step
    until ||r - p||^2 passes an Armijo test; symbols with p = 0 get a zero
    row and column.

    The pmf must pass `check_pmf`.  The cost must be a distortion measure:
    finite, nonnegative, symmetric and zero on the diagonal.  The zero
    diagonal keeps every P_ii > 0, so row i of the symmetric Newton matrix
    has a diagonal r_i + P_ii that exceeds its off-diagonal sum r_i - P_ii
    by 2 P_ii: the matrix is strictly diagonally dominant, hence positive
    definite, at any lam, even where the kernel exp(-lam e) is not.
    Returns once ``marginal_residual() < tol``; raises ``RuntimeError`` after
    ``max_iter`` Newton steps, on a failed factorization or when no step
    length down to 2^-60 reduces the residual.
    """
    tables = _tables(pmf, cost)
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and >= 0")
    return _solve(tables, lam, tol, max_iter)


class _Tables(NamedTuple):
    """The solver's lam-independent inputs; q is p on its support."""

    p: np.ndarray
    e: np.ndarray
    support: tuple           # np.ix_ grid of the support's rows and columns
    q: np.ndarray
    log_qq: np.ndarray       # log q_i + log q_j
    e_support: np.ndarray    # e on the support


def _tables(pmf, cost) -> _Tables:
    """The `_Tables` of a pmf and cost; ValueError unless the pmf passes
    `check_pmf` and the cost is a distortion measure (`sinkhorn_coupling`)."""
    p = check_pmf(pmf)
    e = np.asarray(cost, dtype=float)
    m = p.size
    if e.shape != (m, m) or np.any(e < 0) or not np.all(np.isfinite(e)):
        raise ValueError("cost must be a finite nonnegative m x m table")
    if not np.array_equal(e, e.T) or np.any(np.diag(e) != 0):
        raise ValueError("cost must be symmetric with a zero diagonal")
    pos = p > 0
    support = np.ix_(pos, pos)
    q = p[pos]
    log_q = np.log(q)
    return _Tables(p, e, support, q, log_q[:, None] + log_q[None, :], e[support])


def _solve(tables: _Tables, lam: float, tol: float, max_iter: int) -> Coupling:
    """`sinkhorn_coupling` on the `_tables` of its pmf and cost."""
    p, e, support, q, log_qq, e_support = tables
    m = p.size
    log_k = log_qq - lam * e_support
    diag = np.diag_indices(q.size)

    def scaled(a):
        # the coupling on the support at scaling a, its row sums and ||r - p||^2
        x = np.add.outer(a, a)
        x += log_k
        k = _exp(x)
        r = k.sum(axis=1)
        return k, r, (q - r) @ (q - r)

    def status(steps):
        # on a full support, the bits of marginal_residual()
        res = max(np.abs(r - q).max(), np.abs(k.sum(axis=0) - q).max())
        return f"marginal residual {res:.3e} after {steps} Newton steps"

    a = np.zeros(q.size)
    k, r, f = scaled(a)
    for steps in itertools.count():
        # the columns are the rows summed in another order; the coupling's own
        # residual checks both
        if np.abs(r - q).max() < tol:
            joint = np.zeros((m, m))
            joint[support] = k
            coupling = Coupling(joint=joint, row_marginal=p, col_marginal=p,
                                cost=e)
            if coupling.marginal_residual() < tol:
                return coupling
        if steps >= max_iter:
            raise RuntimeError(f"Newton solve did not converge: {status(steps)}")
        newton = k.copy()
        newton[diag] += r
        # Entries below 1e-150 min(r) move d far less than its rounding
        # error, yet the factorization multiplies them into subnormals, which
        # take the CPU's slow path.  Dropping off-diagonal entries keeps the
        # matrix strictly diagonally dominant.
        newton[newton < 1e-150 * r.min()] = 0.0
        # the Newton matrix is symmetric, so its transpose is the same matrix
        # in the Fortran order that LAPACK factors in place
        _, d, info = lapack.dposv(newton.T, q - r, overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise RuntimeError(f"singular Newton matrix: {status(steps)}")
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
                raise RuntimeError(f"Newton line search failed: {status(steps)}")
        a, k, r, f = a + t * d, k_t, r_t, f_t


# 0 and 63 log-spaced values: the near-independent (lam -> 0) through the
# near-diagonal (large lam) regimes
_LAMBDAS = np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 63)])


def discrete_dp_rdf_curve(pmf, cost) -> list[RdPoint]:
    """Trace the discrete DP-RDF by sweeping the Lagrange multiplier over
    the 64 values of `_LAMBDAS`: `sinkhorn_coupling` at each, with the pmf
    and cost checked and their tables built once."""
    tables = _tables(pmf, cost)
    points = []
    for lam in _LAMBDAS:
        c = _solve(tables, float(lam), _TOL, _MAX_ITER)
        points.append(RdPoint(rate=max(0.0, c.mutual_information()),
                              distortion=c.expected_cost()))
    return points
