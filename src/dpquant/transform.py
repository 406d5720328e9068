"""Distribution-restoring transformations.

The DPQ transform maps the dithered-quantizer output back onto the source
law: each coordinate's cell-smoothed conditional cdf is pushed through the
source inverse cdf.  Also here: the Rosenblatt forward/inverse pair (the
sequential conditional-cdf map and inverse transform sampling) and the
Gaussian-smoothed transform that arises in the high-dimensionality limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice
from .prob import SourceModel, gaussian

__all__ = [
    "BivariateGaussian",
    "smoothed_cdf",
    "rosenblatt_forward",
    "rosenblatt_inverse",
    "dpq_transform",
    "gaussian_smoothed_transform",
]

# Gauss-Legendre nodes on the cube's step and on each half of the hexagon's
# x-projection; the hexagon's chords are averaged in closed form
_NODES = 32
_CHUNK = 4096  # sample batch for the hexagonal path
_HERMITE_NODES = 96  # Gauss-Hermite nodes of the Gaussian-smoothed transform


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def _hex_nodes(scale: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chord rule over the hexagonal Voronoi cell: (a, h, w).

    The hexagon {|x| <= s/2, |y| <= h(x)}, h(x) = (s - |x|)/sqrt(3), is cut
    into vertical chords.  `a` holds n Gauss-Legendre abscissae on each of
    [-s/2, 0] and [0, s/2], `h` the half-chord at each and `w` their
    weights.  The cell integral of g is approximated by
    sum_i w_i int_{-h_i}^{h_i} g(a_i, y) dy.
    """
    t, w = _gl_nodes(n)
    a = np.concatenate([-(scale / 4.0) * (1.0 + t), (scale / 4.0) * (1.0 + t)])
    h = (scale - np.abs(a)) / math.sqrt(3.0)
    return a, h, np.tile((scale / 4.0) * w, 2)


def smoothed_cdf(model: SourceModel, lat: Lattice, x_hat):
    """Cell-smoothed conditional cdf of every coordinate of x_hat.

    The smoothed law is that of the ECDQ output X_hat = X + N, N uniform
    over the negated basic cell.  Cubic lattice with an independent-coordinate
    source: the conditioning drops out and each value is the cell average of
    the marginal cdf.  Hexagonal lattice: coordinate 0 averages the cdf over
    the cell's x-projection; coordinate 1 is the ratio of cell integrals
    conditioned on coordinate 0, both integrated along the cell's chords,
    each chord's cdf average in closed form (`SourceModel.cdf_average`).
    """
    if model.dim != lat.dim:
        raise ValueError("base model and cell dimension mismatch")
    x_hat = np.asarray(x_hat, dtype=float)
    if lat.kind == "scaled_integer":
        t, w = _gl_nodes(_NODES)
        # (1/step) * int_{-step/2}^{step/2} F(x + tau) dtau
        vals = model.cdf(x_hat[..., None] + (lat.step / 2.0) * t)
        return 0.5 * np.sum(w * vals, axis=-1)

    if x_hat.shape[-1:] != (2,):
        raise ValueError("hexagonal path is 2-D")
    a, h, w = _hex_nodes(lat.step, _NODES)
    wh = w * h
    xb = x_hat.reshape(-1, 2)
    u = np.empty_like(xb)
    for lo in range(0, len(xb), _CHUNK):
        x1 = xb[lo:lo + _CHUNK, 0, None]
        x2 = xb[lo:lo + _CHUNK, 1, None]
        u[lo:lo + _CHUNK, 0] = (np.sum(2.0 * wh * model.cdf(x1 + a), axis=-1)
                                / lat.cell_volume)
        f1 = wh * model.pdf(x1 + a)
        den = np.sum(2.0 * f1, axis=-1)
        if np.any(den < 1e-300):
            raise ValueError("conditioning value outside the source support")
        chords = 2.0 * model.cdf_average(x2 - h, x2 + h)
        u[lo:lo + _CHUNK, 1] = np.sum(f1 * chords, axis=-1) / den
    return u.reshape(x_hat.shape)


# ---- Rosenblatt transform pair -----------------------------------------------


@dataclass(frozen=True)
class BivariateGaussian:
    """Correlated Gaussian pair, the dependent test case for the Rosenblatt maps."""

    mean: tuple[float, float] = (0.0, 0.0)
    var: tuple[float, float] = (1.0, 1.0)
    rho: float = 0.0

    def __post_init__(self):
        if not -1 < self.rho < 1:
            raise ValueError("|rho| must be < 1")
        if min(self.var) <= 0:
            raise ValueError("variances must be > 0")


def rosenblatt_forward(model, x):
    """Sequential conditional cdfs; maps the true joint law to i.i.d. U(0,1)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(model, SourceModel):
        return np.asarray(model.cdf(x))
    if isinstance(model, BivariateGaussian):
        m1, m2 = model.mean
        s1, s2 = math.sqrt(model.var[0]), math.sqrt(model.var[1])
        g = gaussian(0.0, 1.0)
        u1 = g.cdf((x[:, 0] - m1) / s1)
        cond_mean = m2 + model.rho * s2 / s1 * (x[:, 0] - m1)
        cond_sd = s2 * math.sqrt(1 - model.rho ** 2)
        u2 = g.cdf((x[:, 1] - cond_mean) / cond_sd)
        return np.column_stack([u1, u2])
    raise ValueError(f"unsupported dependence structure: {type(model).__name__}")


def rosenblatt_inverse(model, u):
    """Sequential conditional inverse cdfs (inverse transform sampling)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if isinstance(model, SourceModel):
        return np.asarray(model.icdf(u))
    if isinstance(model, BivariateGaussian):
        m1, m2 = model.mean
        s1, s2 = math.sqrt(model.var[0]), math.sqrt(model.var[1])
        g = gaussian(0.0, 1.0)
        x1 = m1 + s1 * np.asarray(g.icdf(u[:, 0]))
        cond_mean = m2 + model.rho * s2 / s1 * (x1 - m1)
        cond_sd = s2 * math.sqrt(1 - model.rho ** 2)
        x2 = cond_mean + cond_sd * np.asarray(g.icdf(u[:, 1]))
        return np.column_stack([x1, x2])
    raise ValueError(f"unsupported dependence structure: {type(model).__name__}")


# ---- the DPQ transform ---------------------------------------------------------


def dpq_transform(model: SourceModel, lat: Lattice, x_hat):
    """Map dithered-quantizer outputs onto the source law, coordinatewise.

    g_i(x_hat) = F_i^{-1}(smoothed conditional cdf of coordinate i).  For a
    product source over a cubic lattice the coordinates decouple; the
    hexagonal lattice conditions coordinate 1 on coordinate 0.
    """
    return np.asarray(model.icdf(smoothed_cdf(model, lat, x_hat)))


def gaussian_smoothed_transform(model: SourceModel, eta: float, x_hat):
    """High-dimensionality limit of the DPQ transform with smoothing stddev eta.

    F^{-1}( E[F(x_hat + eta Z)] ), Z standard normal, by Gauss-Hermite
    quadrature on `_HERMITE_NODES` nodes.  For a Gaussian source this
    collapses to the linear map sqrt(var / (var + eta^2)) (x_hat - mu) + mu.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if model.dim != 1:
        raise ValueError("scalar model required")
    t, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    x_hat = np.asarray(x_hat, dtype=float)
    vals = model.cdf(x_hat[..., None] + eta * math.sqrt(2.0) * t)
    u = np.sum(w * vals, axis=-1) / math.sqrt(math.pi)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("Gauss-Hermite quadrature failed")
    out = np.asarray(model.icdf(u))
    return out if out.ndim else float(out)
