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
    "SmoothedModel",
    "BivariateGaussian",
    "smoothed_cdf",
    "smoothed_pdf",
    "rosenblatt_forward",
    "rosenblatt_inverse",
    "dpq_transform",
    "gaussian_smoothed_transform",
]

_CHUNK = 4096  # sample batch for the 2-D quadrature path


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def _hex_nodes(scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product Gauss-Legendre nodes/weights over the hexagonal Voronoi cell.

    The hexagon {|x| <= s/2, |y| <= (s - |x|)/sqrt(3)} is split into two
    trapezoids (x < 0 and x > 0), each mapped from [-1,1]^2.
    """
    t, w = _gl_nodes(n)
    s = scale
    nodes, weights = [], []
    for sign in (-1.0, 1.0):
        x = sign * (s / 4.0) * (1.0 + t)            # (n,)
        ymax = (s - np.abs(x)) / math.sqrt(3.0)     # (n,)
        xx = np.repeat(x, n)
        yy = (ymax[:, None] * t[None, :]).ravel()
        ww = ((s / 4.0) * ymax[:, None] * np.outer(w, w)).ravel()
        nodes.append(np.column_stack([xx, yy]))
        weights.append(ww)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class SmoothedModel:
    """Source model smoothed by uniform noise over a lattice basic cell.

    This is the law of the ECDQ output X_hat = X + N, N uniform over the
    negated basic cell; its cdf is the source cdf averaged over the cell.
    """

    base: SourceModel
    cell: Lattice
    nodes: int = 32

    def __post_init__(self):
        if not self.base.is_continuous:
            raise ValueError("smoothed models require a continuous base")
        if self.base.dim != self.cell.dim:
            raise ValueError("base model and cell dimension mismatch")


def smoothed_cdf(sm: SmoothedModel, axis: int, x_hat, cond=None):
    """Cell-smoothed conditional cdf of coordinate `axis` at x_hat.

    Cubic lattice with an independent-coordinate source: the conditioning
    drops out and the value is the cell average of the marginal cdf.
    Hexagonal lattice: the full ratio of cell integrals is evaluated by 2-D
    product quadrature; `cond` carries the preceding coordinate(s) of x_hat.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if sm.cell.kind == "scaled_integer":
        step = sm.cell.step
        t, w = _gl_nodes(sm.nodes)
        # (1/step) * int_{-step/2}^{step/2} F(x + tau) dtau
        vals = sm.base.cdf(x_hat[..., None] + (step / 2.0) * t)
        return 0.5 * np.sum(w * vals, axis=-1)

    nodes, weights = _hex_nodes(sm.cell.step, sm.nodes)
    if axis == 0:
        vals = sm.base.cdf(x_hat[..., None] + nodes[:, 0])
        return np.sum(weights * vals, axis=-1) / sm.cell.cell_volume
    if axis == 1:
        if cond is None:
            raise ValueError("axis 1 of the hexagonal path needs the first "
                             "coordinate as conditioning")
        x1 = np.asarray(cond, dtype=float)
        f1 = sm.base.pdf(x1[..., None] + nodes[:, 0])
        den = np.sum(weights * f1, axis=-1)
        if np.any(den < 1e-300):
            raise ValueError("conditioning value outside the source support")
        num = np.sum(weights * f1 * sm.base.cdf(x_hat[..., None] + nodes[:, 1]),
                     axis=-1)
        return num / den
    raise ValueError("hexagonal path is 2-D")


def smoothed_pdf(sm: SmoothedModel, x_hat):
    """Marginal density of the smoothed model (cubic lattice path)."""
    if sm.cell.kind != "scaled_integer":
        raise ValueError("marginal pdf in closed form only for the cubic lattice")
    step = sm.cell.step
    x_hat = np.asarray(x_hat, dtype=float)
    return (sm.base.cdf(x_hat + step / 2.0) - sm.base.cdf(x_hat - step / 2.0)) / step


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


def dpq_transform(model: SourceModel, lat: Lattice, x_hat, nodes: int = 32):
    """Map dithered-quantizer outputs onto the source law, coordinatewise.

    g_i(x_hat) = F_i^{-1}(smoothed conditional cdf of coordinate i).  For a
    product source over a cubic lattice the coordinates decouple; the
    hexagonal lattice takes the sequential conditional path.
    """
    sm = SmoothedModel(base=model, cell=lat, nodes=nodes)
    x_hat = np.asarray(x_hat, dtype=float)
    single = x_hat.ndim == 1
    xb = x_hat[None, :] if single else x_hat

    if lat.kind == "scaled_integer":
        u = smoothed_cdf(sm, 0, xb)
        out = np.asarray(model.icdf(u))
    else:
        out = np.empty_like(xb)
        for lo in range(0, len(xb), _CHUNK):
            blk = xb[lo:lo + _CHUNK]
            u1 = smoothed_cdf(sm, 0, blk[:, 0])
            u2 = smoothed_cdf(sm, 1, blk[:, 1], cond=blk[:, 0])
            out[lo:lo + _CHUNK, 0] = model.icdf(u1)
            out[lo:lo + _CHUNK, 1] = model.icdf(u2)
    return out[0] if single else out


def gaussian_smoothed_transform(model: SourceModel, eta: float, x_hat,
                                nodes: int = 96):
    """High-dimensionality limit of the DPQ transform with smoothing stddev eta.

    F^{-1}( E[F(x_hat + eta Z)] ), Z standard normal, by Gauss-Hermite
    quadrature.  For a Gaussian source this collapses to the linear map
    sqrt(var / (var + eta^2)) (x_hat - mu) + mu.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    if not (model.is_continuous and model.dim == 1):
        raise ValueError("scalar continuous model required")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    x_hat = np.asarray(x_hat, dtype=float)
    vals = model.cdf(x_hat[..., None] + eta * math.sqrt(2.0) * t)
    u = np.sum(w * vals, axis=-1) / math.sqrt(math.pi)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("Gauss-Hermite quadrature failed")
    out = np.asarray(model.icdf(u))
    return out if out.ndim else float(out)
