"""Distribution-restoring transformations.

The DPQ transform maps the dithered-quantizer output back onto the source
law: each coordinate's cell-smoothed conditional cdf is pushed through the
source inverse cdf.  Also here: a correlated Gaussian pair whose cdf/icdf
are the Rosenblatt map and its inverse (the sequential conditional-cdf map
and inverse transform sampling), and the Gaussian-smoothed transform that
arises in the high-dimensionality limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice
from .prob import Family, SourceModel, gaussian

__all__ = [
    "BivariateGaussian",
    "smoothed_cdf",
    "dpq_transform",
    "gaussian_smoothed_transform",
]

# Gauss-Legendre nodes on the cube's step, and on each half of the hexagon's
# x-projection for a source whose density has a kink (`_hex_node_count`)
_NODES = 32
# Widest Gaussian cube step, in standard deviations, that takes the 32-node
# rule: it errs by 2.2e-16 at 1e-4 sigma, where the closed form errs by 1e-12,
# and by 1.9e-3 at 64 sigma, where the closed form is exact to rounding.
_CUBE_RULE_SIGMAS = 8.0
# Row-wide temporaries that the cube's closed-form cell average forms, which
# size its blocks as the rule's nodes size theirs: 1 024 rows per block
_CLOSED_FORM_TEMPS = 16
# Most nodes per half-cell of the Gaussian's hexagon rule, reached at s = 124
# sigma: the rule's cost and leggauss's O(n^2) memory stay bounded at any scale
_HEX_MAX_NODES = 256
# Floats per (rows, nodes) temporary, 128 KB: 512 rows on the cube's rule,
# 16 384 // m on the hexagon at m nodes per half-cell.  Blocks that size stay
# in L2 and malloc reuses them; the 1-2 MB temporaries of 4096-row blocks were
# mapped from fresh pages every time.
_BLOCK_FLOATS = 16_384
_HERMITE_NODES = 96  # Gauss-Hermite nodes of the Gaussian-smoothed transform
_STD = gaussian(0.0, 1.0)


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=32)
def _hex_nodes(scale: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chord rule over the hexagonal Voronoi cell: (a, h, w).

    The hexagon {|x| <= s/2, |y| <= h(x)}, h(x) = (s - |x|)/sqrt(3), is cut
    into vertical chords.  `a` holds n Gauss-Legendre abscissae on [0, s/2]
    and `w` their weights; each has a mirror image -a[k] of the same weight
    and the same half-chord h[k].  The cell integral of g is approximated by
    sum_k w_k (int_{-h_k}^{h_k} g(-a_k, y) dy + int_{-h_k}^{h_k} g(a_k, y) dy).
    """
    t, w = _gl_nodes(n)
    a = (scale / 4.0) * (1.0 + t)
    return a, (scale - a) / math.sqrt(3.0), (scale / 4.0) * w


def _hex_node_count(model: SourceModel, scale: float) -> int:
    """Gauss-Legendre nodes per half of the hexagon's x-projection.

    The Gaussian density is analytic, so Gauss-Legendre converges on it
    geometrically at a rate set by the half-cell's width in standard
    deviations (Trefethen, SIAM Review 50, 2008): 8 + ceil(2 s/sigma) nodes
    match the 32-node rule's error against 256 nodes from s = 1e-3 sigma to
    s = 32 sigma, where 32 nodes err by 1.3e-6.  The Laplace and uniform
    densities have kinks, which bound the error whatever the node count and
    which fewer nodes resolve worse, so they keep `_NODES`.
    """
    if model.family is not Family.GAUSSIAN:
        return _NODES
    twice = 2.0 * scale / math.sqrt(model.variance())  # 2 s/sigma, or inf
    return 8 + math.ceil(twice) if twice < _HEX_MAX_NODES - 8 else _HEX_MAX_NODES


def smoothed_cdf(model: SourceModel, lat: Lattice, x_hat):
    """Cell-smoothed conditional cdf of every coordinate of x_hat.

    The smoothed law is that of the ECDQ output X_hat = X + N, N uniform
    over the negated basic cell.  Cubic lattice with an independent-coordinate
    source: the conditioning drops out and each value is the cell average of
    the marginal cdf, `SourceModel.cdf_average` over the step; a Gaussian at
    a step of at most `_CUBE_RULE_SIGMAS` standard deviations takes a
    `_NODES`-point Gauss-Legendre rule instead.  Hexagonal lattice:
    coordinate 0 averages the cdf over the cell's x-projection; coordinate 1
    is the ratio of cell integrals conditioned on coordinate 0, both
    integrated along the cell's chords, each chord's cdf average in closed
    form (`SourceModel.cdf_average`).  The two chords of a mirror pair share
    their weight and half-chord, so each sum is formed once per pair.  An
    output of a bounded source within s/2 - max(a) of its outer limit has no
    chord node inside the support; coordinate 1 then takes the cdf average
    over the cell's edge chord.
    """
    if model.dim != lat.dim:
        raise ValueError("base model and cell dimension mismatch")
    x_hat = np.asarray(x_hat, dtype=float)
    if lat.kind == "scaled_integer":
        half = lat.step / 2.0
        if (model.family is Family.GAUSSIAN
                and lat.step <= _CUBE_RULE_SIGMAS * math.sqrt(model.variance())):
            t, w = _gl_nodes(_NODES)
            tau = half * t

            def average(xb):  # (1/step) * int_{-step/2}^{step/2} F(x + tau) dtau
                return 0.5 * np.sum(w * model.cdf(xb[:, None] + tau), axis=-1)

            width = tau.size
        else:
            def average(xb):
                return model.cdf_average(xb - half, xb + half)

            width = _CLOSED_FORM_TEMPS
        xb = x_hat.reshape(-1)
    else:
        if x_hat.shape[-1:] != (2,):
            raise ValueError("hexagonal path is 2-D")
        a, h, w = _hex_nodes(lat.step, _hex_node_count(model, lat.step))
        wh = w * h
        two_by_vol = 2.0 / lat.cell_volume
        edge = lat.step / 2.0  # the cell's vertical edges, at |a| = s/2,
        edge_h = edge / math.sqrt(3.0)  # have this half-chord

        def average(xb):
            x1, x2 = xb[:, 0, None], xb[:, 1, None]
            u1 = two_by_vol * np.sum(wh * (model.cdf(x1 - a) + model.cdf(x1 + a)),
                                     axis=-1)
            f1 = wh * (model.pdf(x1 - a) + model.pdf(x1 + a))
            den = np.sum(f1, axis=-1)
            num = np.sum(f1 * model.cdf_average(x2 - h, x2 + h), axis=-1)
            lost = den < 1e-300  # no node inside the source support
            if np.any(lost):
                # A row whose cell edge reaches the support takes the ratio's
                # limit as the last node leaves it: the edge chord's average.
                y1, y2 = xb[lost, 0], xb[lost, 1]
                if not np.all((model.pdf(y1 - edge) > 0) | (model.pdf(y1 + edge) > 0)):
                    raise ValueError("conditioning value outside the source support")
                num[lost] = model.cdf_average(y2 - edge_h, y2 + edge_h)
                den[lost] = 1.0
            return np.column_stack([u1, num / den])

        xb = x_hat.reshape(-1, 2)
        width = a.size
    rows = max(1, _BLOCK_FLOATS // width)
    u = np.empty_like(xb)
    for lo in range(0, len(xb), rows):
        u[lo:lo + rows] = average(xb[lo:lo + rows])
    return u.reshape(x_hat.shape)


# ---- a dependent source for the Rosenblatt map -------------------------------


@dataclass(frozen=True)
class BivariateGaussian:
    """Standard Gaussian pair with correlation rho.

    Given X1 = x1, X2 is N(rho x1, 1 - rho^2).  `cdf` is the Rosenblatt map,
    the sequential conditional cdfs, which takes the pair to i.i.d. U(0,1);
    `icdf` is its inverse, sequential inverse transform sampling.  A product
    `SourceModel`'s own cdf and icdf are its Rosenblatt pair.
    """

    rho: float = 0.0

    def __post_init__(self):
        if not -1 < self.rho < 1:
            raise ValueError("|rho| must be < 1")

    def cdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cond_sd = math.sqrt(1 - self.rho ** 2)
        return np.column_stack([_STD.cdf(x[:, 0]),
                                _STD.cdf((x[:, 1] - self.rho * x[:, 0]) / cond_sd)])

    def icdf(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        x1 = _STD.icdf(u[:, 0])
        cond_sd = math.sqrt(1 - self.rho ** 2)
        return np.column_stack([x1, self.rho * x1 + cond_sd * _STD.icdf(u[:, 1])])


# ---- the DPQ transform ---------------------------------------------------------


def dpq_transform(model: SourceModel, lat: Lattice, x_hat):
    """Map dithered-quantizer outputs onto the source law, coordinatewise.

    g_i(x_hat) = F_i^{-1}(smoothed conditional cdf of coordinate i).  For a
    product source over a cubic lattice the coordinates decouple; the
    hexagonal lattice conditions coordinate 1 on coordinate 0.  The smoothed
    cdf is inverted where it lies, `_BLOCK_FLOATS` at a time, each block
    through `SourceModel.icdf`, whose copy is then one block.
    """
    u = smoothed_cdf(model, lat, x_hat)
    flat = u.ravel(order="K")  # a view: smoothed_cdf's result is fresh
    for lo in range(0, flat.size, _BLOCK_FLOATS):
        flat[lo:lo + _BLOCK_FLOATS] = model.icdf(flat[lo:lo + _BLOCK_FLOATS])
    return u


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
