"""Probability models for sources and the empirical statistics built on them.

A :class:`SourceModel` is a scalar continuous family, i.i.d. across ``dim``
coordinates: the location-scale copy of a standard law symmetric about 0,
whose `_LAWS` row gives every method.  A finite pmf is not a source model;
the coupling solver in `bounds` takes it directly.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .rng import stream_rng

__all__ = [
    "Family",
    "SourceModel",
    "EmpiricalSample",
    "gaussian",
    "uniform",
    "laplace",
    "ks_statistic",
    "plugin_entropy",
]

# icdf arguments are clamped to [EPS, 1-EPS] so that downstream transforms,
# which may feed in smoothed-cdf values that round to 0 or 1, never blow up.
EPS = 1e-12

KS_ALPHA_005_COEFF = 1.36  # asymptotic two-sided 5% critical coefficient


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    LAPLACE = "laplace"


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _gaussian_g(z):  # G(z) = z Phi(z) + phi(z)
    return z * special.ndtr(z) + _phi(z)


def _laplace_cdf(z):
    half_tail = 0.5 * np.exp(-np.abs(z))
    return np.where(z < 0, half_tail, 1.0 - half_tail)


def _uniform_g_diff(zl, zh):
    # G(z) = (q + 1/2)^2 / 2 + max(z - 1/2, 0), q = clip(z, -1/2, 1/2);
    # zl < 1/2, and qh - ql is zh - zl exactly when both lie inside
    ql, qh = np.clip(zl, -0.5, 0.5), np.clip(zh, -0.5, 0.5)
    return (qh - ql) * (0.5 * (qh + ql) + 0.5) + np.maximum(zh - 0.5, 0.0)


@dataclass(frozen=True)
class _Law:
    """A family as the location-scale copy of a standard law symmetric about 0.

    ``loc_scale`` and ``variance`` read the family's params; ``cdf``, ``icdf``
    and ``pdf`` are the standard law's, in z = (x - centre) / scale, and
    ``g_diff(zl, zh)`` is G(zh) - G(zl), G' = cdf, for zl < 0, |zh| <= -zl.
    """

    loc_scale: Callable
    variance: Callable
    cdf: Callable
    icdf: Callable
    pdf: Callable
    g_diff: Callable
    entropy: float  # differential entropy at scale 1, nats


_LAWS = {
    # a variance <= 0 maps to scale 0, which SourceModel refuses
    Family.GAUSSIAN: _Law(
        loc_scale=lambda p: (p[0], math.sqrt(max(p[1], 0.0))),
        variance=lambda p: p[1],
        cdf=special.ndtr, icdf=special.ndtri, pdf=_phi,
        g_diff=lambda zl, zh: _gaussian_g(zh) - _gaussian_g(zl),
        entropy=0.5 * math.log(2 * math.pi * math.e)),
    Family.UNIFORM: _Law(
        loc_scale=lambda p: (0.5 * (p[0] + p[1]), p[1] - p[0]),
        variance=lambda p: (p[1] - p[0]) ** 2 / 12.0,
        cdf=lambda z: np.clip(z + 0.5, 0.0, 1.0),
        icdf=lambda u: u - 0.5,
        pdf=lambda z: np.where(np.abs(z) <= 0.5, 1.0, 0.0),
        g_diff=_uniform_g_diff, entropy=0.0),
    Family.LAPLACE: _Law(
        loc_scale=lambda p: (p[0], p[1]),
        variance=lambda p: 2.0 * p[1] ** 2,
        cdf=_laplace_cdf,
        icdf=lambda u: -np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5)),
        pdf=lambda z: 0.5 * np.exp(-np.abs(z)),
        # G(z) = e^z/2 below 0 and z + e^-z/2 above; both terms are >= 0
        g_diff=lambda zl, zh: (np.maximum(zh, 0.0)
                               + 0.5 * np.exp(zl) * np.expm1(-np.abs(zh) - zl)),
        entropy=1.0 + math.log(2.0)),
}


def _out(a):
    a = np.asarray(a)
    return a if a.ndim else float(a)


@dataclass(frozen=True)
class SourceModel:
    """Scalar continuous distribution, i.i.d. across ``dim`` coordinates.

    ``params`` holds (mean, variance) for Gaussian, (a, b) for Uniform,
    (loc, scale) for Laplace.  The family's `_LAWS` row places a standard
    law at a centre and scale, and each method is one expression through it.
    """

    family: Family
    params: tuple[float, ...] = ()
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("parameters must be finite")
        if not 0 < self._place()[2] < math.inf:
            raise ValueError(f"{self.family.value} parameters {self.params} "
                             "need a finite scale > 0")

    def _place(self) -> tuple[_Law, float, float]:
        law = _LAWS[self.family]
        return (law, *law.loc_scale(self.params))

    def mean(self) -> float:
        return self._place()[1]

    def variance(self) -> float:
        return _LAWS[self.family].variance(self.params)

    def cdf(self, x):
        law, c, s = self._place()
        return _out(law.cdf((np.asarray(x, dtype=float) - c) / s))

    def icdf(self, u):
        """Inverse cdf; u is clamped to [EPS, 1-EPS] before inversion."""
        law, c, s = self._place()
        return _out(c + s * law.icdf(np.clip(np.asarray(u, dtype=float),
                                             EPS, 1.0 - EPS)))

    def pdf(self, x):
        law, c, s = self._place()
        return _out(law.pdf((np.asarray(x, dtype=float) - c) / s) * (1.0 / s))

    def cdf_average(self, lo, hi):
        """Mean of the cdf over [lo, hi]: (G(hi) - G(lo)) / (hi - lo), G' = F.

        Each family is symmetric about its mean c, F(c + z) = 1 - F(c - z).
        An interval whose midpoint lies above c is mirrored below it and its
        mean taken from 1, so G stays small at both ends and the upper tail
        loses no digits to cancellation.
        """
        law, c, s = self._place()
        dl = np.asarray(lo, dtype=float) - c
        dh = np.asarray(hi, dtype=float) - c
        if not np.all(dh > dl):
            raise ValueError("cdf average needs lo < hi")
        upper = dl + dh > 0
        zl, zh = np.where(upper, -dh, dl) / s, np.where(upper, -dl, dh) / s
        mean = law.g_diff(zl, zh) / (zh - zl)
        return _out(np.where(upper, 1.0 - mean, mean))

    def diff_entropy(self) -> float:
        """Differential entropy in nats."""
        return _LAWS[self.family].entropy + math.log(self._place()[2])

    # ---- sampling ----------------------------------------------------------

    def sample(self, seed: int, n: int, stream: int = 0) -> "EmpiricalSample":
        """Draw n i.i.d. dim-vectors by inverse transform sampling."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = stream_rng(seed, stream)
        u = rng.random((n, self.dim))
        vals = np.asarray(self.icdf(u), dtype=float)
        return EmpiricalSample(values=vals, seed=seed, count=n)


@dataclass(frozen=True)
class EmpiricalSample:
    values: np.ndarray  # shape (n, k)
    seed: int
    count: int

    def __post_init__(self):
        if self.count < 1 or len(self.values) != self.count:
            raise ValueError("count must match the number of rows")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample contains non-finite values")


# ---- convenience constructors ----------------------------------------------

def gaussian(mean: float = 0.0, var: float = 1.0, dim: int = 1) -> SourceModel:
    return SourceModel(Family.GAUSSIAN, (float(mean), float(var)), dim)


def uniform(a: float = 0.0, b: float = 1.0, dim: int = 1) -> SourceModel:
    return SourceModel(Family.UNIFORM, (float(a), float(b)), dim)


def laplace(loc: float = 0.0, scale: float = 1.0, dim: int = 1) -> SourceModel:
    return SourceModel(Family.LAPLACE, (float(loc), float(scale)), dim)


# ---- empirical statistics ----------------------------------------------------

def ks_statistic(sample, model: SourceModel) -> tuple[float, bool]:
    """Two-sided KS statistic of a scalar sample against a continuous model.

    Returns (D_n, pass) where pass means D_n < 1.36/sqrt(n), the asymptotic
    5% critical value.  Refuses n < 20 where the asymptotic threshold is
    invalid.
    """
    x = np.asarray(sample.values if isinstance(sample, EmpiricalSample) else sample,
                   dtype=float).ravel()
    n = x.size
    if n < 20:
        raise ValueError("KS test requires n >= 20 for the asymptotic threshold")
    f = np.asarray(model.cdf(np.sort(x)))
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return d, d < KS_ALPHA_005_COEFF / math.sqrt(n)


def plugin_entropy(counts) -> float:
    """Plug-in entropy of a histogram, in nats."""
    c = np.asarray(counts, dtype=float).ravel()
    c = c[c > 0]
    total = c.sum()
    if total < 1:
        raise ValueError("total count must be >= 1")
    p = c / total
    return float(-np.sum(p * np.log(p)))
