"""Probability models for sources and the empirical statistics built on them.

A :class:`SourceModel` is a scalar distribution family replicated i.i.d.
across ``dim`` coordinates.  Closed-form cdf/icdf/pdf are exposed for the
continuous families; a finite pmf gets a step cdf with the infimum inverse.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
    "discrete_pmf",
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
    DISCRETE_PMF = "pmf"


@dataclass(frozen=True)
class SourceModel:
    """Scalar distribution family, i.i.d. across ``dim`` coordinates.

    ``params`` holds (mean, variance) for Gaussian, (a, b) for Uniform,
    (loc, scale) for Laplace.  Discrete models carry explicit support values
    and probabilities instead.
    """

    family: Family
    params: tuple[float, ...] = ()
    dim: int = 1
    values: tuple[float, ...] = field(default=())
    probs: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family is Family.GAUSSIAN:
            if self.params[1] <= 0:
                raise ValueError("Gaussian variance must be > 0")
        elif self.family is Family.UNIFORM:
            if not self.params[0] < self.params[1]:
                raise ValueError("Uniform support must be non-degenerate")
        elif self.family is Family.LAPLACE:
            if self.params[1] <= 0:
                raise ValueError("Laplace scale must be > 0")
        elif self.family is Family.DISCRETE_PMF:
            p = np.asarray(self.probs, dtype=float)
            if p.size == 0 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("pmf entries must be >= 0 and sum to 1")
            if len(self.values) != p.size:
                raise ValueError("values/probs length mismatch")

    # ---- basic properties -------------------------------------------------

    @property
    def is_continuous(self) -> bool:
        return self.family is not Family.DISCRETE_PMF

    def mean(self) -> float:
        if self.family is Family.GAUSSIAN:
            return self.params[0]
        if self.family is Family.UNIFORM:
            return 0.5 * (self.params[0] + self.params[1])
        if self.family is Family.LAPLACE:
            return self.params[0]
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        if self.family is Family.GAUSSIAN:
            return self.params[1]
        if self.family is Family.UNIFORM:
            return (self.params[1] - self.params[0]) ** 2 / 12.0
        if self.family is Family.LAPLACE:
            return 2.0 * self.params[1] ** 2
        v = np.asarray(self.values)
        m = self.mean()
        return float(np.dot((v - m) ** 2, self.probs))

    # ---- cdf / icdf / pdf -------------------------------------------------

    def cdf(self, x):
        """Cumulative distribution function (step cdf for finite pmfs)."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, var = self.params
            out = special.ndtr((x - mu) / math.sqrt(var))
        elif self.family is Family.UNIFORM:
            a, b = self.params
            out = np.clip((x - a) / (b - a), 0.0, 1.0)
        elif self.family is Family.LAPLACE:
            loc, scale = self.params
            z = (x - loc) / scale
            half_tail = 0.5 * np.exp(-np.abs(z))
            out = np.where(z < 0, half_tail, 1.0 - half_tail)
        else:
            v = np.asarray(self.values)
            c = np.cumsum(self.probs)
            idx = np.searchsorted(v, x, side="right")
            out = np.where(idx > 0, c[np.maximum(idx - 1, 0)], 0.0)
        return out if out.ndim else float(out)

    def icdf(self, u):
        """Inverse cdf; u is clamped to [EPS, 1-EPS] before inversion."""
        u = np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)
        if self.family is Family.GAUSSIAN:
            mu, var = self.params
            out = mu + math.sqrt(var) * special.ndtri(u)
        elif self.family is Family.UNIFORM:
            a, b = self.params
            out = a + (b - a) * u
        elif self.family is Family.LAPLACE:
            loc, scale = self.params
            out = loc - scale * np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))
        else:
            # infimum rule: smallest support value with cdf >= u
            c = np.cumsum(self.probs)
            idx = np.searchsorted(c, u, side="left")
            out = np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]
        return out if out.ndim else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, var = self.params
            out = np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)
        elif self.family is Family.UNIFORM:
            a, b = self.params
            out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        elif self.family is Family.LAPLACE:
            loc, scale = self.params
            out = 0.5 / scale * np.exp(-np.abs(x - loc) / scale)
        else:
            raise ValueError("pdf undefined for a discrete pmf")
        return out if out.ndim else float(out)

    def diff_entropy(self) -> float:
        """Differential entropy in nats (continuous families only)."""
        if self.family is Family.GAUSSIAN:
            return 0.5 * math.log(2 * math.pi * math.e * self.params[1])
        if self.family is Family.UNIFORM:
            return math.log(self.params[1] - self.params[0])
        if self.family is Family.LAPLACE:
            return 1.0 + math.log(2 * self.params[1])
        raise ValueError("differential entropy undefined for a discrete pmf; "
                         "use plugin_entropy on counts")

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


def discrete_pmf(probs, values=None) -> SourceModel:
    probs = tuple(float(p) for p in probs)
    if values is None:
        values = tuple(float(i) for i in range(len(probs)))
    else:
        values = tuple(float(v) for v in values)
    return SourceModel(Family.DISCRETE_PMF, (), 1, values=values, probs=probs)


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
    if not model.is_continuous:
        raise ValueError("KS test requires a continuous model")
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
