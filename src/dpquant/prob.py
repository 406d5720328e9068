"""Probability models for sources and the empirical statistics built on them.

A :class:`SourceModel` is a scalar continuous family, i.i.d. across ``dim``
coordinates: the location-scale copy of a standard law symmetric about 0,
whose `_LAWS` row gives every method.  A finite pmf is not a source model;
the coupling solver in `bounds` takes it directly.
"""

from __future__ import annotations

import enum
import math
import operator
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
_KS_CHUNK = 1 << 16  # rows of the KS grid formed at a time
_ICDF_BLOCK = 8192  # elements of the Laplace icdf formed at a time


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


def _laplace_icdf(u):
    # sign(u - 1/2) log(2 min(u, 1 - u)), which keeps both tails' digits: 1 - u
    # is exact above 1/2.  The sign is negated from 1/2 - u, so 1/2 gives -0.0.
    flat = u.ravel(order="K")  # a view: u is a fresh copy or draw
    for lo in range(0, flat.size, _ICDF_BLOCK):
        v = flat[lo:lo + _ICDF_BLOCK]
        t = np.subtract(1.0, v)
        np.minimum(t, v, out=t)
        t *= 2.0
        np.log(t, out=t)
        np.subtract(0.5, v, out=v)
        np.copysign(t, v, out=v)
        np.negative(v, out=v)
    return u


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
    ``icdf`` overwrites the float array it is given, of any shape, and
    returns it.
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
        cdf=special.ndtr, icdf=lambda u: special.ndtri(u, out=u), pdf=_phi,
        g_diff=lambda zl, zh: _gaussian_g(zh) - _gaussian_g(zl),
        entropy=0.5 * math.log(2 * math.pi * math.e)),
    Family.UNIFORM: _Law(
        loc_scale=lambda p: (0.5 * (p[0] + p[1]), p[1] - p[0]),
        variance=lambda p: (p[1] - p[0]) ** 2 / 12.0,
        cdf=lambda z: np.clip(z + 0.5, 0.0, 1.0),
        icdf=lambda u: np.subtract(u, 0.5, out=u),
        pdf=lambda z: np.where(np.abs(z) <= 0.5, 1.0, 0.0),
        g_diff=_uniform_g_diff, entropy=0.0),
    Family.LAPLACE: _Law(
        loc_scale=lambda p: (p[0], p[1]),
        variance=lambda p: 2.0 * p[1] ** 2,
        cdf=_laplace_cdf, icdf=_laplace_icdf,
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
    params: tuple[float, ...]
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise TypeError(f"family must be a Family, got {self.family!r}")
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.params) != 2:
            raise ValueError(f"{self.family.value} needs 2 parameters, "
                             f"got {len(self.params)}")
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
        z = np.subtract(x, c, dtype=float)
        z /= s
        return _out(law.cdf(z))

    def icdf(self, u):
        """Inverse cdf; u is clamped to [EPS, 1-EPS] before inversion.

        The one array formed is the clamped copy of u, which is inverted in
        place; the caller's u is left as it was.
        """
        return _out(self._icdf_in_place(np.array(u, dtype=float)))

    def _icdf_in_place(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the float array u with icdf(u) and return it."""
        law, c, s = self._place()
        np.clip(u, EPS, 1.0 - EPS, out=u)
        z = law.icdf(u)
        z *= s
        z += c
        return z

    def pdf(self, x):
        law, c, s = self._place()
        return _out(law.pdf((np.asarray(x, dtype=float) - c) / s) * (1.0 / s))

    def cdf_average(self, lo, hi):
        """Mean of the cdf over [lo, hi]: (G(hi) - G(lo)) / (hi - lo), G' = F.

        Each family is symmetric about its mean c, F(c + z) = 1 - F(c - z).
        An interval whose midpoint lies above c is mirrored below it and its
        mean taken from 1, so G stays small at both ends and the upper tail
        loses no digits to cancellation.

        The Gaussian G differences `ndtr` values that carry a few ulp of
        error, so its absolute error grows like 2e-16 sigma / (hi - lo): about
        2e-13 at a width of 1e-3 sigma and 2e-11 at 1e-5 sigma, against
        40-digit mpmath.  So the cube's smoothed cdf keeps its Gauss-Legendre
        quadrature for a Gaussian cell narrower than 1 sigma, and takes this
        form from 1 sigma up, where it is within 2.2e-16.  Far in the lower
        tail G(z) = z Phi(z) + phi(z) cancels, so the relative error there is
        about 3e-13 against the rule's 2e-15 to 1e-14; the absolute error stays
        at rounding.
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
        """Draw n i.i.d. dim-vectors by inverse transform sampling.

        The uniform draws are inverted where they lie, so the sample is the
        one n-sized array formed.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        u = stream_rng(seed, stream).random((n, self.dim))
        return EmpiricalSample(self._icdf_in_place(u))


@dataclass(frozen=True)
class EmpiricalSample:
    values: np.ndarray  # shape (n, k)

    def __post_init__(self):
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

def ks_statistic(u) -> tuple[float, bool]:
    """Two-sided KS distance of a sample u from U(0, 1).

    Pass the probability integral transform ``model.cdf(x)`` to test a scalar
    sample x against a continuous model: the cdf is monotone, so this is the
    KS distance of x from the model.  With u sorted, D_n is the larger of
    max(i/n - u_(i)) and max(u_(i) - (i-1)/n), formed in chunks of
    `_KS_CHUNK`.  A chunk holds one scratch array at a time: the steps
    above it less u, then u less the steps below it.  Returns (D_n, pass)
    where pass means D_n < 1.36/sqrt(n), the asymptotic 5% critical value.
    Refuses n < 20, where the asymptotic threshold is invalid, and u outside
    [0, 1].

    u is sorted into a copy only when it is not already ascending, which one
    chunked pass checks: an ascending float array is read where it lies, with
    no n-sized copy, and the caller's u is never changed.  NaN fails the
    check, sorts to the end and is refused.
    """
    u = np.asarray(u, dtype=float).ravel()
    if not _ascending(u):
        u = np.sort(u)
    n = u.size
    if n < 20:
        raise ValueError("KS test requires n >= 20 for the asymptotic threshold")
    if not (u[0] >= 0.0 and u[-1] <= 1.0):
        raise ValueError("KS test needs u in [0, 1]: pass model.cdf(x)")
    d = 0.0
    for lo in range(0, n, _KS_CHUNK):
        f = u[lo:lo + _KS_CHUNK]
        d = max(d, _ks_side(f, lo, n, above=True), _ks_side(f, lo, n, above=False))
    return d, d < KS_ALPHA_005_COEFF / math.sqrt(n)


def _ks_side(f, lo: int, n: int, above: bool) -> float:
    """max(i/n - f) over the steps i/n above the chunk f = u[lo:], or
    max(f - i/n) over those below it, formed in one float array.

    The float ``arange`` holds exact integers, so the steps have the bits of
    ``np.arange(lo, lo + f.size + 1) / n``.
    """
    start = lo + 1 if above else lo
    gaps = np.arange(start, start + f.size, dtype=float)
    gaps /= n
    if above:
        gaps -= f
    else:
        np.subtract(f, gaps, out=gaps)
    return float(gaps.max())


def _ascending(u) -> bool:
    """Whether the flat array u is ascending; False if it holds NaN."""
    for lo in range(0, u.size - 1, _KS_CHUNK):
        f = u[lo:lo + _KS_CHUNK + 1]  # one row of overlap with the next chunk
        if not np.all(f[1:] >= f[:-1]):
            return False
    return True


def plugin_entropy(counts) -> float:
    """Plug-in entropy of a histogram, in nats."""
    c = np.asarray(counts, dtype=float).ravel()
    c = c[c > 0]
    total = c.sum()
    if total < 1:
        raise ValueError("total count must be >= 1")
    p = c / total
    return float(-np.sum(p * np.log(p)))
