"""Entropy-coded dithered quantization (subtractive dither).

encode: indices = nearest lattice point of (x + dither); the reconstruction
is point - dither, so the error is uniform over the negated basic cell and
independent of the source.  Rate is reported as an entropy estimate, not
realized as a bitstream; see coding.py for the arithmetic-coder validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .lattice import Lattice
from .prob import SourceModel, plugin_entropy
from .rng import stream_rng

__all__ = [
    "EcdqOutput",
    "ecdq_encode",
    "ecdq_decode",
    "ecdq_rate_empirical",
    "ecdq_rate_analytic",
    "N_DITHERS",
]

N_DITHERS = 16  # fixed dithers the empirical rate is averaged over


@dataclass(frozen=True, eq=False)
class EcdqOutput:
    indices: np.ndarray  # (..., k) integer
    x_hat: np.ndarray    # (..., k) reconstruction = point - dither


def _check_dither(lat: Lattice, dither: np.ndarray):
    _, pt = lat.nearest_point(dither)
    if np.any(np.abs(pt) > 1e-9):
        raise ValueError("dither must lie inside the basic cell")


def ecdq_encode(lat: Lattice, dither, x) -> EcdqOutput:
    """Subtractive-dither encode; x and dither may be (k,) or (n, k)."""
    dither = np.asarray(dither, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dither(lat, dither)
    idx, pt = lat.nearest_point(x + dither)
    return EcdqOutput(indices=idx, x_hat=pt - dither)


def ecdq_decode(lat: Lattice, dither, indices) -> np.ndarray:
    """Decoder side: identical x_hat given the shared dither."""
    return lat.point(indices) - np.asarray(dither, dtype=float)


def _index_counts(idx: np.ndarray) -> np.ndarray:
    """Counts of the distinct rows of an (n, k) integer array, rows ascending."""
    lo = idx.min(axis=0)
    keys = np.ravel_multi_index((idx - lo).T, tuple(idx.max(axis=0) - lo + 1))
    return np.unique(keys, return_counts=True)[1]


def ecdq_rate_empirical(lat: Lattice, model: SourceModel, n: int,
                        seed: int = 0) -> tuple[float, float]:
    """Empirical rate of the ECDQ, nats per dimension.

    Approximates H(index | dither)/k by the plug-in entropy of the index
    sequence under each of `N_DITHERS` fixed dithers, averaged.  Returns
    (rate, standard error over dithers).  The index histogram runs over the
    observed support only, a small negative bias for heavy tails.

    The histogram is counted on flat keys: each index column is shifted by
    its minimum, each row becomes one int64 with `np.ravel_multi_index`, and
    the keys are counted with a 1-D `np.unique`.  Row-major keys sort like
    the rows themselves, so the counts come out in the order of a row-wise
    `np.unique(axis=0)`.  An index span too wide for int64 keys raises
    ValueError.
    """
    if n < 10_000:
        raise ValueError("need n >= 1e4 for a stable entropy estimate")
    k = lat.dim
    if model.dim != k:
        raise ValueError("model dimension must match the lattice")
    rates = []
    for j in range(N_DITHERS):
        z = lat.sample_dither(stream_rng(seed, 1, j))
        x = model.sample(seed, n, stream=j).values
        out = ecdq_encode(lat, z, x)
        counts = _index_counts(out.indices.reshape(n, k))
        rates.append(plugin_entropy(counts) / k)
    rates = np.asarray(rates)
    return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(N_DITHERS))


def ecdq_rate_analytic(model: SourceModel, lat: Lattice, tol: float = 1e-4) -> float:
    """Analytic ECDQ rate for a scalar cubic lattice: h(X + U) - ln(step).

    The density of X + U(-step/2, step/2) is (F(y + step/2) - F(y - step/2)) / step;
    its differential entropy is evaluated by adaptive quadrature.
    """
    if not (model.dim == 1 and lat.kind == "scaled_integer" and lat.dim == 1):
        raise ValueError("analytic rate is defined for scalar models and a "
                         "scalar cubic lattice")
    step = lat.step

    def neg_flogf(y):
        f = (model.cdf(y + step / 2) - model.cdf(y - step / 2)) / step
        return np.where(f > 0, -f * np.log(np.maximum(f, 1e-300)), 0.0)

    lo = float(model.icdf(1e-10)) - step
    hi = float(model.icdf(1 - 1e-10)) + step
    h, err = integrate.quad(neg_flogf, lo, hi, limit=400, epsabs=tol / 10)
    if err > tol:
        raise RuntimeError(f"quadrature error {err:.2e} exceeds tolerance {tol}")
    return h - math.log(step)
