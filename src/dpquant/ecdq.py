"""Entropy-coded dithered quantization (subtractive dither).

encode: indices = nearest lattice point of (x + dither); decode forms the
reconstruction point - dither, so the error is uniform over the negated basic
cell and independent of the source.  Rate is reported as an entropy estimate,
H(index | dither), not realized as a bitstream.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np
from scipy import integrate

from .lattice import Lattice
from .prob import SourceModel, plugin_entropy
from .rng import stream_rng

__all__ = [
    "ecdq_encode",
    "ecdq_decode",
    "ecdq_rate_empirical",
    "ecdq_rate_analytic",
    "N_DITHERS",
]

N_DITHERS = 16  # fixed dithers the empirical rate is averaged over
_RATE_TOL = 1e-4  # quadrature error bound of the analytic rate, nats


def _check_dither(lat: Lattice, dither: np.ndarray):
    # by index: a bound on |point| such as 1e-9 lets whole cells through
    # once the step is below it
    if np.any(lat.nearest_index(dither)):
        raise ValueError("dither must lie inside the basic cell")


def ecdq_encode(lat: Lattice, dither, x) -> np.ndarray:
    """Lattice indices of x + dither; x and dither may be (k,) or (n, k).

    The sum is formed a block of rows at a time (`Lattice.nearest_index`),
    so the index is the one array of x's size formed.
    """
    dither = np.asarray(dither, dtype=float)
    _check_dither(lat, dither)
    return lat.nearest_index(x, dither)


def ecdq_decode(lat: Lattice, dither, indices) -> np.ndarray:
    """The reconstruction x_hat = point(indices) - dither, the dither
    subtracted where the points lie."""
    x_hat = lat.point(indices)
    x_hat -= np.asarray(dither, dtype=float)
    return x_hat


def _index_counts(idx: np.ndarray) -> np.ndarray:
    """Counts of the distinct rows of an (n, k) integer array, rows ascending.

    idx is overwritten: the keys are formed in its first column in place, so
    no n-sized key array is allocated.  For k >= 2 that column is strided,
    which `np.bincount` would copy, so the keys are then moved into idx's
    first n slots.
    """
    # one column at a time: a min over axis 0 of (n, k) is a strided
    # reduction, about 25 times slower
    cols = [idx[:, c] for c in range(idx.shape[1])]
    lo = [int(col.min()) for col in cols]
    spans = [int(col.max()) - m + 1 for col, m in zip(cols, lo)]
    size = math.prod(spans)
    if size > np.iinfo(np.int64).max:
        raise ValueError("index span too wide for int64 keys")
    keys = cols[0]
    keys -= lo[0]
    # in place: exact in wrapping int64 arithmetic, since each final key fits
    for col, m, span in zip(cols[1:], lo[1:], spans[1:]):
        keys *= span
        keys += col
        keys -= m
    if idx.shape[1] > 1:
        keys = _compact(idx.reshape(-1), idx.shape[1], len(keys))
    if size <= len(keys):
        counts = np.bincount(keys)
        return counts[counts > 0]
    return np.unique(keys, return_counts=True)[1]


def _compact(flat: np.ndarray, k: int, n: int) -> np.ndarray:
    """Move flat[::k][:n] into flat[:n] and return that contiguous view.

    Slots [a, a*k) are written from the rows at a*k and above, which are not
    yet overwritten, so no block overlaps its source and numpy copies each
    without a buffer; k >= 2 takes about log_k(n) blocks.
    """
    a = 1  # flat[0] is the first key already
    while a < n:
        b = min(a * k, n)
        flat[a:b] = flat[a * k:(b - 1) * k + 1:k]
        a = b
    return flat[:n]


def ecdq_rate_empirical(lattices: Iterable[Lattice], model: SourceModel,
                        n: int, seed: int = 0) -> list[tuple[float, float]]:
    """Empirical rate of the ECDQ on each of `lattices`, nats per dimension.

    Approximates H(index | dither)/k by the plug-in entropy of the index
    sequence under each of `N_DITHERS` fixed dithers, averaged.  Returns one
    (rate, standard error over dithers) per lattice, in order.  The index
    histogram runs over the observed support only, a small negative bias for
    heavy tails.

    Dither pass j draws the source sample ``model.sample(seed, n, stream=j)``
    once and encodes it on every lattice, each under its own dither from
    ``stream_rng(seed, 1, j)``; so each result is bit-identical to a call on
    that lattice alone.  Every lattice must have the model's dimension.

    The histogram is counted on flat keys: each index column is shifted by
    its minimum and each row becomes one row-major int64 key, formed in place
    in the spent index's first column and moved into its first n slots.  The
    keys are counted by `np.bincount` when the product of the column spans
    is at most n, so the count array is never longer than the keys, and by
    a 1-D `np.unique` otherwise.  Row-major keys sort like the rows
    themselves, so either way the counts come out in the order of a row-wise
    `np.unique(axis=0)`.  An index span too wide for int64 keys raises
    ValueError.
    """
    if n < 10_000:
        raise ValueError("need n >= 1e4 for a stable entropy estimate")
    lattices = list(lattices)
    k = model.dim
    if any(lat.dim != k for lat in lattices):
        raise ValueError("model dimension must match every lattice")
    rates = np.empty((len(lattices), N_DITHERS))
    for j in range(N_DITHERS):
        x = model.sample(seed, n, stream=j).values
        for i, lat in enumerate(lattices):
            z = lat.sample_dither(stream_rng(seed, 1, j), 1)
            counts = _index_counts(ecdq_encode(lat, z, x).reshape(n, k))
            rates[i, j] = plugin_entropy(counts) / k
    return [(float(r.mean()), float(r.std(ddof=1) / math.sqrt(N_DITHERS)))
            for r in rates]


def ecdq_rate_analytic(model: SourceModel, lat: Lattice) -> float:
    """Analytic ECDQ rate for a scalar cubic lattice: h(X + U) - ln(step).

    The density of X + U(-step/2, step/2) is (F(y + step/2) - F(y - step/2)) / step;
    its differential entropy is evaluated by adaptive quadrature, which must
    report an error below `_RATE_TOL` nats.
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
    h, err = integrate.quad(neg_flogf, lo, hi, limit=400, epsabs=_RATE_TOL / 10)
    if err > _RATE_TOL:
        raise RuntimeError(f"quadrature error {err:.2e} exceeds tolerance "
                           f"{_RATE_TOL}")
    return h - math.log(step)
