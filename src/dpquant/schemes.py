"""Quantizer-ensemble implementations.

Four kinds behind one interface, ``run(x, block) -> (x_tilde, payload)``,
``rate(payloads) -> (nats per dimension, se)`` and ``describe()``: the
zero-rate synthesis scheme, resampling within the cells of a scalar quantizer,
the transformation-based scheme built on ECDQ, and the scaled-AWGN
construction that sits exactly on the Gaussian DP-RDF.  A payload is a batch
statistic or None, never a per-sample array.  Encoder and decoder
rebuild the shared randomness from the same 64-bit seed; decoding never sees
the source.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math

import numpy as np

from .bounds import awgn_oracle_point
from .ecdq import ecdq_decode, ecdq_encode
from .lattice import Lattice, check_range, scaled_integer
from .prob import Family, SourceModel
from .rng import stream_rng
from .transform import dpq_transform

__all__ = [
    "SimpleDpq",
    "ResampleDpq",
    "TransformDpq",
    "AwgnOracle",
    "FAMILIES",
    "SchemeError",
    "build",
    "simple_dpq",
    "resample_dpq",
    "transform_dpq_encode",
    "transform_dpq_decode",
    "awgn_oracle_apply",
]

# stream tags, to keep the seed-derived streams of different roles disjoint
_TAG_SCHEME = 2
_TAG_DITHER = 3


@dataclass(frozen=True)
class SimpleDpq:
    source: SourceModel
    seed: int

    def run(self, x, block):
        return simple_dpq(self, x, block=block), None

    def rate(self, payloads):
        return 0.0, 0.0

    def describe(self) -> dict:
        return {}


@dataclass(frozen=True)
class ResampleDpq:
    source: SourceModel
    seed: int
    step: float  # base uniform scalar quantizer step

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError("base quantizer step must be finite and > 0")
        if self.source.dim != 1:
            raise ValueError("resampling scheme is scalar")

    def run(self, x, block):
        _, mass, x_tilde = resample_dpq(self, x, block)
        codelength = float(np.mean(-np.log(mass)))
        return x_tilde.reshape(np.shape(x)), (codelength, mass.size)

    def rate(self, payloads):
        """Mean model codelength -log p(j) of the cells; SE from the batches.

        Each payload is a batch's (mean codelength, rows).  The mean's
        expectation is the entropy of the cell index, estimated without the
        plug-in entropy's downward bias.
        """
        means, rows = zip(*payloads)
        se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
        return float(np.average(means, weights=rows)), se

    def describe(self) -> dict:
        return {"step": self.step}


@dataclass(frozen=True)
class TransformDpq:
    source: SourceModel
    seed: int
    lat: Lattice

    def __post_init__(self):
        if self.source.dim != self.lat.dim:
            raise ValueError("source and lattice dimension mismatch")

    def run(self, x, block):
        """Decode of encode, with the batch's dithers drawn once.

        Both ends run here, so the decoder takes the encoder's dithers
        instead of rebuilding them from the seed; the lattice drew them
        into its cell, so `ecdq_encode`'s dither check is skipped.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = _block_dithers(self, len(x), block)
        indices = self.lat.nearest_point(x + z)[0]
        return _reconstruct(self, indices, z), None

    def rate(self, payloads):
        raise NotImplementedError("harness.evaluate measures the ECDQ rate")

    def describe(self) -> dict:
        return {"lattice": asdict(self.lat)}


@dataclass(frozen=True)
class AwgnOracle:
    source: SourceModel
    seed: int
    noise_var: float

    def __post_init__(self):
        if self.source.family is not Family.GAUSSIAN:
            raise ValueError("the AWGN construction requires a Gaussian source")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError("noise variance must be finite and >= 0")

    def run(self, x, block):
        return awgn_oracle_apply(self, x, block=block), None

    def rate(self, payloads):
        """The closed form of `bounds.awgn_oracle_point`, exact: SE 0."""
        if self.noise_var == 0:
            return math.inf, 0.0
        return awgn_oracle_point(self.source.params[1], self.noise_var).rate, 0.0

    def describe(self) -> dict:
        return {"noise_var": self.noise_var}


def _transform(source: SourceModel, seed: int, lat) -> TransformDpq:
    lat = lat if isinstance(lat, Lattice) else scaled_integer(lat, source.dim)
    return TransformDpq(source, seed, lat)


# name -> (make(source, seed, param), the param's key in a CLI `name:key=V`
# spec, its default there); the transform's param is a Lattice or a cube step
FAMILIES = {
    "simple": (lambda source, seed, _: SimpleDpq(source, seed), None, 0.0),
    "resample": (ResampleDpq, "step", 0.05),
    "transform": (_transform, None, None),
    "awgn": (AwgnOracle, "eta2", 1.0),
}


class SchemeError(ValueError):
    """A family name, or a parameter or source, that no scheme accepts."""


def build(family: str, source: SourceModel, seed: int, param):
    """The scheme of one family at one parameter value."""
    if family not in FAMILIES:
        raise SchemeError(f"unknown scheme family: {family}")
    try:
        return FAMILIES[family][0](source, seed, param)
    except ValueError as exc:
        raise SchemeError(f"{family}: {exc}") from exc


def _check_finite(x: np.ndarray):
    # the schemes that do not quantize would pass NaN and inf through
    if not np.isfinite(x).all():
        raise ValueError("x contains NaN or inf")


def simple_dpq(scheme: SimpleDpq, x, block: int = 0) -> np.ndarray:
    """Synthesize from the source law, ignoring x but for refusing NaN and
    inf, as every scheme does.  Rate 0."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    rng = stream_rng(scheme.seed, _TAG_SCHEME, block)
    return np.asarray(scheme.source.icdf(rng.random(x.shape)))


def resample_dpq(scheme: ResampleDpq, x, block: int = 0):
    """Resample within the base-quantizer cell of each input.

    Cell j is [j*step, (j+1)*step); the reconstruction is an inverse-cdf draw
    restricted to the cell, so its marginal is exactly the source law.
    Returns (cell indices, cell masses p(j), x_tilde), each flat.  NaN, inf
    and any |x| >= 2**51 step are refused, as `Lattice.nearest_point` does.
    """
    x = np.asarray(x, dtype=float).ravel()
    step = scheme.step
    check_range(x, step)
    j = np.floor(x / step).astype(np.int64)
    fa = np.asarray(scheme.source.cdf(j * step))
    mass = np.asarray(scheme.source.cdf((j + 1) * step)) - fa
    if np.any(mass <= 0):
        raise ValueError("zero-probability base cell encountered")
    rng = stream_rng(scheme.seed, _TAG_SCHEME, block)
    u = fa + mass * rng.random(x.shape)
    x_tilde = np.asarray(scheme.source.icdf(u))
    # clip against icdf clamping at the far tails
    x_tilde = np.clip(x_tilde, j * step, np.nextafter((j + 1) * step, -np.inf))
    return j, mass, x_tilde


def _block_dithers(scheme: TransformDpq, n: int, block: int) -> np.ndarray:
    rng = stream_rng(scheme.seed, _TAG_DITHER, block)
    return scheme.lat.sample_dither(rng, n)


def transform_dpq_encode(scheme: TransformDpq, x, block: int = 0) -> np.ndarray:
    """ECDQ encode with the seed-derived dither stream for this block."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = _block_dithers(scheme, len(x), block)
    return ecdq_encode(scheme.lat, z, x)


def transform_dpq_decode(scheme: TransformDpq, indices, block: int = 0) -> np.ndarray:
    """Regenerate the dithers from the seed, undo ECDQ, apply the transform."""
    indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
    return _reconstruct(scheme, indices, _block_dithers(scheme, len(indices), block))


def _reconstruct(scheme: TransformDpq, indices, z) -> np.ndarray:
    return dpq_transform(scheme.source, scheme.lat, ecdq_decode(scheme.lat, z, indices))


def awgn_oracle_apply(scheme: AwgnOracle, x, block: int = 0) -> np.ndarray:
    """x_tilde = sqrt(var/(var+eta^2)) (x - mu + N) + mu, N ~ N(0, eta^2).

    NaN and inf in x are refused."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    mu, var = scheme.source.params
    rng = stream_rng(scheme.seed, _TAG_SCHEME, block)
    noise = rng.standard_normal(x.shape) * math.sqrt(scheme.noise_var)
    return math.sqrt(var / (var + scheme.noise_var)) * (x - mu + noise) + mu
