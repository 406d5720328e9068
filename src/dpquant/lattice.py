"""Quantization lattices: nearest-point rule and dither sampling.

A lattice is its kind and its step.  `scaled_integer(step, dim)` is the cubic
lattice step·Z^dim in any dimension; its basic cell is the centered cube,
symmetric per coordinate.  `hexagonal(scale)` is the 2-D hexagonal lattice
with minimum distance scale, whose Voronoi cell is a regular hexagon and
exercises the non-product integration path of the cell-smoothed cdf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["Lattice", "scaled_integer", "hexagonal", "check_range"]


@dataclass(frozen=True)
class Lattice:
    kind: str     # "scaled_integer" | "hexagonal"
    step: float   # per-axis step of the cube; minimum distance of the hexagon
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "dim", operator.index(self.dim))
        if self.kind not in ("scaled_integer", "hexagonal"):
            raise ValueError(f"unknown lattice kind: {self.kind!r}")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be finite and > 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "hexagonal" and self.dim != 2:
            raise ValueError("a hexagonal lattice is 2-D")

    @property
    def generator(self) -> np.ndarray:
        """k x k matrix whose columns are the basis vectors."""
        if self.kind == "scaled_integer":
            return np.eye(self.dim) * self.step
        return self.step * np.array([[1.0, 0.5],
                                     [0.0, math.sqrt(3.0) / 2.0]])

    @property
    def cell_volume(self) -> float:
        return abs(float(np.linalg.det(self.generator)))

    # ---- quantization ------------------------------------------------------

    def nearest_point(self, x):
        """Nearest lattice point(s) to x; returns (index, point).

        x may be a single k-vector or an (n, k) batch; a last axis other
        than k = dim, or more than two axes, is refused.  NaN, inf and any
        |x| >= 2**51 step are refused too: past that the float index is no
        longer an exact integer.
        Ties: round-half-to-even per coordinate for the cube, the
        lexicographically smallest index for the hexagon.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or x.ndim > 2:
            raise ValueError(f"x must be a vector or rows of width dim = "
                             f"{self.dim}, got shape {x.shape}")
        check_range(x, self.step)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        if self.kind == "scaled_integer":
            idx = np.rint(xb / self.step).astype(np.int64)  # rint = half-to-even
            pt = idx * self.step
        else:
            idx, pt = self._nearest_hex(xb)
        if single:
            return idx[0], pt[0]
        return idx, pt

    def _nearest_hex(self, xb):
        # The hexagonal lattice is the rectangular lattice s·(Z x √3Z), the
        # even rows j, and its coset shifted by the second basis vector, the
        # odd rows (Conway & Sloane 1982).  In each coset the nearest row is
        # rint's, and the nearest point is one of the two columns beside x.
        # Near-ties are left to the float distances of these four candidates,
        # then to the smallest index.  The points come from the matmul, whose
        # fused multiply-add an elementwise i*G00 + j*G01 would not repeat.
        xs, r = xb[:, 0] / self.step, xb[:, 1] / (self.step * math.sqrt(3.0))
        won = []
        for j in (2 * np.rint(r), 2 * np.rint(r - 0.5) + 1):
            idx = np.empty((2, len(xb), 2))  # columns i and i + 1 of row j
            idx[0, :, 0] = np.floor(xs - j / 2)
            idx[1, :, 0] = idx[0, :, 0] + 1
            idx[:, :, 1] = j
            d = idx @ self.generator.T - xb
            d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
            # one row, so the left column's smaller i wins a tie
            won.append((np.minimum(d2[0], d2[1]), idx[0, :, 0] + (d2[1] < d2[0]), j))
        (d2e, ie, je), (d2o, io, jo) = won
        odd = (d2o < d2e) | (d2o == d2e) & ((io < ie) | (io == ie) & (jo < je))
        idx = np.column_stack([np.where(odd, io, ie), np.where(odd, jo, je)])
        return idx.astype(np.int64), idx @ self.generator.T

    def point(self, index):
        """Lattice point for an integer index vector (or batch)."""
        return np.asarray(index, dtype=np.int64) @ self.generator.T

    # ---- dither ------------------------------------------------------------

    def sample_dither(self, rng: np.random.Generator, n: int):
        """n uniform draws over the basic (Voronoi) cell, shape (n, dim).

        Cube: per-axis uniform on [-step/2, step/2].  Hexagon: uniform on the
        fundamental parallelogram folded into the Voronoi cell (subtract the
        nearest lattice point), which is exact and rejection-free.
        """
        if self.kind == "scaled_integer":
            return (rng.random((n, self.dim)) - 0.5) * self.step
        u = rng.random((n, self.dim)) @ self.generator.T
        return u - self.nearest_point(u)[1]


def check_range(x: np.ndarray, step: float):
    """Refuse NaN, inf and any |x| >= 2**51 step, past which x / step rounds
    to no exact integer.  One min and one max: either is NaN if any x is,
    and NaN fails the comparison."""
    lim = 2.0 ** 51 * step
    if not (-lim < x.min(initial=math.inf) and x.max(initial=-math.inf) < lim):
        raise ValueError("cannot quantize NaN or inf, or |x| >= 2**51 step")


def scaled_integer(step: float, dim: int = 1) -> Lattice:
    return Lattice("scaled_integer", step, dim)


def hexagonal(scale: float = 1.0) -> Lattice:
    """Hexagonal lattice with minimum distance = scale (dimension 2)."""
    return Lattice("hexagonal", scale, 2)
