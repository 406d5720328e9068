"""Quantization lattices: nearest-point rule and dither sampling.

Two lattices are provided.  ScaledInteger is the cubic lattice (step per
axis, any dimension); its basic cell is the centered cube, symmetric per
coordinate.  Hexagonal is the 2-D hexagonal lattice, whose Voronoi cell is a
regular hexagon and exercises the non-product integration path of the
cell-smoothed cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Lattice", "scaled_integer", "hexagonal"]

_CORNERS = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Lattice:
    kind: str                 # "scaled_integer" | "hexagonal"
    generator: np.ndarray     # k x k, columns are basis vectors

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=float)
        if self.kind not in ("scaled_integer", "hexagonal"):
            raise ValueError(f"unknown lattice kind: {self.kind!r}")
        if (g.ndim != 2 or not 1 <= len(g) == g.shape[1]
                or not np.all(np.isfinite(g)) or abs(np.linalg.det(g)) < 1e-300):
            raise ValueError("generator must be a finite nonsingular k x k "
                             "matrix with dim k >= 1")
        if self.kind == "hexagonal" and g.shape != (2, 2):
            raise ValueError("a hexagonal lattice is 2-D")

    @property
    def dim(self) -> int:
        return len(self.generator)

    @property
    def cell_volume(self) -> float:
        return abs(float(np.linalg.det(self.generator)))

    @property
    def step(self) -> float:
        """Per-axis step for ScaledInteger; scale (minimum distance) for Hexagonal."""
        return float(self.generator[0, 0])

    # ---- quantization ------------------------------------------------------

    def nearest_point(self, x):
        """Nearest lattice point(s) to x; returns (index, point).

        x may be a single k-vector or an (n, k) batch.  Ties: round-half-to-
        even per coordinate for ScaledInteger, lexicographically smallest
        index for Hexagonal.
        """
        x = np.asarray(x, dtype=float)
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
        # The nearest point is a corner of the basis parallelogram that holds
        # x (Conway & Sloane 1982).  The corners are listed in lexicographic
        # order, so argmin's first minimum breaks ties towards the smallest
        # index.
        base = np.floor(xb @ np.linalg.inv(self.generator).T).astype(np.int64)
        cand_idx = base[:, None, :] + _CORNERS[None, :, :]         # (n, 4, 2)
        cand_pt = cand_idx @ self.generator.T                      # (n, 4, 2)
        best = np.argmin(np.sum((cand_pt - xb[:, None, :]) ** 2, axis=2), axis=1)
        rows = np.arange(len(xb))
        return cand_idx[rows, best], cand_pt[rows, best]

    def point(self, index):
        """Lattice point for an integer index vector (or batch)."""
        idx = np.asarray(index, dtype=np.int64)
        return idx @ np.asarray(self.generator, dtype=float).T

    # ---- dither ------------------------------------------------------------

    def sample_dither(self, rng: np.random.Generator, n: int | None = None):
        """Uniform draw(s) over the basic (Voronoi) cell.

        ScaledInteger: per-axis uniform on [-step/2, step/2].  General case:
        uniform on the fundamental parallelepiped folded into the Voronoi cell
        (subtract the nearest lattice point), which is exact and rejection-free.
        """
        m = 1 if n is None else n
        if self.kind == "scaled_integer":
            z = (rng.random((m, self.dim)) - 0.5) * self.step
        else:
            u = rng.random((m, self.dim)) @ np.asarray(self.generator).T
            _, pt = self.nearest_point(u)
            z = u - pt
        return z[0] if n is None else z


def scaled_integer(step: float, dim: int = 1) -> Lattice:
    if not 0 < step < math.inf:
        raise ValueError("step must be finite and > 0")
    return Lattice(kind="scaled_integer", generator=np.eye(dim) * step)


def hexagonal(scale: float = 1.0) -> Lattice:
    """Hexagonal lattice with minimum distance = scale (dimension 2)."""
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and > 0")
    g = scale * np.array([[1.0, 0.5],
                          [0.0, math.sqrt(3.0) / 2.0]])
    return Lattice(kind="hexagonal", generator=g)
