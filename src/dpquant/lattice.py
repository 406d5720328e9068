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

_ROWS = 8192  # rows per block of the nearest-point search


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
        idx = self.nearest_index(x)
        # by `point`'s matmul, as the decoder forms them: an elementwise
        # i*G00 + j*G01 would not repeat its fused multiply-add
        return idx, self.point(idx)

    def nearest_index(self, x, shift=None):
        """The index that `nearest_point` returns for x, or for x + shift,
        without the point.

        x + shift broadcasts as numpy adds, and gets the checks and ties of
        `nearest_point`.  Its rows are formed, checked and rounded in blocks
        of `_ROWS` and cast once into the int64 index, the one array formed
        at x's size: so ECDQ encode holds no x + dither, and each block's
        temporaries stay in L2 (one pass over 3e4 hexagon rows took about
        twice as long).
        """
        x = np.asarray(x, dtype=float)
        if shift is not None:
            shift = np.asarray(shift, dtype=float)
            shape = np.broadcast_shapes(x.shape, shift.shape)
            x = np.broadcast_to(x, shape)
            shift = np.atleast_2d(np.broadcast_to(shift, shape))
        if x.shape[-1:] != (self.dim,) or x.ndim > 2:
            raise ValueError(f"x must be a vector or rows of width dim = "
                             f"{self.dim}, got shape {x.shape}")
        rnd = self._round_cube if self.kind == "scaled_integer" else self._round_hex
        xb = np.atleast_2d(x)
        idx = np.empty(xb.shape, dtype=np.int64)
        for lo in range(0, len(xb), _ROWS):
            block = xb[lo:lo + _ROWS]
            if shift is not None:
                block = block + shift[lo:lo + _ROWS]
            check_range(block, self.step)
            idx[lo:lo + _ROWS] = rnd(block)
        return idx[0] if x.ndim == 1 else idx

    def _round_cube(self, xb):
        q = xb / self.step
        return np.rint(q, out=q)  # rint = half-to-even

    def _round_hex(self, xb):
        # The hexagonal lattice is the rectangular lattice s·(Z x √3Z), the
        # even rows j, and its coset shifted by the second basis vector, the
        # odd rows (Conway & Sloane 1982).  In scaled coordinates xs = x/s,
        # r = y/(s√3), each coset's nearest point is per-axis rounding: row
        # j = 2·rint(r) or 2·rint(r - ½) + 1, column i = rint(xs - j/2), at
        # scaled squared distance ex² + 3·ey².  The nearer coset wins.
        #
        # Rows near a tie go to the tournament, which decides them as it
        # always has.  With M = 1 + |xs| + |r| and u = 2**-53, every quantity
        # either path compares (a column offset from ½, the two cosets'
        # squared distances, in units of s and s²) is within 64·u·M =
        # 2**-47·M of its exact value: a few roundings, each of a sum or
        # product no larger than M.  A row farther than the margin 2**-40·M
        # from every tie, a factor of 128 over that bound, is decided alike
        # by both.  Past |x| = 2**39·s the margin exceeds ½ and every row
        # falls back.  The bound needs s² to be a normal float, as the
        # tournament's squared distances do, which would overflow or
        # underflow in units of x: outside 2**-500 < s < 2**500, x/s is
        # rounded on the unit hexagon, near-ties by its tournament.
        s = self.step
        if not 2.0 ** -500 < s < 2.0 ** 500:
            return hexagonal(1.0)._round_hex(xb / s)
        xs, r = xb[:, 0] / s, xb[:, 1] / (s * math.sqrt(3.0))
        re, ro = np.rint(r), np.rint(r - 0.5) + 0.5  # j/2 of each coset, exact
        ue, uo = xs - re, xs - ro
        ie, io = np.rint(ue), np.rint(uo)
        ue -= ie
        uo -= io
        ve, vo = r - re, r - ro
        de = ue * ue + 3.0 * (ve * ve)
        do = uo * uo + 3.0 * (vo * vo)
        odd = do < de
        idx = np.empty(xb.shape)
        # exact blends of integers: np.where is slow on a random mask
        idx[:, 0] = ie + odd * (io - ie)
        idx[:, 1] = 2.0 * (re + odd * (ro - re))
        margin = 2.0 ** -40 * (1.0 + np.abs(xs) + np.abs(r))
        near = ((np.maximum(np.abs(ue), np.abs(uo)) > 0.5 - margin)
                | (np.abs(de - do) < margin))
        if near.any():
            idx[near] = self._tournament(xb[near])
        return idx

    def _tournament(self, xb):
        # The near-tie resolver, float indices of xb's nearest points.  In
        # each coset the nearest row is rint's, and the nearest point is one
        # of the two columns beside x.  The float distances of these four
        # candidates decide, then the smallest index.
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
        return np.column_stack([np.where(odd, io, ie), np.where(odd, jo, je)])

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
