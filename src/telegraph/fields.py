"""Uniform grids, sampled fields and mixed (atoms + density) measures.

Sampling between grid points uses 4-point cubic Lagrange interpolation,
with fields extended by zero beyond their grid: the natural convention
for compactly supported data, and it keeps every quadrature window legal
even when a light cone pokes past the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UsageError
from .quadrature import MASS_NODES, gauss_legendre


def _is_count(n, least: int) -> bool:
    """Whether n is an integer in [least, 2^53]: past 2^53 float64 no longer
    holds every index (the bound of ``quadrature.panel_count``)."""
    return isinstance(n, (int, np.integer)) and least <= n <= 2 ** 53


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform 1-D grid: points x_i = x0 + i*dx for i = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not _is_count(self.n, 2):
            raise UsageError(f"grid needs an integer 2 to 2^53 points, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # x_end in Python floats: no overflow warning
        if not (math.isfinite(self.x0) and math.isfinite(self.dx) and math.isfinite(self.x_end)):
            raise UsageError("grid endpoints must be finite")
        if self.dx <= 0:
            raise UsageError(f"grid spacing must be positive, got {self.dx}")

    @property
    def x_end(self) -> float:
        return self.x0 + (self.n - 1) * self.dx

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def covers(self, lo: float, hi: float) -> bool:
        return self.x0 <= lo and hi <= self.x_end

    def extended(self, pad_cells: int) -> "SpaceGrid":
        """Same spacing, pad_cells extra points on each side."""
        return SpaceGrid(self.x0 - pad_cells * self.dx, self.dx, self.n + 2 * pad_cells)


@dataclass(frozen=True)
class SampledField:
    """Real values sampled on a SpaceGrid."""

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n:
            raise UsageError(
                f"values length {vals.shape} does not match grid size {self.grid.n}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")

    @property
    def x(self) -> np.ndarray:
        return self.grid.points()


def _require_shared_grid(a: SampledField, b: SampledField) -> SpaceGrid:
    if a.grid != b.grid:
        raise UsageError("fields must share one grid")
    return a.grid


def from_function(grid: SpaceGrid, fn: Callable[[np.ndarray], np.ndarray]) -> SampledField:
    return SampledField(grid, np.asarray(fn(grid.points()), dtype=float))


def zeros(grid: SpaceGrid) -> SampledField:
    return SampledField(grid, np.zeros(grid.n))


#: Nodes folded per bincount in ``_fold`` and, in whole times unless one time
#: has more, built per chunk by ``solver._cone_stencils``; bounds their temporaries.
_FOLD_BLOCK = 1024


def _cubic_weights(r):
    # Lagrange basis on stencil offsets (-1, 0, 1, 2) at r in [0, 1], float or array:
    # -r (r - 1)(r - 2)/6, (r + 1)(r - 1)(r - 2)/2, -r (r + 1)(r - 2)/2, r (r + 1)(r - 1)/6,
    # each product taken left to right, the signs moved onto the exact divisors
    rm1 = r - 1.0
    rm2 = r - 2.0
    rp1 = r + 1.0
    r_rp1 = r * rp1
    return (r * rm1 * rm2 / -6.0,
            rp1 * rm1 * rm2 / 2.0,
            r_rp1 * rm2 / -2.0,
            r_rp1 * rm1 / 6.0)


def sample_shifted(f: SampledField, offset: float) -> np.ndarray:
    """Values of f at every grid point shifted by a common offset.

    Returns f(x_i + offset) for i = 0..n-1: the cubic interpolant of the
    values extended by zero, so points 2 or more cells off the grid read 0.
    An offset that is an exact multiple of dx reduces to an index shift with
    no arithmetic on the values.
    """
    if not math.isfinite(offset):
        raise DomainError(f"shift must be finite, got {offset!r}")
    g = f.grid
    n = g.n
    # shifts past the grid by over n + 2 cells read 0 either way; clipped, no overflow
    reach = (n + 3) * g.dx
    pos = min(max(offset, -reach), reach) / g.dx
    s = math.floor(pos)
    r = pos - s
    out = np.zeros(n)
    if s > n + 1 or s < -(n + 2):
        return out
    v = f.values
    for m, w in zip((-1, 0, 1, 2), _cubic_weights(r)):
        if w == 0.0:
            continue
        shift = s + m
        lo = max(0, -shift)
        hi = min(n, n - shift)
        if lo < hi:
            out[lo:hi] += w * v[lo + shift:hi + shift]
    return out


def sample_at(f: SampledField, xq) -> np.ndarray:
    """Values of f at arbitrary query points: the cubic interpolant of the
    values extended by zero, 0 from 2 cells off the grid on."""
    xq = np.asarray(xq, dtype=float)
    if not np.all(np.isfinite(xq)):
        raise DomainError("query points must be finite")
    g = f.grid
    # points 2 or more cells off the grid read 0 either way; clipped, no overflow
    pos = (np.clip(xq, g.x0 - 2 * g.dx, g.x_end + 2 * g.dx) - g.x0) / g.dx
    # idx in [-3, n + 1]: the stencil idx - 1..idx + 2 reads padded[idx + 3..idx + 6]
    idx = np.clip(np.floor(pos), -3, g.n + 1).astype(np.int64)
    r = pos - idx
    padded = np.zeros(g.n + 8)
    padded[4:4 + g.n] = f.values
    l0, l1, l2, l3 = _cubic_weights(r)
    return (l0 * padded[idx + 3] + l1 * padded[idx + 4]
            + l2 * padded[idx + 5] + l3 * padded[idx + 6])


def _fold_chunks(sizes) -> list:
    """Index ranges [i, j) of consecutive times, node counts sizes, for ``_fold``
    calls: whole times of at most _FOLD_BLOCK nodes in all, or one longer time."""
    chunks, total = [], _FOLD_BLOCK + 1
    for i, size in enumerate(sizes):
        if total + size > _FOLD_BLOCK:
            chunks.append([i, i + 1])
            total = size
        else:
            chunks[-1][1] = i + 1
            total += size
    return chunks


def _fold(g: SpaceGrid, offsets: np.ndarray, weights: np.ndarray,
          out_grid: Optional[SpaceGrid] = None, sizes=None) -> Callable[..., np.ndarray]:
    """Cone-window sums of weight rows, folded for data on g, for node sets of several times.

    offsets holds the node sets of consecutive times, sizes[i] nodes for time i
    (default: one time), and weights one row per kernel over all of them.  Returns
    apply(v, row=0) = sum_j weights[q, j] f(x_i - offsets[j]) over the nodes j of time
    row // q_rows, q = row % q_rows, at the points x_i of out_grid (default g, same
    spacing), f having values v on g: the node loop of ``sample_shifted(f, -offsets[j])``
    (``sample_at`` off g's points) up to roundoff.  Each node's weight times its 4
    cubic-Lagrange weights is summed onto whole grid offsets of its own time by one
    bincount per _FOLD_BLOCK nodes, so a time's stencil is bitwise the one it gets
    folded alone when the times come in chunks of whole times and at most _FOLD_BLOCK
    nodes, or alone.  apply is one direct correlation (not FFT, so points the stencil
    never reaches stay exactly zero) of the values extended by zero.
    """
    n = g.n
    out = g if out_grid is None else out_grid
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    rows = w.shape[0]
    offsets = np.asarray(offsets, dtype=float)
    sizes = np.array([offsets.size] if sizes is None else sizes)
    # an out_grid from ``SpaceGrid.extended`` lies a whole number of cells off
    # g; keep it whole, or roundoff in x0 would give its points fractional weights
    shift = (out.x0 - g.x0) / g.dx
    if abs(shift - round(shift)) * g.dx <= 1e-15 * (abs(out.x0) + abs(g.x0)):
        shift = float(round(shift))
    r = shift - offsets / g.dx
    s = np.floor(r)
    r -= s
    s = s.astype(np.int64)
    # time i's stencil spans whole offsets s_lo[i] - 1 .. s_lo[i] + width[i] - 2 and
    # lies at columns base[i] .. base[i] + width[i] - 1 of the rows of ``stencils``;
    # lane 4 q + k adds weights[q, j] * L_k(r_j) at column col_j + k, k - 1 = -1..2
    starts = np.add.accumulate(sizes) - sizes
    s_lo = np.minimum.reduceat(s, starts)
    width = np.maximum.reduceat(s, starts) - s_lo + 4
    base = np.add.accumulate(width) - width
    col = s + np.repeat(base - s_lo, sizes)
    size = int(base[-1] + width[-1])
    lanes = np.arange(rows * 4)[:, None]
    lanes = lanes * size + lanes % 4
    folded = None
    for b in range(0, s.size, _FOLD_BLOCK):
        blk = slice(b, b + _FOLD_BLOCK)
        lag = np.array(_cubic_weights(r[blk]))
        block = np.bincount((lanes + col[blk]).ravel(), weights=(w[:, None, blk] * lag).ravel(),
                            minlength=rows * 4 * size)
        folded = block if folded is None else folded + block
    # the four lags of a column in order k = 0..3
    stencils = np.add.reduce(folded.reshape(rows, 4, size), axis=1)

    taps = []  # (first tap's grid offset, stencil) per row
    for s0, size, first in zip(s_lo.tolist(), width.tolist(), base.tolist()):
        # taps outside [1 - out.n, n - 1] never meet a grid value; hi < lo: none does
        lo = max(s0 - 1, 1 - out.n)
        hi = max(lo - 1, min(s0 + size - 2, n - 1))
        first += lo - s0 + 1
        taps += [(lo, stencils[q, first:first + hi - lo + 1]) for q in range(rows)]

    def apply(v: np.ndarray, row: int = 0) -> np.ndarray:
        lo, stencil = taps[row]
        if stencil.size == 0:
            return np.zeros(out.n)
        padded = np.zeros(out.n + stencil.size - 1)  # padded[p] = v[lo + p], 0 off grid
        first, stop = max(0, lo), min(n, lo + padded.size)
        padded[first - lo:stop - lo] = v[first:stop]
        return np.correlate(padded, stencil, "valid")

    return apply


def l2_norm(f: SampledField) -> float:
    """Discrete L2 norm by the trapezoid rule."""
    return float(math.sqrt(np.trapezoid(f.values ** 2, dx=f.grid.dx)))


def derivative_x(f: SampledField) -> SampledField:
    """Second-order spatial derivative: central inside, one-sided at the ends."""
    v = f.values
    if v.size < 3:
        raise UsageError(f"derivative_x needs at least 3 grid points (second-order "
                         f"end formula), got {v.size}")
    dx = f.grid.dx
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return SampledField(f.grid, d)


def _outside_support(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Points of x past [lo, hi] by more than the roundoff of x0 + i*dx."""
    return (x < lo - 1e-12 * max(1.0, abs(lo))) | (x > hi + 1e-12 * max(1.0, abs(hi)))


@dataclass(frozen=True)
class MassBreakdown:
    atoms: float
    density: float
    total: float


@dataclass(frozen=True)
class MixedMeasure:
    """Finitely many atoms plus a compactly supported density.

    ``density_fn``, when present, is the exact (vectorized) density the
    samples were taken from; mass quadrature prefers it over the samples.
    """

    atoms: tuple[tuple[float, float], ...]
    density: Optional[SampledField]
    support: tuple[float, float]
    probabilistic: bool = False
    density_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise UsageError(f"support must be a finite interval, got {self.support}")
        atoms = tuple((float(p), float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for p, w in atoms:
            if not (math.isfinite(p) and math.isfinite(w)):
                raise DomainError("atom positions and weights must be finite")
        if self.density is not None:
            outside = _outside_support(self.density.x, lo, hi)
            if np.any(self.density.values[outside] != 0.0):
                raise UsageError("density must vanish outside the support interval")
        if self.probabilistic:
            if any(w < 0 for _, w in atoms):
                raise UsageError("probabilistic measure needs nonnegative atom weights")
            if self.density is not None and np.any(self.density.values < -1e-12):
                raise UsageError("probabilistic measure needs a nonnegative density")

    def atom_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def density_mass(self) -> float:
        """MASS_NODES-node Gauss-Legendre of density_fn if given, else trapezoid of the samples.

        The point laws' density_fn is analytic on the closed support, since
        I0(z) and I1(z)/z are even in z and so functions of c^2 t^2 - x^2;
        the rule converges geometrically on it (``quadrature.MASS_NODES``).
        """
        lo, hi = self.support
        if hi <= lo:
            return 0.0
        if self.density_fn is not None:
            return gauss_legendre(self.density_fn, lo, hi, MASS_NODES)
        if self.density is None:
            return 0.0
        # fall back to the stored samples over their grid
        return float(np.trapezoid(self.density.values, dx=self.density.grid.dx))

    def mass_breakdown(self) -> MassBreakdown:
        a = self.atom_mass()
        d = self.density_mass()
        return MassBreakdown(a, d, a + d)
