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


#: Nodes folded per block in ``_fold``; bounds its temporaries.
_FOLD_BLOCK = 1024


def _cubic_weights(r):
    # Lagrange basis on stencil offsets (-1, 0, 1, 2) at r in [0, 1], float or array
    rm1 = r - 1.0
    rm2 = r - 2.0
    rp1 = r + 1.0
    return (-r * rm1 * rm2 / 6.0,
            rp1 * rm1 * rm2 / 2.0,
            -r * rp1 * rm2 / 2.0,
            r * rp1 * rm1 / 6.0)


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


def _fold(g: SpaceGrid, offsets: np.ndarray, weights: np.ndarray,
          out_grid: Optional[SpaceGrid] = None) -> Callable[..., np.ndarray]:
    """Cone-window sums of weight rows on shared offsets, folded for data on g.

    Returns apply(v, row=0) = sum_j weights[row, j] f(x_i - offsets[j]) at the
    points x_i of out_grid (default g, same spacing), f having values v on g:
    the node loop of ``sample_shifted(f, -offsets[j])`` (``sample_at`` off g's
    points) up to roundoff.  Each node's weight times its 4 cubic-Lagrange
    weights is summed onto whole grid offsets; apply is one direct correlation
    (not FFT, so points the stencil never reaches stay exactly zero) of the
    values extended by zero.
    """
    n = g.n
    out = g if out_grid is None else out_grid
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    rows = w.shape[0]
    # an out_grid from ``SpaceGrid.extended`` lies a whole number of cells off
    # g; keep it whole, or roundoff in x0 would give its points fractional weights
    shift = (out.x0 - g.x0) / g.dx
    if abs(shift - round(shift)) * g.dx <= 1e-15 * (abs(out.x0) + abs(g.x0)):
        shift = float(round(shift))
    r = shift - np.asarray(offsets, dtype=float) / g.dx
    s = np.floor(r)
    r -= s
    s = s.astype(np.int64)
    s_lo = int(s.min())
    s -= s_lo
    # folded[:, k, q] sums weights[:, j] * L_k(r_j) over the nodes with
    # s_j = s_lo + q, for the stencil offsets k - 1 = -1..2.  Blocks of nodes
    # keep the temporaries small.
    n_s = int(s.max()) + 1
    bins = np.arange(rows * 4)[:, None] * n_s
    folded = np.zeros((rows, 4, n_s))
    for b in range(0, s.size, _FOLD_BLOCK):
        blk = slice(b, b + _FOLD_BLOCK)
        lag = np.array(_cubic_weights(r[blk]))
        folded += np.bincount((bins + s[blk]).ravel(), weights=(w[:, None, blk] * lag).ravel(),
                              minlength=folded.size).reshape(folded.shape)

    stencils = np.zeros((rows, n_s + 3))
    for k in range(4):
        stencils[:, k:k + n_s] += folded[:, k]
    # taps outside [1 - out.n, n - 1] never meet a grid value; hi < lo: none does
    lo = max(s_lo - 1, 1 - out.n)
    hi = max(lo - 1, min(s_lo + n_s + 1, n - 1))
    stencils = stencils[:, lo - s_lo + 1:hi - s_lo + 2]

    def apply(v: np.ndarray, row: int = 0) -> np.ndarray:
        stencil = stencils[row]
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
