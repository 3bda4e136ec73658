"""Explicit convolution solver for the damped wave equation.

For initial data u(0) = f, u_t(0) = g the solution is

    u(x,t) = e^{-kt/2} { [f(x+ct)+f(x-ct)]/2
                         + alpha*c*t * int I1(2 alpha sqrt(lam))/sqrt(lam) f(y) dy
                         + (1/2c)    * int I0(2 alpha sqrt(lam)) [g + (k/2) f](y) dy }

with lam = c^2 t^2 - (x-y)^2 and both integrals over [x-ct, x+ct].  The
braced expression is the growth-compensated field e^{kt/2} u, valid for
either sign of t, which is what ``solve_rescaled`` returns.

Quadrature is composite Simpson on the cone window; the integrands are
continuous up to the window endpoints (the I1 term is evaluated through
I1(w)/w), so no singular treatment is required.  ``_cone_stencils`` sizes
and builds every K and K_t window, the Duhamel oracle's too, with the
d'Alembert term as K_t's atoms of weight 1/2 on the end nodes, and folds
them with cubic interpolation into one stencil pair per solve time for
every field (``fields._fold``; the fields are extended by zero).  It takes
many solve times at once and builds them in chunks, each time's stencils
bitwise those it gets alone.

Point data at the origin need no quadrature: ``point_source_solution``
gives each kind's atoms and density in closed form.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, UsageError
from .fields import (MixedMeasure, SampledField, SpaceGrid, _fold, _fold_chunks,
                     _outside_support, _require_shared_grid)
from .kernel import MediumParams, _check_time, _cone_combination, _cone_values, _masks
from .quadrature import panel_count

#: Point data at the origin as rows (a, b, d): f = a delta, g = b delta + d c delta'.
_POINT_DATA = {
    "delta_position": (1.0, 0.0, 0.0),
    "delta_velocity": (0.0, 1.0, 0.0),
    "financial": (1.0, 0.0, -1.0),
}
DELTA_KINDS = tuple(_POINT_DATA)

#: Solve times built, and held, at once by a caller of many: the Duhamel
#: oracle's slabs, ``norm_report``'s times.
_TIME_CHUNK = 32

#: ``_cone_values`` weights (w_psi, w_reg, w_dip) of each kernel a window applies.
_KERNEL_TERMS = {"kernel": (1.0, 0.0, 0.0), "kernel_dt": (0.0, 1.0, 0.0)}


def _cone_stencils(grid: SpaceGrid, times, medium: MediumParams,
                   kernels=("kernel_dt", "kernel"), out_grid: Optional[SpaceGrid] = None):
    """Simpson windows over |y| <= c|t| of the named kernels at each time, folded for data on grid.

    "kernel" is K = psi; "kernel_dt" is K_t, psi_t,reg plus atoms of weight
    1/2 on the end nodes -+ c|t| that carry the d'Alembert term (at t = 0
    every Simpson weight is 0 and they sum to a delta).  A window has
    ``panel_count(2 c|t|, grid.dx)`` panels.  Nodes y whose points x - y lie
    over 3 cells off the grid for every x of out_grid add 0 and are not
    built.  The times go in ``fields._fold_chunks``' chunks, whole times of at
    most ``fields._FOLD_BLOCK`` nodes or one longer time: a chunk builds its
    nodes at once, with each time's values broadcast over its own nodes (a
    lone time's as scalars: per-node arrays cost a one-time build 30% more),
    has ``_cone_values`` evaluate each Bessel family once for all the kernels,
    and ``_fold`` folds it.  So every time's stencil is bitwise the one it gets
    built alone, and temporaries stay bounded however many times there are.
    Returns one apply(v, row) over rows (time, kernel): time i's kernel q is
    row i * len(kernels) + q.
    """
    out = grid if out_grid is None else out_grid
    lo, hi = out.x0 - grid.x_end - 3.0 * grid.dx, out.x_end - grid.x0 + 3.0 * grid.dx
    windows = []  # (t, radius, panels, h, first node index, node count) per time
    for t in map(float, times):
        radius = medium.c * abs(t)
        n_sub = panel_count(2.0 * radius, grid.dx)
        h = 2.0 * radius / n_sub
        first, last = 0, n_sub
        if h > 0.0:  # node indices of the offsets in [lo, hi]; at t = 0 all nodes sit at 0
            first = math.floor(min(max(0.0, (lo + radius) / h), n_sub))
            last = math.ceil(min(max(0.0, (hi + radius) / h), n_sub))
        windows.append((t, radius, n_sub, h, first, last - first + 1))
    terms = [_KERNEL_TERMS[name] for name in kernels]
    chunks = _fold_chunks([w[-1] for w in windows])
    folds = []
    for i, j in chunks:
        if j - i == 1:  # one time: its values as scalars
            t, radius, n_sub, h, first, count = windows[i]
            node, count = np.arange(first, first + count), None
        else:  # each time's values broadcast over its own nodes
            t, radius, n_sub, h, first, count = map(np.array, zip(*windows[i:j]))
            node = np.arange(count.sum()) + np.repeat(first - np.add.accumulate(count) + count,
                                                      count)
            t, radius, n_sub, h = (np.repeat(a, count) for a in (t, radius, n_sub, h))
        top = node == n_sub
        ends = (node == 0) | top
        offsets = -radius + h * node
        np.copyto(offsets, radius, where=top)
        weights = np.array([2.0, 4.0])[node % 2]  # Simpson's 1, 4, 2, ..., 2, 4, 1
        weights[ends] = 1.0
        weights *= h / 3.0
        node_weights = np.empty((len(kernels), node.size))
        for q, value in enumerate(_cone_values(offsets, t, medium, terms)):
            np.multiply(weights, value, out=node_weights[q])
            if kernels[q] == "kernel_dt":
                node_weights[q, ends] += 0.5
        folds.append(_fold(grid, offsets, node_weights, out_grid, count))
    rows = [(fold, q) for fold, (i, j) in zip(folds, chunks)
            for q in range((j - i) * len(kernels))]

    def apply(v: np.ndarray, row: int = 0) -> np.ndarray:
        fold, q = rows[row]
        return fold(v, q)

    return apply


def _rescaled_values(pairs, times, medium: MediumParams) -> list:
    """K_t * f + K * (g + k f/2) for each time and data pair (f, g), as rows [time][pair],
    from one stencil build for the nonzero times."""
    live = [t for t in times if t != 0.0]
    apply = _cone_stencils(pairs[0][0].grid, live, medium) if live else None
    data = [(f.values, g.values + 0.5 * medium.k * f.values) for f, g in pairs]
    rows, i = [], 0
    for t in times:
        if t == 0.0:
            rows.append([f.copy() for f, _ in data])
            continue
        rows.append([apply(f, 2 * i) + apply(geff, 2 * i + 1) for f, geff in data])
        i += 1
    return rows


def solve_rescaled(f: SampledField, g: SampledField, t: float, medium: MediumParams):
    """Growth-compensated e^{kt/2} u(., t), t of either sign; ``solve`` estimates the error."""
    grid = _require_shared_grid(f, g)
    t = _check_time(t)
    (vals,), = _rescaled_values([(f, g)], [t], medium)
    return SampledField(grid, vals)


def _damped(grid: SpaceGrid, rescaled: list, t: float, medium: MediumParams) -> list:
    """e^{-kt/2} v on grid per rescaled v; DomainError first where t < 0 makes u leave float64."""
    exponent = -0.5 * medium.k * t
    if exponent > 0.0 and not (exponent <= math.log(np.finfo(float).max) and all(
            math.isfinite(math.exp(exponent) * float(np.max(np.abs(v)))) for v in rescaled)):
        raise DomainError(f"u(., {t}) overflows float64, e^(-kt/2) = e^{exponent:g}")
    damp = math.exp(exponent)
    return [SampledField(grid, damp * v) for v in rescaled]


def _half_grid_estimate(fn, f, g, t: float, medium: MediumParams, fine) -> float:
    """max|fine - fn on the 2dx grid of every other point| / 15, ``solve``'s estimate."""
    if f.grid.n < 3:
        raise UsageError(f"the error estimate's half grid needs n >= 3, got n = {f.grid.n}")
    half = SpaceGrid(f.grid.x0, 2.0 * f.grid.dx, (f.grid.n + 1) // 2)
    coarse = fn(SampledField(half, f.values[::2]), SampledField(half, g.values[::2]), t, medium)
    return float(np.max(np.abs(fine.values[::2] - coarse.values))) / 15.0


def solve(f: SampledField, g: SampledField, t: float, medium: MediumParams,
          *, error_estimate: bool = False):
    """Solution u(., t) of u_tt + k u_t = c^2 u_xx with data (f, g).

    DomainError where t < 0 makes e^{-kt/2}, or u, overflow float64.
    error_estimate=True also returns the Richardson estimate of u's error over dx,
    max|u_h - u_2h| / 15 (fourth order) against a solve from every other grid point,
    the last point dropped for even n; it grows for data nonzero near a grid end, or rough.
    """
    t = _check_time(t)
    u, = _damped(f.grid, [solve_rescaled(f, g, t, medium).values], t, medium)
    return (u, _half_grid_estimate(solve, f, g, t, medium, u)) if error_estimate else u


def _solve_shared(pairs, times, medium: MediumParams) -> list:
    """``solve`` of each data pair (f, g) at each time, as rows [time][pair], all
    from one stencil build."""
    times = [_check_time(t) for t in times]
    grid = pairs[0][0].grid
    return [_damped(grid, vals, t, medium)
            for t, vals in zip(times, _rescaled_values(pairs, times, medium))]


def _velocity_data(f: SampledField, g: SampledField, medium: MediumParams) -> SampledField:
    """u_tt(0) = c^2 f_xx - k g; f_xx by 5 points, fourth order, f extended by zero."""
    grid = _require_shared_grid(f, g)
    v = np.pad(f.values, 2)
    d2 = 16.0 * (v[1:-3] + v[3:-1]) - (v[:-4] + v[4:]) - 30.0 * v[2:-2]
    with np.errstate(over="ignore", invalid="ignore"):  # a huge c fails as non-finite data
        h = medium.c * medium.c * d2 / (12.0 * grid.dx ** 2) - medium.k * g.values
    return SampledField(grid, h)


def velocity(f: SampledField, g: SampledField, t: float, medium: MediumParams,
             *, error_estimate: bool = False):
    """u_t(., t), which solves the same equation with data (g, c^2 f_xx - k g).

    f_xx is the 5-point fourth-order difference of f extended by zero, so values
    within c|t| + 3dx of a grid end where the data are nonzero are not meaningful.
    error_estimate is ``solve``'s Richardson estimate over dx, with f_xx taken
    again at 2dx, so it covers f_xx's error too.
    """
    def u_t(f, g, t, medium):  # not the module's name, which a tracer may wrap
        return solve(g, _velocity_data(f, g, medium), t, medium)

    out = u_t(f, g, t, medium)
    return (out, _half_grid_estimate(u_t, f, g, t, medium, out)) if error_estimate else out


def point_source_solution(kind: str, t: float, medium: MediumParams,
                          grid: SpaceGrid) -> MixedMeasure:
    """Mixed-measure solution for point data at the origin, t > 0.

    Each kind is a row (a, b, d): f = a delta, g = b delta + d c delta'.
    The solution is e^{-kt/2} times atoms (a+d)/2 at -ct and (a-d)/2 at +ct
    (zero ones dropped) plus the density (a - d x/(ct)) psi_t,reg +
    (b + k a/2) psi.  Rows: delta_position (1, 0, 0), unit mass at rest;
    delta_velocity (0, 1, 0), a unit velocity impulse; financial (1, 0, -1),
    unit mass drifting right at speed c.  The mass is a + b (1 - e^{-kt})/k,
    so rows with a = 1, b = 0 are probabilistic.  Samples vanish off the
    open cone; the density stays callable for grid-free mass quadrature.
    """
    if kind not in _POINT_DATA:
        raise UsageError(f"unknown kind {kind!r}, expected one of {DELTA_KINDS}")
    t = _check_time(t)
    if t <= 0:
        raise DomainError(f"point-source solutions need t > 0, got {t}")
    ct = medium.c * t
    if not grid.covers(-ct, ct):
        raise UsageError(
            f"grid [{grid.x0}, {grid.x_end}] does not cover the cone [-{ct}, {ct}]")
    a, b, d = _POINT_DATA[kind]
    damp = math.exp(-0.5 * medium.k * t)
    atoms = tuple((pos, damp * w) for pos, w in ((-ct, (a + d) / 2), (ct, (a - d) / 2))
                  if w != 0.0)
    w_psi = b + 0.5 * medium.k * a

    def density_fn(x):
        return damp * _cone_combination(x, t, medium, w_psi, a, d)

    x = grid.points()
    _, inside = _masks(x, t, medium.c)  # the cone-edge points get no sample
    samples = np.zeros_like(x)
    samples[inside] = damp * _cone_values(x[inside], t, medium, [(w_psi, a, d)])[0]
    return MixedMeasure(
        atoms=atoms,
        density=SampledField(grid, samples),
        support=(-ct, ct),
        probabilistic=(a == 1.0 and b == 0.0),
        density_fn=density_fn,
    )


def convolve_measure(m: MixedMeasure, t: float, medium: MediumParams, which: str,
                     out_grid: Optional[SpaceGrid] = None) -> MixedMeasure:
    """Convolve a mixed measure with the kernel or its time derivative.

    which = "kernel":     atoms translate the kernel into density pieces;
                          the density convolves by quadrature.
    which = "kernel_dt":  atoms spawn translated atom pairs (weight w/2 at
                          a -+ ct) plus translated copies of the regular
                          density; the density convolves with the regular
                          part and the two edge atoms in one quadrature,
                          the atoms riding its end nodes at -+ c|t|.

    These are the raw (growth-compensated) kernels: no e^{-kt/2} factor is
    applied and the result is not a probability measure in general.

    out_grid defaults to the density grid extended by the cone radius.
    Given together with a density, it must have the density grid's
    spacing, because the window quadrature runs as one stencil on whole
    cells; its points may sit any fraction of a cell off the density's.
    """
    if which not in ("kernel", "kernel_dt"):
        raise UsageError(f"which must be 'kernel' or 'kernel_dt', got {which!r}")
    t = _check_time(t)
    lo, hi = m.support
    radius = medium.c * abs(t)
    if out_grid is None:
        if m.density is None:
            raise UsageError("out_grid is required for a measure without density samples")
        # panel_count's 2^53 rule: a window too wide raises DomainError before the out grid exists
        panel_count(2.0 * radius, m.density.grid.dx)
        out_grid = m.density.grid.extended(int(math.ceil(radius / m.density.grid.dx)) + 2)
    elif m.density is not None and out_grid.dx != m.density.grid.dx:
        raise UsageError(f"out_grid spacing {out_grid.dx} differs from the density "
                         f"grid spacing {m.density.grid.dx}")

    x = out_grid.points()
    dens = np.zeros(out_grid.n)
    atoms_out: list[tuple[float, float]] = []

    kernel_dt = which == "kernel_dt"
    for pos, w in m.atoms:
        if kernel_dt:
            atoms_out += [(pos - medium.c * t, 0.5 * w), (pos + medium.c * t, 0.5 * w)]
        w_psi, w_reg = (0.0, w) if kernel_dt else (w, 0.0)
        dens += _cone_combination(x - pos, t, medium, w_psi, w_reg, 0.0)

    if m.density is not None:
        dens += _cone_stencils(m.density.grid, [t], medium, (which,), out_grid)(m.density.values)

    new_lo = min([lo] + [p for p, _ in m.atoms], default=lo) - radius
    new_hi = max([hi] + [p for p, _ in m.atoms], default=hi) + radius
    # clip stray interpolation noise outside the enlarged support
    dens[_outside_support(x, new_lo, new_hi)] = 0.0
    return MixedMeasure(
        atoms=tuple(atoms_out),
        density=SampledField(out_grid, dens),
        support=(new_lo, new_hi),
        probabilistic=False,
    )
