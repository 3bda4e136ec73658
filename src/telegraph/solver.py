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
I1(w)/w), so no singular treatment is required.  Field values between
grid points come from cubic interpolation.  Each window integral is one
folded stencil (``fields._window_sum``): Simpson weight x kernel factor x
the 4 cubic-Lagrange weights of every node are summed onto integer grid
offsets once and applied by one direct correlation, not an FFT, so
points the cone never reaches stay exactly zero.  Edge rule: a node whose
sampled point lies off the grid contributes 0, even where its 4-point
stencil still touches the grid, so a cone that reaches past the grid
sees zero data there.  The accumulation order is fixed, so results do
not depend on how work is scheduled.

Point-mass initial data never touch quadrature for their singular part:
``point_source_solution`` returns the exact atoms plus the closed-form
density as a MixedMeasure.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import bessel
from .errors import DomainError, UsageError
from .fields import MixedMeasure, SampledField, SpaceGrid, _window_sum, sample_shifted
from .kernel import CONE_EPS, MediumParams, fundamental_solution, time_derivative_regular
from .quadrature import panel_count, simpson_nodes_weights

DELTA_KINDS = ("delta_position", "delta_velocity", "financial")

#: Time step of ``velocity``'s coarse central-difference probes; fine ones use half.
DT_PROBE = 1e-3


def _require_shared_grid(f: SampledField, g: SampledField) -> SpaceGrid:
    if f.grid != g.grid:
        raise UsageError("initial displacement and velocity must share one grid")
    return f.grid


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    return t


def _cone_kernel_weights(t: float, medium: MediumParams, offsets: np.ndarray):
    """Kernel factors at quadrature offsets y - x over the cone window.

    Returns (ft_weight, f0_weight): the window-position-dependent factors
    multiplying f (time-derivative kernel density) and g + (k/2) f
    (kernel itself, odd in t).
    """
    lam = np.maximum((medium.c * t) ** 2 - offsets ** 2, 0.0)
    arg = 2.0 * medium.alpha * np.sqrt(lam)
    sgn = math.copysign(1.0, t)
    ft = (2.0 * medium.alpha ** 2 * medium.c * abs(t)) * bessel.i1_over_z_array(arg)
    f0 = (sgn / (2.0 * medium.c)) * bessel.i0_array(arg)
    return ft, f0


def _rescaled_values(f: SampledField, g: SampledField, t: float,
                     medium: MediumParams, n_sub: int) -> np.ndarray:
    grid = f.grid
    if t == 0.0:
        return f.values.copy()
    radius = medium.c * abs(t)
    geff = SampledField(grid, g.values + 0.5 * medium.k * f.values)
    offsets, weights = simpson_nodes_weights(-radius, radius, n_sub)
    ft_w, f0_w = _cone_kernel_weights(t, medium, offsets)

    out = 0.5 * (sample_shifted(f, radius) + sample_shifted(f, -radius))
    out += _window_sum(f, offsets, weights * ft_w)
    out += _window_sum(geff, offsets, weights * f0_w)
    return out


def solve_rescaled(f: SampledField, g: SampledField, t: float, medium: MediumParams,
                   *, error_estimate: bool = False):
    """Growth-compensated solution e^{kt/2} u(., t); valid for t of either sign.

    With error_estimate=True also returns a max-abs Richardson estimate of
    the quadrature error (the half-resolution result differs by ~16x the
    fine result's error for this fourth-order rule).
    """
    grid = _require_shared_grid(f, g)
    t = _check_time(t)
    n_sub = panel_count(2.0 * medium.c * abs(t), grid.dx)
    vals = _rescaled_values(f, g, t, medium, n_sub)
    result = SampledField(grid, vals)
    if not error_estimate:
        return result
    if t == 0.0:
        return result, 0.0
    coarse = _rescaled_values(f, g, t, medium, max(2, n_sub // 2 + (n_sub // 2) % 2))
    return result, float(np.max(np.abs(vals - coarse)) / 15.0)


def solve(f: SampledField, g: SampledField, t: float, medium: MediumParams,
          *, error_estimate: bool = False):
    """Solution u(., t) of u_tt + k u_t = c^2 u_xx with data (f, g)."""
    t = _check_time(t)
    damp = math.exp(-0.5 * medium.k * t)
    if error_estimate:
        v, err = solve_rescaled(f, g, t, medium, error_estimate=True)
        return SampledField(v.grid, damp * v.values), damp * err
    v = solve_rescaled(f, g, t, medium)
    return SampledField(v.grid, damp * v.values)


def velocity(f: SampledField, g: SampledField, t: float, medium: MediumParams,
             *, error_estimate: bool = False):
    """u_t(., t) by Richardson-extrapolated central differencing of ``solve``.

    The probe steps DT_PROBE and DT_PROBE/2 must stay small against 1/k and
    dx/c; the difference of the two probe resolutions gives the error estimate.
    """
    grid = _require_shared_grid(f, g)
    t = _check_time(t)

    def central(h: float) -> np.ndarray:
        up = solve(f, g, t + h, medium).values
        dn = solve(f, g, t - h, medium).values
        return (up - dn) / (2.0 * h)

    coarse = central(DT_PROBE)
    fine = central(0.5 * DT_PROBE)
    vals = (4.0 * fine - coarse) / 3.0
    result = SampledField(grid, vals)
    if error_estimate:
        return result, float(np.max(np.abs(fine - coarse)) / 3.0)
    return result


def point_source_solution(kind: str, t: float, medium: MediumParams,
                          grid: SpaceGrid) -> MixedMeasure:
    """Mixed-measure solution for point-mass initial data.

    kind:
      delta_position  -- unit mass at the origin, zero velocity: atoms of
                         weight e^{-kt/2}/2 on both cone edges plus an even
                         interior density.
      delta_velocity  -- zero displacement, unit velocity impulse: pure
                         density e^{-kt/2} * kernel (no atoms).
      financial       -- unit mass with a deterministic initial drift of
                         speed c to the right: single atom of weight
                         e^{-kt/2} at +ct plus a skewed interior density.

    delta_position and financial are probability measures (total mass 1);
    delta_velocity integrates to (1 - e^{-kt})/k and is not flagged
    probabilistic.  The returned measure keeps the closed-form density
    callable so mass quadrature does not depend on the sample grid.
    """
    if kind not in DELTA_KINDS:
        raise UsageError(f"unknown kind {kind!r}, expected one of {DELTA_KINDS}")
    t = _check_time(t)
    if t <= 0:
        raise DomainError(f"point-source solutions need t > 0, got {t}")
    ct = medium.c * t
    if not grid.covers(-ct, ct):
        raise UsageError(
            f"grid [{grid.x0}, {grid.x_end}] does not cover the cone [-{ct}, {ct}]")
    damp = math.exp(-0.5 * medium.k * t)
    alpha = medium.alpha
    k = medium.k

    if kind == "delta_position":
        atoms = ((-ct, 0.5 * damp), (ct, 0.5 * damp))

        def density_fn(x):
            x = np.asarray(x, dtype=float)
            return damp * (time_derivative_regular(x, t, medium)
                           + 0.5 * k * fundamental_solution(x, t, medium))
    elif kind == "delta_velocity":
        atoms = ()

        def density_fn(x):
            x = np.asarray(x, dtype=float)
            return damp * fundamental_solution(x, t, medium)
    else:  # financial
        atoms = ((ct, damp),)

        def density_fn(x):
            x = np.asarray(x, dtype=float)
            lam = np.maximum(ct * ct - x * x, 0.0)
            arg = 2.0 * alpha * np.sqrt(lam)
            on_cone = np.abs(x) <= ct
            vals = damp * (2.0 * alpha ** 2 * (x + ct) * bessel.i1_over_z_array(arg)
                           + alpha * bessel.i0_array(arg))
            return np.where(on_cone, vals, 0.0)

    x = grid.points()
    strictly_inside = (ct * ct - x * x) > CONE_EPS * (ct * ct + x * x)
    samples = np.zeros(grid.n)
    if strictly_inside.any():
        samples[strictly_inside] = density_fn(x[strictly_inside])
    return MixedMeasure(
        atoms=atoms,
        density=SampledField(grid, samples),
        support=(-ct, ct),
        probabilistic=(kind != "delta_velocity"),
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("measure support must be bounded")
    radius = medium.c * abs(t)
    if out_grid is None:
        if m.density is None:
            raise UsageError("out_grid is required for a measure without density samples")
        out_grid = m.density.grid.extended(int(math.ceil(radius / m.density.grid.dx)) + 2)
    elif m.density is not None and out_grid.dx != m.density.grid.dx:
        raise UsageError(f"out_grid spacing {out_grid.dx} differs from the density "
                         f"grid spacing {m.density.grid.dx}")

    x = out_grid.points()
    dens = np.zeros(out_grid.n)
    atoms_out: list[tuple[float, float]] = []

    for pos, w in m.atoms:
        if which == "kernel":
            dens += w * fundamental_solution(x - pos, t, medium)
        else:
            ct = medium.c * t
            atoms_out.append((pos - ct, 0.5 * w))
            atoms_out.append((pos + ct, 0.5 * w))
            dens += w * time_derivative_regular(x - pos, t, medium)

    if m.density is not None:
        d = m.density
        offsets, weights = simpson_nodes_weights(-radius, radius,
                                                 panel_count(2 * radius, d.grid.dx))
        ft_w, f0_w = _cone_kernel_weights(t, medium, offsets)
        stencil = weights * (ft_w if which == "kernel_dt" else f0_w)
        if which == "kernel_dt":
            # the derivative kernel's atoms of weight 1/2 sit on the end nodes
            # -+ radius; at t = 0 every Simpson weight is 0 and they sum to a delta
            stencil[0] += 0.5
            stencil[-1] += 0.5
        dens += _window_sum(d, offsets, stencil, out_grid)

    new_lo = min([lo] + [p for p, _ in m.atoms], default=lo) - radius
    new_hi = max([hi] + [p for p, _ in m.atoms], default=hi) + radius
    # clip stray interpolation noise outside the enlarged support
    outside = (x < new_lo) | (x > new_hi)
    dens[outside] = 0.0
    return MixedMeasure(
        atoms=tuple(atoms_out),
        density=SampledField(out_grid, dens),
        support=(new_lo, new_hi),
        probabilistic=False,
    )
