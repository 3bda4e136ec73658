"""Fundamental solution of the damped wave equation in growth-compensated form.

For u_tt + k u_t = c^2 u_xx, substituting v = e^{kt/2} u yields
v_tt = c^2 v_xx + (k^2/4) v.  The impulse-velocity solution of the
transformed problem is supported on the closed light cone |x| <= c|t|:

    psi(x, t) = sgn(t)/(2c) * I0(2 alpha sqrt(c^2 t^2 - x^2)),
    alpha = k/(4c),

odd in t, even in x, equal to sgn(t)/(2c) on the characteristics.  Its
time derivative splits into two Dirac atoms of weight 1/2 riding the
cone boundary (at x = -ct and x = +ct) plus a bounded density inside;
this module evaluates the kernel and that density for all real times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bessel
from .errors import DomainError

#: Relative tolerance classifying a point as lying on the cone boundary.
CONE_EPS = 1e-12


@dataclass(frozen=True)
class MediumParams:
    """Damping rate k (1/time), wave speed c (length/time), alpha = k/(4c)."""

    k: float
    c: float
    alpha: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.c)):
            raise DomainError("medium parameters must be finite")
        if self.c <= 0:
            raise DomainError(f"wave speed must be positive, got {self.c}")
        if self.k < 0:
            raise DomainError(f"damping rate must be nonnegative, got {self.k}")
        object.__setattr__(self, "alpha", self.k / (4.0 * self.c))


def _check_point(x: float, t: float) -> None:
    if not (math.isfinite(t)):
        raise DomainError(f"time must be finite, got {t!r}")
    if not np.all(np.isfinite(x)):
        raise DomainError("positions must be finite")


def _masks(x: np.ndarray, t: float, c: float):
    radius = c * abs(t)
    lam = radius * radius - x * x
    r = np.abs(x)
    big = np.maximum(r, radius)
    # classify on magnitudes normalized by the larger one, so the relative
    # tolerance survives even where the raw squares would underflow
    safe = np.where(big > 0.0, big, 1.0)
    rn = r / safe
    cn = radius / safe
    lam_n = cn * cn - rn * rn
    boundary = np.abs(lam_n) <= CONE_EPS * (cn * cn + rn * rn)
    inside = (lam_n > 0) & ~boundary
    return lam, boundary, inside


def fundamental_solution(x, t: float, medium: MediumParams):
    """Impulse-velocity kernel at positions x (scalar or array) and time t.

    Zero outside the closed cone, sgn(t)/(2c) on it (closed-interval
    convention), sgn(t)/(2c) * I0(2 alpha sqrt(lam)) strictly inside.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_point(x, t)
    sgn = math.copysign(1.0, t) if t != 0.0 else 0.0
    lam, boundary, inside = _masks(x, t, medium.c)
    out = np.zeros_like(x)
    edge = sgn / (2.0 * medium.c)
    out[boundary] = edge
    if inside.any():
        arg = 2.0 * medium.alpha * np.sqrt(lam[inside])
        out[inside] = edge * bessel.i0_array(arg)
    return float(out[0]) if scalar else out


def time_derivative_regular(x, t: float, medium: MediumParams):
    """Density part of the kernel's time derivative.

    Inside the cone this is alpha*c*|t| * I1(2 alpha sqrt(lam))/sqrt(lam),
    computed as 2 alpha^2 c |t| * (I1(w)/w)(2 alpha sqrt(lam)) so the
    cone boundary is reached continuously with value alpha^2 c |t|.
    Zero outside the cone; even in t.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_point(x, t)
    lam, boundary, inside = _masks(x, t, medium.c)
    out = np.zeros_like(x)
    supported = boundary | inside
    if supported.any():
        arg = 2.0 * medium.alpha * np.sqrt(np.maximum(lam[supported], 0.0))
        amp = 2.0 * medium.alpha ** 2 * medium.c * abs(t)
        out[supported] = amp * bessel.i1_over_z_array(arg)
    return float(out[0]) if scalar else out

