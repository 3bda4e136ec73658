"""Fundamental solution of the damped wave equation in growth-compensated form.

For u_tt + k u_t = c^2 u_xx, substituting v = e^{kt/2} u yields
v_tt = c^2 v_xx + (k^2/4) v.  The impulse-velocity solution of the
transformed problem is supported on the closed light cone |x| <= c|t|:

    psi(x, t) = sgn(t)/(2c) * I0(2 alpha sqrt(c^2 t^2 - x^2)),
    alpha = k/(4c),

odd in t, even in x, equal to sgn(t)/(2c) on the characteristics.  Its
time derivative splits into two Dirac atoms of weight 1/2 riding the
cone boundary (at x = -ct and x = +ct) plus a bounded density inside;
this module alone evaluates the kernel and that density, for all real times.
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


def _masks(x: np.ndarray, t: float, c: float):
    radius = c * abs(t)
    lam = radius * radius - x * x
    r = np.abs(x)
    # classify on magnitudes normalized by the larger one, so the relative
    # tolerance survives even where the raw squares would underflow
    big = np.maximum(r, radius)
    big[big == 0.0] = 1.0
    rn2 = r / big
    rn2 *= rn2
    cn2 = radius / big
    cn2 *= cn2
    lam_n = cn2 - rn2
    tol = CONE_EPS * (cn2 + rn2)
    # tol >= 0, so lam_n > tol is lam_n > 0 off the boundary
    return lam, np.abs(lam_n) <= tol, lam_n > tol


def _cone_combination(x, t: float, medium: MediumParams, w_psi: float, w_reg: float,
                      w_dip: float):
    """w_psi psi + w_reg psi_t,reg + w_dip c psi_x at positions x (scalar or array).

    c psi_x is taken inside the closed cone, where it is -(x/(ct)) psi_t,reg;
    its atoms on the cone edges are the caller's.  A term of zero weight
    costs no Bessel evaluation.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    if not np.all(np.isfinite(x)):
        raise DomainError("positions must be finite")
    out = _combine(x, t, medium, *_masks(x, t, medium.c), w_psi, w_reg, w_dip)
    return float(out[0]) if scalar else out


def _combine(x: np.ndarray, t: float, medium: MediumParams, lam, boundary, inside,
             w_psi: float, w_reg: float, w_dip: float) -> np.ndarray:
    """_cone_combination's values at points x that _masks has classified."""
    out = np.zeros_like(x)
    if w_psi != 0.0:
        edge = (math.copysign(1.0, t) if t != 0.0 else 0.0) / (2.0 * medium.c)
        out[boundary] = w_psi * edge
        out[inside] = w_psi * (edge * bessel.i0_array(2.0 * medium.alpha
                                                      * np.sqrt(lam[inside])))
    if w_reg != 0.0 or w_dip != 0.0:
        supported = boundary | inside
        arg = 2.0 * medium.alpha * np.sqrt(np.maximum(lam[supported], 0.0))
        reg = (2.0 * medium.alpha ** 2 * medium.c * abs(t)) * bessel.i1_over_z_array(arg)
        ct = medium.c * t
        reg *= (w_reg * ct - w_dip * x[supported]) / ct if w_dip != 0.0 else w_reg
        out[supported] += reg
    return out


def fundamental_solution(x, t: float, medium: MediumParams):
    """Impulse-velocity kernel at positions x (scalar or array) and time t.

    Zero outside the closed cone, sgn(t)/(2c) on it (closed-interval
    convention), sgn(t)/(2c) * I0(2 alpha sqrt(lam)) strictly inside.
    """
    return _cone_combination(x, t, medium, 1.0, 0.0, 0.0)


def time_derivative_regular(x, t: float, medium: MediumParams):
    """Density part of the kernel's time derivative.

    Inside the cone this is alpha*c*|t| * I1(2 alpha sqrt(lam))/sqrt(lam),
    computed as 2 alpha^2 c |t| * (I1(w)/w)(2 alpha sqrt(lam)) so the
    cone boundary is reached continuously with value alpha^2 c |t|.
    Zero outside the cone; even in t.
    """
    return _cone_combination(x, t, medium, 0.0, 1.0, 0.0)


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
