"""Fundamental solution of the damped wave equation in growth-compensated form.

For u_tt + k u_t = c^2 u_xx, substituting v = e^{kt/2} u yields
v_tt = c^2 v_xx + (k^2/4) v.  The impulse-velocity solution of the
transformed problem is supported on the closed light cone |x| <= c|t|:

    psi(x, t) = sgn(t)/(2c) * I0(2 alpha sqrt(c^2 t^2 - x^2)),
    alpha = k/(4c),

odd in t, even in x, equal to sgn(t)/(2c) on the characteristics.  Its
time derivative splits into two Dirac atoms of weight 1/2 riding the
cone boundary (at x = -ct and x = +ct) plus a bounded density inside.
One evaluator, ``_cone_values``, computes both for all real times: at
points, in the solver's point-data rows and at ``solver._cone_stencils``' nodes.
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


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    return t


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


def _cone_values(x: np.ndarray, lam: np.ndarray, t: float, medium: MediumParams,
                 w_psi: float, w_reg: float, w_dip: float, edge=None) -> np.ndarray:
    """w_psi psi + w_reg psi_t,reg + w_dip c psi_x at points x of the closed cone.

    lam = c^2 t^2 - x^2 is the caller's, clipped at 0 here.  psi takes its
    edge value sgn(t)/(2c) on the points of the mask edge; psi_t,reg keeps
    each point's own lam.  c psi_x is -(x/(ct)) psi_t,reg, its edge atoms
    the caller's.  A term of zero weight costs no Bessel evaluation.
    """
    arg = 2.0 * medium.alpha * np.sqrt(np.maximum(lam, 0.0))
    out = 0.0
    if w_psi != 0.0:
        edge_value = (math.copysign(1.0, t) if t != 0.0 else 0.0) / (2.0 * medium.c)
        out = edge_value * bessel.i0_array(arg)
        if edge is not None:
            out[edge] = edge_value
        out *= w_psi
    if w_reg != 0.0 or w_dip != 0.0:
        reg = (2.0 * medium.alpha ** 2 * medium.c * abs(t)) * bessel.i1_over_z_array(arg)
        ct = medium.c * t
        reg *= (w_reg * ct - w_dip * x) / ct if w_dip != 0.0 else w_reg
        out += reg
    return out


def _cone_combination(x, t: float, medium: MediumParams, w_psi: float, w_reg: float,
                      w_dip: float):
    """``_cone_values`` at positions x (scalar or array), zero off the closed cone."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = _check_time(t)
    if not np.all(np.isfinite(x)):
        raise DomainError("positions must be finite")
    lam, boundary, inside = _masks(x, t, medium.c)
    supported = boundary | inside
    out = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        out[supported] = _cone_values(x[supported], lam[supported], t, medium,
                                      w_psi, w_reg, w_dip, boundary[supported])
    if not np.all(np.isfinite(out)):
        raise DomainError(f"kernel values exceed float64 at k|t| = {medium.k * abs(t):g}")
    return float(out[0]) if scalar else out


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
