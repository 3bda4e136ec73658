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
points, point-data rows included, and at ``solver._cone_stencils``' nodes.
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


def _length_unit(c: float) -> float:
    """The power of two u with c/u in [1, 2), the length unit of lam.

    Dividing by u is exact, so lam = (c t)^2 - x^2 in units of u^2 rounds as
    in plain units, bit for bit where those neither under- nor overflow, while
    (c t / u)^2 is within a factor 4 of t^2 whatever c is.
    """
    return math.ldexp(1.0, math.frexp(c)[1] - 1)


def _masks(x: np.ndarray, t: float, c: float):
    """The cone edge's mask and the open cone's at points x, by the gap c|t| - |x|
    in units of ``_length_unit(c)``: on the edge within CONE_EPS of the smaller of
    c|t| and |x|, inside past that.  An infinite |x|/u lies in neither, and an
    infinite c|t|/u holds every finite x."""
    u = _length_unit(c)
    radius = c / u * abs(t)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(x) / u
        gap = radius - r
    tol = CONE_EPS * np.minimum(radius, r)
    return np.abs(gap) <= tol, gap > tol


def _cone_values(x: np.ndarray, t: float, medium: MediumParams,
                 w_psi: float, w_reg: float, w_dip: float, edge=None) -> np.ndarray:
    """w_psi psi + w_reg psi_t,reg + w_dip c psi_x at points x of the closed cone.

    lam = (c t)^2 - x^2 is formed here, in units of ``_length_unit(c)``^2 and
    clipped at 0, with sqrt(lam) as sqrt(c|t| - |x|) sqrt(c|t| + |x|) where
    (c t)^2 is past float64's normal range [2^-1022, 2^1024).  psi takes its edge
    value sgn(t)/(2c) on the points of the mask edge; psi_t,reg keeps each point's
    own lam.  c psi_x is -(x/(ct)) psi_t,reg, its edge atoms the caller's.  Their
    factor k^2 |t|/(8c) is m 2^e from the mantissas and exponents of k, |t| and c;
    m meets I1(z)/z and (w_reg ct - w_dip x)/ct, ct in units of u, before 2^e, so
    no step leaves float64 before the value does.  No term costs a Bessel
    evaluation at k = 0 or at zero weight (the result is the scalar 0.0 if no
    term remains); a value past float64 raises DomainError.
    """
    free = medium.k == 0.0  # I0 = 1 and psi_t,reg = 0: no argument, even where lam = inf
    out = 0.0
    u = _length_unit(medium.c)
    radius = medium.c / u * abs(t)
    with np.errstate(over="ignore", invalid="ignore"):
        if not free:
            # 2 alpha sqrt(c^2 t^2 - x^2) = k/(2 c/u) * sqrt(lam), lam in units of u^2
            r = np.abs(x) / u
            if 2.0 ** -1022 <= radius * radius < math.inf:
                root = np.sqrt(np.maximum(radius * radius - r * r, 0.0))
            else:
                root = np.sqrt(np.maximum(radius - r, 0.0)) * np.sqrt(radius + r)
            arg = 0.5 * medium.k / (medium.c / u) * root
        if w_psi != 0.0:
            edge_value = (math.copysign(1.0, t) if t != 0.0 else 0.0) / (2.0 * medium.c)
            out = edge_value * (np.ones(np.shape(x)) if free else bessel.i0_array(arg))
            if edge is not None:
                out[edge] = edge_value
            out *= w_psi
        if (w_reg != 0.0 or w_dip != 0.0) and not free:
            (mk, ek), (mt, et), (mc, ec) = (math.frexp(v) for v in (medium.k, abs(t), medium.c))
            reg = mk * mk * mt / mc * bessel.i1_over_z_array(arg)
            ct = math.copysign(radius, t)
            reg *= (w_reg * ct - w_dip * (x / u)) / ct if w_dip != 0.0 else w_reg
            out += np.ldexp(reg, 2 * ek + et - ec - 3)
    if not np.isfinite(out).all():
        raise DomainError(f"kernel values exceed float64 at k|t| = {medium.k * abs(t):g}")
    return out


def _cone_combination(x, t: float, medium: MediumParams, w_psi: float, w_reg: float,
                      w_dip: float):
    """``_cone_values`` at positions x (scalar or array), zero off the closed cone."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = _check_time(t)
    if not np.all(np.isfinite(x)):
        raise DomainError("positions must be finite")
    boundary, inside = _masks(x, t, medium.c)
    supported = boundary | inside
    out = np.zeros_like(x)
    out[supported] = _cone_values(x[supported], t, medium, w_psi, w_reg, w_dip,
                                  boundary[supported])
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
