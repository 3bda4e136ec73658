"""Exact L2 norms of the damped wave equation for Gaussian data, by Parseval.

For u_tt + k u_t = c^2 u_xx with u(x, 0) = f(x) = exp(-x^2), u_t(x, 0) = 0,
each Fourier mode obeys a damped oscillator ODE, so with
s = sqrt(k^2/4 - c^2 xi^2) (imaginary for |xi| > k/(2c))

    u^(xi, t)   = f^(xi) e^{-kt/2} (cosh(st) + (k/2) sinh(st)/s),
    u_t^(xi, t) = -c^2 xi^2 f^(xi) e^{-kt/2} sinh(st)/s,

with f^(xi) = sqrt(pi) exp(-xi^2/4).  The norms follow from
||v||^2 = (1/2pi) int |v^(xi)|^2 dxi, and pointwise values from
v(x) = (1/2pi) int v^(xi) cos(xi x) dxi (every v^ here is even).  The
centred difference (v(x+dx) - v(x-dx)) / (2 dx) has the symbol
i sin(xi dx)/dx, which replaces i xi when a grid spacing is given.

The integrands are analytic and decay like exp(-xi^2/2), so the trapezoid
rule on a wide symmetric xi-grid converges spectrally.  This module uses
numpy and math only; it shares no code with the package's solver or
Bessel evaluators, so agreement with them is meaningful.
"""

import math

import numpy as np

XI_MAX = 40.0
XI_STEP = 1.0 / 64.0


def gaussian_norms(t: float, k: float, c: float = 1.0, dx: float | None = None):
    """(||u||, ||u_t||, ||u_x||) at time t >= 0 for f = exp(-x^2), g = 0.

    With dx given, u_x is the centred difference on a grid of that
    spacing; without it, the exact derivative.
    """
    n = int(round(XI_MAX / XI_STEP))
    xi = XI_STEP * np.arange(-n, n + 1)
    s = np.sqrt((0.25 * k * k - (c * xi) ** 2).astype(complex))
    # sinh(st)/s tends to t as s -> 0
    at_zero = s == 0
    sinhc = np.where(at_zero, t, np.sinh(s * t) / np.where(at_zero, 1.0, s)).real
    damp = math.exp(-0.5 * k * t)
    f_hat = math.sqrt(math.pi) * np.exp(-0.25 * xi * xi)
    u_hat = f_hat * damp * (np.cosh(s * t).real + 0.5 * k * sinhc)
    ut_hat = -(c * xi) ** 2 * f_hat * damp * sinhc
    deriv = xi if dx is None else np.sin(xi * dx) / dx

    def norm(v_hat):
        return math.sqrt(np.trapezoid(v_hat * v_hat, dx=XI_STEP) / (2.0 * math.pi))

    return norm(u_hat), norm(ut_hat), norm(deriv * u_hat)


def _damped_modes(t: float, k: float, c: float):
    """xi, f^(xi), e^{-kt/2} cosh(st) and e^{-kt/2} sinh(st)/s on the xi-grid.

    Each is summed from e^{(+-s-k/2)t}, which stay finite where cosh(st) and
    sinh(st) alone would overflow.
    """
    n = int(round(XI_MAX / XI_STEP))
    xi = XI_STEP * np.arange(-n, n + 1)
    s = np.sqrt((0.25 * k * k - (c * xi) ** 2).astype(complex))
    at_zero = s == 0
    s_safe = np.where(at_zero, 1.0, s)
    grow, decay = np.exp((s - 0.5 * k) * t), np.exp((-s - 0.5 * k) * t)
    damped_cosh = (0.5 * (grow + decay)).real
    damped_sinhc = np.where(at_zero, t * math.exp(-0.5 * k * t),
                            (grow - decay) / (2.0 * s_safe)).real
    return xi, math.sqrt(math.pi) * np.exp(-0.25 * xi * xi), damped_cosh, damped_sinhc


def _at_points(x, xi, v_hat) -> np.ndarray:
    """(1/2pi) int v^(xi) cos(xi x) dxi at the points x, for an even v^."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    for b in range(0, x.size, 256):  # blocks keep the cos table small
        out.flat[b:b + 256] = np.cos(np.outer(x.flat[b:b + 256], xi)) @ v_hat
    return out * XI_STEP / (2.0 * math.pi)


def gaussian_field(x, t: float, k: float, c: float = 1.0) -> np.ndarray:
    """u at the points x and time t for f = exp(-x^2), g = 0."""
    xi, f_hat, damped_cosh, damped_sinhc = _damped_modes(t, k, c)
    return _at_points(x, xi, f_hat * (damped_cosh + 0.5 * k * damped_sinhc))


def gaussian_velocity(x, t: float, k: float, c: float = 1.0) -> np.ndarray:
    """u_t at the points x and time t for f = exp(-x^2), g = 0."""
    xi, f_hat, _, damped_sinhc = _damped_modes(t, k, c)
    return _at_points(x, xi, -(c * xi) ** 2 * f_hat * damped_sinhc)
