"""Composite Simpson and Gauss-Legendre quadrature helpers.

The solver integrates continuous (Bessel-kernel) integrands over light-cone
windows, so plain composite Simpson with a window-proportional panel count
is enough; no singular quadrature is needed anywhere in the package.  A
point law's closed-form density is analytic on its closed cone, so its mass
takes a fixed Gauss-Legendre rule, which converges geometrically there.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, UsageError

# Simpson subintervals: at least MIN_PANELS per window and PANEL_FACTOR per
# grid spacing of window (``panel_count``); PANELS_PER_BIN per bin in
# ``integrate_bins``.  MASS_NODES Gauss-Legendre nodes over a measure's
# support in ``MixedMeasure.density_mass``: a point law's density at k t
# spreads like a Gaussian of width c t sqrt(2/(k t)), so the nodes needed
# grow like sqrt(k t); 128 hold the three laws' masses to 5e-14 relative up
# to k t = 1400, past which the kernel leaves float64 (96 nodes give 7e-12).
MIN_PANELS = 64
PANEL_FACTOR = 4
PANELS_PER_BIN = 8
MASS_NODES = 128


def panel_count(window: float, dx: float) -> int:
    """Even subinterval count for a window: max(MIN_PANELS, PANEL_FACTOR*window/dx);
    DomainError past 2^53, where float64 no longer holds every node index."""
    if window < 0 or dx <= 0:
        raise UsageError("window must be >= 0 and dx > 0")
    n = PANEL_FACTOR * window / dx
    if not n <= 2.0 ** 53:
        raise DomainError(f"a window of {window:g} at dx = {dx:g} needs {n:g} > 2^53 panels")
    n = max(MIN_PANELS, int(math.ceil(n)))
    return n + (n % 2)


def simpson_pattern(n_sub: int) -> np.ndarray:
    """Weight pattern 1,4,2,...,2,4,1 for n_sub (even) subintervals."""
    if n_sub < 2 or n_sub % 2:
        raise UsageError(f"Simpson needs an even subinterval count >= 2, got {n_sub}")
    pattern = np.ones(n_sub + 1)
    pattern[1:-1:2] = 4.0
    pattern[2:-1:2] = 2.0
    return pattern


def composite_simpson(fn, a: float, b: float, n_sub: int) -> float:
    """Integrate a vectorized callable over [a, b] with n_sub subintervals.

    Summation goes through numpy's pairwise reduction, not BLAS, so the
    result never depends on how many threads the backend was given.
    """
    if b <= a:
        return 0.0
    pattern = simpson_pattern(n_sub)  # rejects a bad n_sub before it divides
    h = (b - a) / n_sub
    nodes = a + h * np.arange(n_sub + 1)
    nodes[-1] = b
    return float(np.sum(pattern * (h / 3.0) * np.asarray(fn(nodes), dtype=float)))


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use: importing numpy.polynomial would cost every ``import telegraph``."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(fn, a: float, b: float, n: int) -> float:
    """Integrate a vectorized callable over [a, b] with n Gauss-Legendre nodes.

    Summation goes through numpy's pairwise reduction, not BLAS, as in
    ``composite_simpson``.
    """
    if b <= a:
        return 0.0
    nodes, weights = _legendre_rule(n)
    half = 0.5 * (b - a)
    values = np.asarray(fn(0.5 * (a + b) + half * nodes), dtype=float)
    return float(half * np.sum(weights * values))


def integrate_bins(fn, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per-bin Simpson integrals of a vectorized callable, PANELS_PER_BIN panels each.

    Bins with upper <= lower integrate to zero.  One callable invocation
    covers every node of every bin.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    width = np.maximum(upper - lower, 0.0)
    pattern = simpson_pattern(PANELS_PER_BIN)
    rel = np.arange(PANELS_PER_BIN + 1) / PANELS_PER_BIN
    nodes = lower[:, None] + width[:, None] * rel[None, :]
    values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return np.sum(values * pattern, axis=1) * (width / (3.0 * PANELS_PER_BIN))
