"""Composite Simpson quadrature helpers.

The solver integrates continuous (Bessel-kernel) integrands over light-cone
windows, so plain composite Simpson with a window-proportional panel count
is enough; no singular quadrature is needed anywhere in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

# Simpson subintervals: at least MIN_PANELS per window and PANEL_FACTOR per
# grid spacing of window (``panel_count``); PANELS_PER_BIN per bin in
# ``integrate_bins``; MASS_PANELS over a measure's support in
# ``MixedMeasure.density_mass``.
MIN_PANELS = 64
PANEL_FACTOR = 4
PANELS_PER_BIN = 8
MASS_PANELS = 16384


def panel_count(window: float, dx: float) -> int:
    """Even subinterval count for a window: max(MIN_PANELS, PANEL_FACTOR*window/dx)."""
    if window < 0 or dx <= 0:
        raise UsageError("window must be >= 0 and dx > 0")
    n = max(MIN_PANELS, int(math.ceil(PANEL_FACTOR * window / dx)))
    return n + (n % 2)


def simpson_pattern(n_sub: int) -> np.ndarray:
    """Weight pattern 1,4,2,...,2,4,1 for n_sub (even) subintervals."""
    if n_sub < 2 or n_sub % 2:
        raise UsageError(f"Simpson needs an even subinterval count >= 2, got {n_sub}")
    pattern = np.ones(n_sub + 1)
    pattern[1:-1:2] = 4.0
    pattern[2:-1:2] = 2.0
    return pattern


def simpson_nodes_weights(a: float, b: float, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Simpson on [a, b] with n_sub subintervals."""
    pattern = simpson_pattern(n_sub)
    h = (b - a) / n_sub
    nodes = a + h * np.arange(n_sub + 1)
    nodes[-1] = b
    return nodes, pattern * (h / 3.0)


def composite_simpson(fn, a: float, b: float, n_sub: int) -> float:
    """Integrate a vectorized callable over [a, b].

    Summation goes through numpy's pairwise reduction, not BLAS, so the
    result never depends on how many threads the backend was given.
    """
    if b <= a:
        return 0.0
    nodes, weights = simpson_nodes_weights(a, b, n_sub)
    return float(np.sum(weights * np.asarray(fn(nodes), dtype=float)))


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
