"""Modified Bessel functions I0, I1 and the ratio I1(z)/z on z >= 0.

Evaluation is two-regime: the ascending power series up to
``SERIES_SWITCH`` and the large-argument asymptotic expansion
``e^z/sqrt(2 pi z) * (1 + 1/(8z) + ...)`` beyond it.  The series stops
once the next term drops below 1e-16 of the running sum (all terms are
positive, so this pins the truncation error); the asymptotic sum stops
at its smallest term, whose size -- together with the e^{-2z} floor of
the expansion -- enters the reported error bound.

``i1_over_z`` evaluates I1(z)/z through its own even series
1/2 + z^2/16 + z^4/384 + ... so the removable singularity at z = 0 never
involves a division.

All functions are pure; scalar entry points validate their argument,
array entry points assume it was validated and are what the quadrature
loops call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Regime switch point: power series at or below, asymptotic expansion above.
SERIES_SWITCH = 15.0

#: Hard cap on power-series terms (never reached for arguments below ~60).
SERIES_CAP = 200

_REL_STOP = 1e-16
_ASYM_CAP = 40
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(float(np.finfo(float).max))


@dataclass(frozen=True)
class BesselEval:
    """A function value with an absolute bound on its evaluation error."""

    value: float
    abs_error_bound: float


def _check_arg(z: float) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z!r}")
    if z < 0.0:
        raise DomainError(f"argument must be nonnegative, got {z!r}")
    return z


# ---------------------------------------------------------------------------
# power-series regime
# ---------------------------------------------------------------------------

def _i0_series(z: float) -> tuple[float, float]:
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    m = 0
    for m in range(1, SERIES_CAP + 1):
        term *= q / (m * m)
        total += term
        if term < _REL_STOP * total:
            break
    nxt = term * q / ((m + 1) * (m + 1))
    ratio = q / ((m + 2) * (m + 2))
    trunc = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
    return total, trunc + (m + 4) * _EPS * total


def _i1_series(z: float) -> tuple[float, float]:
    if z == 0.0:
        return 0.0, 0.0
    q = 0.25 * z * z
    term = 0.5 * z
    total = term
    m = 0
    for m in range(1, SERIES_CAP + 1):
        term *= q / (m * (m + 1))
        total += term
        if term < _REL_STOP * total:
            break
    nxt = term * q / ((m + 1) * (m + 2))
    ratio = q / ((m + 2) * (m + 3))
    trunc = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
    return total, trunc + (m + 4) * _EPS * total


def _i1_over_z_series(z: float) -> tuple[float, float]:
    q = 0.25 * z * z
    term = 0.5
    total = 0.5
    m = 0
    for m in range(1, SERIES_CAP + 1):
        term *= q / (m * (m + 1))
        total += term
        if term < _REL_STOP * total:
            break
    nxt = term * q / ((m + 1) * (m + 2))
    ratio = q / ((m + 2) * (m + 3))
    trunc = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
    return total, trunc + (m + 4) * _EPS * total


# ---------------------------------------------------------------------------
# asymptotic regime
# ---------------------------------------------------------------------------

def _asymptotic(z: float, order: int) -> tuple[float, float]:
    """e^z/sqrt(2 pi z) expansion for I_order, order in {0, 1}.

    Term recurrence: t_k = t_{k-1} * ((2k-1)^2 - 4*order^2) / (8 k z).
    Stops at the smallest term (optimal truncation); the remaining error
    is of that term's size plus the exponentially small e^{-2z} tail the
    expansion cannot represent.
    """
    mu = 4 * order * order
    term = 1.0
    total = 1.0
    tail = 0.0
    for k in range(1, _ASYM_CAP + 1):
        new = term * (((2 * k - 1) ** 2 - mu) / (8.0 * k * z))
        if abs(new) >= abs(term):
            tail = abs(term)
            break
        term = new
        total += term
        tail = abs(term)
        if abs(term) < 1e-17 * abs(total):
            break
    # exp(z - log sqrt(2 pi z)) postpones overflow slightly vs exp(z)/sqrt(..)
    log_prefactor = z - 0.5 * math.log(2.0 * math.pi * z)
    prefactor = math.exp(log_prefactor) if log_prefactor < _LOG_MAX else math.inf
    value = prefactor * total
    if math.isinf(value):
        raise DomainError(f"I{order}({z!r}) exceeds the float64 range")
    bound = prefactor * 2.0 * tail + abs(value) * (math.exp(-2.0 * z) + 16 * _EPS)
    return value, bound


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def i0_eval(z: float) -> BesselEval:
    """I0(z) with an absolute error bound."""
    z = _check_arg(z)
    value, bound = _i0_series(z) if z <= SERIES_SWITCH else _asymptotic(z, 0)
    return BesselEval(value, bound)


def i1_eval(z: float) -> BesselEval:
    """I1(z) with an absolute error bound."""
    z = _check_arg(z)
    value, bound = _i1_series(z) if z <= SERIES_SWITCH else _asymptotic(z, 1)
    return BesselEval(value, bound)


def i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Raises DomainError for z beyond ~713.9, where I0 itself exceeds the
    float64 range; accuracy is ~1e-13 relative or better for z <= 50.
    """
    return i0_eval(z).value


def i1(z: float) -> float:
    """Modified Bessel function of the first kind, order one (= I0').

    Raises DomainError where I1 exceeds the float64 range (z beyond ~713.9).
    """
    return i1_eval(z).value


def i1_over_z(z: float) -> float:
    """I1(z)/z, continuous through z = 0 where it equals 1/2.

    Raises DomainError where I1 itself exceeds the float64 range.
    """
    z = _check_arg(z)
    if z <= SERIES_SWITCH:
        return _i1_over_z_series(z)[0]
    return _asymptotic(z, 1)[0] / z


# ---------------------------------------------------------------------------
# array API (no per-element validation; used by the quadrature loops)
# ---------------------------------------------------------------------------

def _series_array(z: np.ndarray, first: np.ndarray, num_shift: int) -> np.ndarray:
    """Shared series loop: term_{m} = term_{m-1} * q / (m*(m+num_shift))."""
    q = 0.25 * z * z
    term = first.copy()
    total = first.copy()
    for m in range(1, SERIES_CAP + 1):
        term = term * (q / (m * (m + num_shift)))
        total += term
        if np.all(term <= _REL_STOP * total):
            break
    return total


def _asymptotic_array(z: np.ndarray, order: int) -> np.ndarray:
    mu = 4 * order * order
    term = np.ones_like(z)
    total = np.ones_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(1, _ASYM_CAP + 1):
        new = term * (((2 * k - 1) ** 2 - mu) / (8.0 * k * z))
        alive &= np.abs(new) < np.abs(term)
        term = np.where(alive, new, 0.0)
        total += term
        if not alive.any():
            break
    return np.exp(z - 0.5 * np.log(2.0 * np.pi * z)) * total


def i0_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I0 over nonnegative arguments."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= SERIES_SWITCH
    if small.any():
        zs = z[small]
        out[small] = _series_array(zs, np.ones_like(zs), 0)
    if (~small).any():
        out[~small] = _asymptotic_array(z[~small], 0)
    return out


def i1_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I1 over nonnegative arguments."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= SERIES_SWITCH
    if small.any():
        zs = z[small]
        out[small] = _series_array(zs, 0.5 * zs, 1)
    if (~small).any():
        out[~small] = _asymptotic_array(z[~small], 1)
    return out


def i1_over_z_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I1(z)/z, value 1/2 at z = 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= SERIES_SWITCH
    if small.any():
        zs = z[small]
        out[small] = _series_array(zs, np.full_like(zs, 0.5), 1)
    if (~small).any():
        zl = z[~small]
        out[~small] = _asymptotic_array(zl, 1) / zl
    return out
