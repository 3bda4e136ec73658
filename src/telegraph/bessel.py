"""Modified Bessel functions I0, I1 and the ratio I1(z)/z on z >= 0.

Evaluation is two-regime: the ascending power series up to
``SERIES_SWITCH`` and the large-argument asymptotic expansion
``e^z/sqrt(2 pi z) * (1 + 1/(8z) + ...)`` beyond it.  Each regime has one
term loop, ``_series_array`` and ``_asymptotic_array``, which every entry
point runs.  The series stops once the next term drops below 1e-16 of the
running sum (all terms are positive, so the last term and its index pin
the truncation error); the asymptotic sum stops each entry at its
smallest term, whose size -- together with the e^{-2z} floor of the
expansion -- enters the reported error bound.

``i1_over_z`` evaluates I1(z)/z through its own even series
1/2 + z^2/16 + z^4/384 + ... so the removable singularity at z = 0 never
involves a division.

All functions are pure.  The scalar entry points validate their argument,
evaluate a one-element array, form the error bound from the loop's final
state and raise ``DomainError`` where the value exceeds the float64 range.
The array entry points assume their argument was validated and are what
the quadrature loops call.
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
# term loops
# ---------------------------------------------------------------------------

def _series_array(z: np.ndarray, order: int, over_z: bool = False):
    """Power series of I_order(z), or of I1(z)/z when over_z.

    Term recurrence: t_m = t_{m-1} * q / (m (m + order)), q = z^2/4, from
    t_0 = 1 (I0), z/2 (I1) or 1/2 (I1(z)/z).  The loop stops jointly once
    every entry's term is below 1e-16 of its sum.  Returns (sum, last
    term, m), with m the index of that last term.
    """
    q = 0.25 * z * z
    if over_z:
        term = np.full_like(z, 0.5)
    else:
        term = 0.5 * z if order else np.ones_like(z)
    total = term.copy()
    m = 0
    for m in range(1, SERIES_CAP + 1):
        term = term * (q / (m * (m + order)))
        total += term
        if np.all(term <= _REL_STOP * total):
            break
    return total, term, m


def _asymptotic_array(z: np.ndarray, order: int):
    """e^z/sqrt(2 pi z) expansion of I_order, order in {0, 1}.

    Term recurrence: t_k = t_{k-1} * ((2k-1)^2 - 4 order^2) / (8 k z), so
    |t_k| < |t_{k-1}| exactly when 8z > |(2k-1)^2 - 4 order^2| / k.  Each
    entry stops at its smallest term (optimal truncation) and holds that
    term from then on.  Returns (prefactor, sum, held term); the value is
    prefactor * sum.
    """
    mu = 4 * order * order
    eight_z = 8.0 * z
    term = np.ones_like(z)
    total = np.ones_like(z)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(1, _ASYM_CAP + 1):
        coeff = (2 * k - 1) ** 2 - mu
        alive &= eight_z > abs(coeff) / k
        if not alive.any():
            break
        np.multiply(term, coeff / (8.0 * k * z), out=term, where=alive)
        np.add(total, term, out=total, where=alive)
    return np.exp(z - 0.5 * np.log(2.0 * np.pi * z)), total, term


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def _series_eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    """Series value with its truncation bound (a geometric tail) plus roundoff."""
    total, term, m = _series_array(np.array([z]), order, over_z)
    value = float(total[0])
    q = 0.25 * z * z
    nxt = float(term[0]) * q / ((m + 1) * (m + 1 + order))
    ratio = q / ((m + 2) * (m + 2 + order))
    trunc = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
    return BesselEval(value, trunc + (m + 4) * _EPS * value)


def _asymptotic_eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    """Asymptotic value; its bound is twice the smallest term plus the e^{-2z}
    part the expansion cannot represent, plus roundoff."""
    with np.errstate(over="ignore"):  # an overflow shows as inf, raised by _eval
        prefactor, total, term = _asymptotic_array(np.array([z]), order)
        value = float(prefactor[0] * total[0])
    # 2 * term first: prefactor * 2 alone overflows for z above ~713.4
    bound = (2.0 * abs(float(term[0])) * float(prefactor[0])
             + abs(value) * (math.exp(-2.0 * z) + 16 * _EPS))
    if over_z:
        return BesselEval(value / z, bound / z)
    return BesselEval(value, bound)


def _eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    z = _check_arg(z)
    regime = _series_eval if z <= SERIES_SWITCH else _asymptotic_eval
    ev = regime(z, order, over_z)
    if not math.isfinite(ev.value):
        raise DomainError(f"I{order}({z!r}) exceeds the float64 range")
    return ev


def i0_eval(z: float) -> BesselEval:
    """I0(z) with an absolute error bound."""
    return _eval(z, 0)


def i1_eval(z: float) -> BesselEval:
    """I1(z) with an absolute error bound."""
    return _eval(z, 1)


def i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Raises DomainError for z beyond ~713.9, where I0 itself exceeds the
    float64 range; accuracy is ~1e-13 relative or better for z <= 50.
    """
    return _eval(z, 0).value


def i1(z: float) -> float:
    """Modified Bessel function of the first kind, order one (= I0').

    Raises DomainError where I1 exceeds the float64 range (z beyond ~713.9).
    """
    return _eval(z, 1).value


def i1_over_z(z: float) -> float:
    """I1(z)/z, continuous through z = 0 where it equals 1/2.

    Raises DomainError where I1 itself exceeds the float64 range.
    """
    return _eval(z, 1, over_z=True).value


# ---------------------------------------------------------------------------
# array API (no per-element validation; used by the quadrature loops)
# ---------------------------------------------------------------------------

def _regimes(z, order: int, over_z: bool = False) -> np.ndarray:
    """Series at or below SERIES_SWITCH, asymptotic expansion above."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= SERIES_SWITCH
    large = ~small
    if small.any():
        out[small] = _series_array(z[small], order, over_z)[0]
    if large.any():
        zl = z[large]
        prefactor, total, _ = _asymptotic_array(zl, order)
        out[large] = prefactor * total / zl if over_z else prefactor * total
    return out


def i0_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I0 over nonnegative arguments."""
    return _regimes(z, 0)


def i1_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I1 over nonnegative arguments."""
    return _regimes(z, 1)


def i1_over_z_array(z: np.ndarray) -> np.ndarray:
    """Vectorized I1(z)/z, value 1/2 at z = 0."""
    return _regimes(z, 1, over_z=True)
