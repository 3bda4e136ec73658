"""Modified Bessel functions I0, I1 and the ratio I1(z)/z on z >= 0.

Evaluation is two-regime: the ascending power series up to
``SERIES_SWITCH`` and the large-argument asymptotic expansion
``e^z/sqrt(2 pi z) * (1 + 1/(8z) + ...)`` beyond it.  One term loop sums
both and stops once every entry's term is at most 1e-16 of its sum; the
series' last term and its index pin its truncation error.  The expansion
diverges, but its smallest term is about e^{-2z} of the sum (DLMF 10.40),
so from z = 20 up its terms fall below 1e-16 of the sum before they grow;
its error bound adds that e^{-2z} part, which no term represents.

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
SERIES_SWITCH = 20.0

#: Hard cap on term-loop passes (never reached: the series takes 34 at z = 20,
#: the expansion at most 22 above it).
SERIES_CAP = 200

_REL_STOP = 1e-16
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
# term loop
# ---------------------------------------------------------------------------

def _term_loop(term: np.ndarray, ratio):
    """Sum of term_0 = term, term_m = term_{m-1} * ratio(m), all nonnegative.

    Stops jointly once every entry's term is at most 1e-16 of its sum.
    Returns (sum, last term, m), with m the index of that last term.
    """
    total = term.copy()
    for m in range(1, SERIES_CAP + 1):
        term = term * ratio(m)
        total += term
        if (term <= _REL_STOP * total).all():
            break
    return total, term, m


def _series_array(z: np.ndarray, order: int, over_z: bool = False):
    """Power series of I_order(z), or of I1(z)/z when over_z: ratio
    q / (m (m + order)), q = z^2/4, from 1 (I0), z/2 (I1) or 1/2 (I1(z)/z)."""
    q = 0.25 * z * z
    term = np.full_like(z, 0.5) if over_z else (0.5 * z if order else np.ones_like(z))
    return _term_loop(term, lambda m: q / (m * (m + order)))


def _asymptotic_array(z: np.ndarray, order: int, over_z: bool = False):
    """e^z/sqrt(2 pi z) expansion of I_order, order in {0, 1}, or of I1(z)/z.

    Ratio ((2k-1)^2 - 4 order^2) / (8 k z) from 1.  Every term after the
    first has one sign, + for I0 and - for I1, so the loop sums 1 + |t_1|
    + ... and I1's sum is 2 minus that.  Returns the value and the last
    term's magnitude, both times the prefactor (and over z when over_z).
    """
    total, term, _ = _term_loop(np.ones_like(z),
                                lambda k: abs((2 * k - 1) ** 2 - 4 * order) / (8.0 * k * z))
    prefactor = np.exp(z - 0.5 * np.log(2.0 * np.pi * z))
    value, last = prefactor * (2.0 - total if order else total), prefactor * term
    return (value / z, last / z) if over_z else (value, last)


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
    """Asymptotic value; its bound is twice the last term plus the e^{-2z}
    part the expansion cannot represent, plus roundoff."""
    with np.errstate(over="ignore"):  # an overflow shows as inf, raised by _eval
        value, last = (float(v[0]) for v in _asymptotic_array(np.array([z]), order, over_z))
    return BesselEval(value, 2.0 * last + value * (math.exp(-2.0 * z) + 16 * _EPS))


def _eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    z = _check_arg(z)
    ev = (_series_eval if z <= SERIES_SWITCH else _asymptotic_eval)(z, order, over_z)
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
    float64 range; accuracy is ~5e-15 relative up to SERIES_SWITCH and
    ~1e-13 beyond, where the roundoff of e^z sets it.
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
    if small.any():
        out[small] = _series_array(z[small], order, over_z)[0]
    if not small.all():
        out[~small] = _asymptotic_array(z[~small], order, over_z)[0]
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
