"""Modified Bessel functions I0, I1 and the ratio I1(z)/z on z >= 0.

Evaluation is two-regime: the ascending power series in q = z^2/4 (DLMF
10.25.2) up to ``SERIES_SWITCH`` and the expansion e^z/sqrt(2 pi z) *
(1 + 1/(8z) + ...) in w = 1/z (DLMF 10.40.1) beyond it.  One term loop adds
terms until the last is at most 1e-16 of the sum: once per scalar, whose
series' last term and index pin its truncation error, and once per regime
of an array, on the entry that converges last (the series' largest z, the
expansion's smallest), to fix how many terms Horner sums for every entry.
The expansion diverges, but its smallest term is about e^{-2z} of the sum,
so from z = 20 up its terms fall below 1e-16 of the sum before they grow;
its error bound adds that e^{-2z} part, which no term represents.

``i1_over_z`` evaluates I1(z)/z through its own even series
1/2 + z^2/16 + z^4/384 + ..., so z = 0 never involves a division.  All
functions are pure.  Scalar entry points validate their argument and raise
``DomainError`` past the float64 range; array entry points assume it valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError

#: Regime switch point: power series at or below, asymptotic expansion above.
SERIES_SWITCH = 20.0

#: Hard cap on term-loop passes and the coefficient tables' last index (the
#: series takes 34 terms at z = 20, the expansion at most 22 above it).
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
# term loop and coefficient tables
# ---------------------------------------------------------------------------

def _term_loop(term: float, ratio):
    """Sum of term_0 = term, term_m = term_{m-1} * ratio(m), all nonnegative, up to
    the first term at most 1e-16 of the sum: (sum, that term, its index m)."""
    total = term
    for m in range(1, SERIES_CAP + 1):
        term *= ratio(m)
        total += term
        if term <= _REL_STOP * total:
            break
    return total, term, m


def _series(z: float, order: int, over_z: bool = False):
    """Power series of I_order(z), or of I1(z)/z when over_z: ratio
    q / (m (m + order)), q = z^2/4, from 1 (I0), z/2 (I1) or 1/2 (I1(z)/z)."""
    q = 0.25 * z * z
    return _term_loop(0.5 if over_z else (0.5 * z if order else 1.0),
                      lambda m: q / (m * (m + order)))


def _expansion(z: float, order: int):
    """Expansion of I_order: ratio |(2k-1)^2 - 4 order| / (8 k z) from 1.  The terms
    after the first are + for I0 and - for I1, so I1's sum is 2 minus this one."""
    return _term_loop(1.0, lambda k: abs((2 * k - 1) ** 2 - 4 * order) / (8.0 * k * z))


# by order n: the coefficients of q^m in the series and, signed, of w^k in the expansion
_Q_TABLES, _W_TABLES = (
    [tuple(accumulate(range(1, SERIES_CAP + 1), lambda c, m: step(c, m, n), initial=1.0))
     for n in (0, 1)]
    for step in (lambda c, m, n: c / (m * (m + n)),
                 lambda c, k, n: c * ((2 * k - 1) ** 2 - 4 * n) / (8.0 * k)))


def _horner(x: np.ndarray, table: tuple, n: int) -> np.ndarray:
    """table[0] + table[1] x + ... + table[n] x^n, two in-place passes per term."""
    s = np.full_like(x, table[n])
    for c in table[n - 1::-1]:
        s *= x
        s += c
    return s


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def _series_eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    """Series value with its truncation bound (a geometric tail) plus roundoff."""
    value, term, m = _series(z, order, over_z)
    q = 0.25 * z * z
    nxt = term * q / ((m + 1) * (m + 1 + order))
    ratio = q / ((m + 2) * (m + 2 + order))
    trunc = nxt / (1.0 - ratio) if ratio < 1.0 else math.inf
    return BesselEval(value, trunc + (m + 4) * _EPS * value)


def _asymptotic_eval(z: float, order: int, over_z: bool = False) -> BesselEval:
    """Asymptotic value; its bound is twice the last term plus the e^{-2z}
    part the expansion cannot represent, plus roundoff."""
    total, term, _ = _expansion(z, order)
    with np.errstate(over="ignore"):  # an overflow shows as inf, raised by _eval
        prefactor = np.exp(z - 0.5 * np.log(2.0 * np.pi * z))
        value, last = prefactor * (2.0 - total if order else total), prefactor * term
    value, last = (float(value / z), float(last / z)) if over_z else (float(value), float(last))
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
    """Series at or below SERIES_SWITCH, asymptotic expansion above (nan stays nan)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= SERIES_SWITCH
    if small.any():
        zs = z[small]
        s = _horner(0.25 * zs * zs, _Q_TABLES[order], _series(float(zs.max()), order, over_z)[2])
        out[small] = s * (0.5 if over_z else 0.5 * zs) if order else s
    if not small.all():
        zl = z[~small]
        s = _horner(1.0 / zl, _W_TABLES[order], _expansion(float(np.fmin.reduce(zl)), order)[2])
        s *= np.exp(zl - 0.5 * np.log(2.0 * np.pi * zl))
        out[~small] = s / zl if over_z else s
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
