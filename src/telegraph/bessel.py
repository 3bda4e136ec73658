"""Modified Bessel functions I0, I1 and the ratio I1(z)/z on z >= 0.

Evaluation is two-regime: the ascending power series in q = z^2/4 (DLMF
10.25.2) up to ``SERIES_SWITCH`` and the expansion e^z/sqrt(2 pi z) *
(1 + 1/(8z) + ...) in w = 1/z (DLMF 10.40.1) beyond it.  Each regime of an
array is summed by Horner with one term count for every entry, found by a
term loop on the entry that converges last (the series' largest z, the
expansion's smallest): it adds terms until the last is at most 1e-16 of the
sum.  ``_regimes`` also takes ``runs``, the start index of each run of
entries (``kernel._cone_values`` passes one run per solve time): each run
takes its own term counts, so a run's values are bitwise those of the run
alone.  The expansion diverges, but its smallest term is about e^{-2z} of
the sum, so from z = 20 up its terms fall below 1e-16 of the sum before
they grow.

``i1_over_z_array`` evaluates I1(z)/z through its own even series
1/2 + z^2/16 + z^4/384 + ..., so z = 0 never involves a division.  The three
array evaluators are the API; they are pure and take valid (finite,
nonnegative) arguments unchecked.  Accuracy is ~5e-15 relative up to
SERIES_SWITCH and ~1e-13 beyond, set by the roundoff of e^z.  Past z ~ 713.9
a value is inf, on which the kernel layer raises ``DomainError``.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

#: Regime switch point: power series at or below, asymptotic expansion above.
SERIES_SWITCH = 20.0

#: Hard cap on term-loop passes and the coefficient tables' last index (the
#: series takes 34 terms at z = 20, the expansion at most 22 above it).
SERIES_CAP = 200

_REL_STOP = 1e-16


# ---------------------------------------------------------------------------
# term loop and coefficient tables
# ---------------------------------------------------------------------------

def _term_loop(term: float, ratio) -> int:
    """Index m of the first term at most 1e-16 of the running sum of term_0 = term,
    term_m = term_{m-1} * ratio(m), all nonnegative: the Horner term count."""
    total = term
    for m in range(1, SERIES_CAP + 1):
        term *= ratio(m)
        total += term
        if term <= _REL_STOP * total:
            break
    return m


def _series(z: float, order: int, over_z: bool = False) -> int:
    """Term count of the power series of I_order(z), or of I1(z)/z when over_z: ratio
    q / (m (m + order)), q = z^2/4, from 1 (I0), z/2 (I1) or 1/2 (I1(z)/z)."""
    q = 0.25 * z * z
    return _term_loop(0.5 if over_z else (0.5 * z if order else 1.0),
                      lambda m: q / (m * (m + order)))


def _expansion(z: float, order: int) -> int:
    """Term count of the expansion of I_order, by its terms' magnitudes: ratio
    |(2k-1)^2 - 4 order| / (8 k z) from 1."""
    return _term_loop(1.0, lambda k: abs((2 * k - 1) ** 2 - 4 * order) / (8.0 * k * z))


# by order n: the coefficients of q^m in the series and, signed, of w^k in the expansion
_Q_TABLES, _W_TABLES = (
    [tuple(accumulate(range(1, SERIES_CAP + 1), lambda c, m: step(c, m, n), initial=1.0))
     for n in (0, 1)]
    for step in (lambda c, m, n: c / (m * (m + n)),
                 lambda c, k, n: c * ((2 * k - 1) ** 2 - 4 * n) / (8.0 * k)))


def _horner(x: np.ndarray, table: tuple, n) -> np.ndarray:
    """table[0] + table[1] x + ... + table[n] x^n, two in-place passes per term;
    n is one count or one per entry."""
    if isinstance(n, np.ndarray):
        s = np.empty_like(x)
        for m in set(n.tolist()):  # not np.unique, which imports numpy.ma
            each = n == m
            s[each] = _horner(x[each], table, m)
        return s
    s = np.full_like(x, table[n])
    for c in table[n - 1::-1]:
        s *= x
        s += c
    return s


# ---------------------------------------------------------------------------
# array API (no per-entry validation; the kernel layer raises DomainError)
# ---------------------------------------------------------------------------

def _terms(picked: np.ndarray, z: np.ndarray, part: np.ndarray, runs, reduce, count, *args):
    """Term count of the entries picked = z[part]: count(e, *args) of the reduce e (by
    np.maximum or np.fmin) of each run's entries in part; one int where all agree."""
    if len(runs) == 1:
        return count(float(reduce.reduce(picked)), *args)
    extreme = reduce.reduceat(np.where(part, z, -np.inf if reduce is np.maximum else np.inf),
                              runs)
    held = np.add.reduceat(part, runs)
    counts = [count(float(e), *args) if h else 0 for e, h in zip(extreme, held)]
    distinct = {n for n, h in zip(counts, held) if h}
    return distinct.pop() if len(distinct) == 1 else np.repeat(counts, held)


def _series_values(zs: np.ndarray, z: np.ndarray, small: np.ndarray, order: int,
                   over_z: bool, runs) -> np.ndarray:
    """The power series at the arguments zs = z[small]."""
    n = _terms(zs, z, small, runs, np.maximum, _series, order, over_z)
    s = _horner(0.25 * zs * zs, _Q_TABLES[order], n)
    return s * (0.5 if over_z else 0.5 * zs) if order else s


def _regimes(z, order: int, over_z: bool = False, runs=(0,)) -> np.ndarray:
    """Series at or below SERIES_SWITCH, asymptotic expansion above (nan stays nan)."""
    z = np.asarray(z, dtype=float)
    small = z <= SERIES_SWITCH
    if small.all():  # every argument takes the series: no masks
        return _series_values(z, z, small, order, over_z, runs) if z.size else np.empty_like(z)
    out = np.empty_like(z)
    if small.any():
        out[small] = _series_values(z[small], z, small, order, over_z, runs)
    large = ~small
    zl = z[large]
    s = _horner(1.0 / zl, _W_TABLES[order], _terms(zl, z, large, runs, np.fmin, _expansion, order))
    s *= np.exp(zl - 0.5 * np.log(2.0 * np.pi * zl))
    out[large] = s / zl if over_z else s
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
