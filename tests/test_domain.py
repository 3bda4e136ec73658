"""Corner sweep of the library's entry points over extreme media and times.

Every call must return finite values or raise DomainError / UsageError, with
every warning an error.  Default ``convolve_measure`` out grids, whose size
follows the cone radius, are left out: only an address-space limit on a
separate process could bound what they allocate.
"""

import functools
import math

import numpy as np
import pytest

import telegraph as tg
from telegraph.solver import DELTA_KINDS

KS = (0.0, 1e-300, 1e-152, 1.0, 1e3, 1e6, 1e160, 1e300)
CS = (1e-300, 1e-8, 1.0, 1e8, 1e300)
TS = (1e300, -1e300, 1e155, -5.0, 1e-300, -1e-300, 0.0, 0.37, 1e6, 1e-170)

GRID = tg.SpaceGrid(-4.0, 1.0 / 16, 129)
X = GRID.points()
F = tg.SampledField(GRID, np.exp(-X * X))
G = tg.SampledField(GRID, 0.5 * np.exp(-(X - 0.2) ** 2))
MEASURE = tg.MixedMeasure(atoms=((0.5, 0.3),), density=F, support=(-4.0, 4.0))


def _arrays(result):
    """The float arrays a call returned, whatever its result type."""
    if isinstance(result, tg.SampledField):
        return [result.values]
    if isinstance(result, tg.StatePair):
        return [result.u.values, result.ut.values]
    if isinstance(result, tg.MixedMeasure):
        b = result.mass_breakdown()
        return [result.density.values, np.array(result.atoms, dtype=float).ravel(),
                np.array([b.atoms, b.density, b.total])]
    return [np.asarray(result, dtype=float)]


def _calls(t, m):
    yield "fundamental_solution", lambda: tg.fundamental_solution(X, t, m)
    yield "time_derivative_regular", lambda: tg.time_derivative_regular(X, t, m)
    if t >= 0.0:
        yield "solve", lambda: tg.solve(F, G, t, m)
        yield "velocity", lambda: tg.velocity(F, G, t, m)
        yield "evolve", lambda: tg.evolve(t, tg.StatePair(F, G), m)
    for which in ("kernel", "kernel_dt"):
        yield f"convolve_measure {which}", lambda: tg.convolve_measure(
            MEASURE, t, m, which, out_grid=GRID)
    for kind in DELTA_KINDS:
        yield f"point_source_solution {kind}", lambda: tg.point_source_solution(
            kind, t, m, GRID)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", CS)
@pytest.mark.parametrize("k", KS)
def test_every_entry_point_is_finite_or_refuses(k, c):
    m = tg.MediumParams(k=k, c=c)
    unclean = []
    for t in TS:
        for name, call in _calls(t, m):
            try:
                arrays = _arrays(call())
            except (tg.DomainError, tg.UsageError):
                continue
            except Exception as exc:  # a warning raised as an error lands here too
                unclean.append(f"{name} at t = {t}: {type(exc).__name__}: {exc}")
                continue
            if not all(np.isfinite(a).all() for a in arrays):
                unclean.append(f"{name} at t = {t}: non-finite values")
    assert not unclean, "\n".join(unclean)


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e160, 1e300])
def test_only_k_t_and_c_t_matter(s):
    # time measured in units of 1/s: u(x, s t) for (k/s, c/s) and data (f, g/s) is
    # u(x, t) for (k, c) and (f, g); psi scales by s, psi_t,reg not at all.  (c t)^2
    # in units of a power of two near c, and (k/4)^2, leave float64's normal range
    k, c, t = 2.0, 0.7, 0.9
    m, ms = tg.MediumParams(k=k, c=c), tg.MediumParams(k=k / s, c=c / s)
    x = np.linspace(-0.6, 0.6, 7)
    assert np.allclose(tg.fundamental_solution(x, s * t, ms),
                       s * tg.fundamental_solution(x, t, m), rtol=1e-14, atol=0.0)
    assert np.allclose(tg.time_derivative_regular(x, s * t, ms),
                       tg.time_derivative_regular(x, t, m), rtol=1e-14, atol=0.0)
    g_s = tg.SampledField(GRID, G.values / s)
    u = tg.solve(F, G, t, m).values
    assert np.max(np.abs(tg.solve(F, g_s, s * t, ms).values - u)) <= 1e-14 * np.max(np.abs(u))


#: Where float64's I0 and I1 overflow, so DomainError is due however small 1/(2c) is.
BESSEL_OVERFLOW = 713.9


@functools.lru_cache(maxsize=None)
def _bessel_pair(z):
    """I0(z) and I1(z)/z to 30 digits, z an mpf."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return mpmath.besseli(0, z), (mpmath.besseli(1, z) / z if z else mpmath.mpf(0.5))


def _exact(k, c, t, x):
    """psi and psi_t,reg at (x, t) to 30 digits, None past BESSEL_OVERFLOW, and the
    Bessel argument k/(2c) sqrt(c^2 t^2 - x^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        k, c, t, x = (mpmath.mpf(v) for v in (k, c, t, x))
        z = k / (2 * c) * mpmath.sqrt(c * c * t * t - x * x)
        if z > BESSEL_OVERFLOW:
            return None, None, z
        i0, i1_over_z = _bessel_pair(z)
        return mpmath.sign(t) / (2 * c) * i0, k * k * abs(t) / (8 * c) * i1_over_z, z


@pytest.mark.filterwarnings("error")
def test_kernel_functions_match_mpmath():
    # every (k, c, t) of the sweep at x = 0 and x = c|t|/2, where the Bessel argument
    # is at most 700: an exact value of 0 or a normal one matches to 1e-12, one past
    # float64 raises DomainError; past BESSEL_OVERFLOW DomainError is accepted
    pytest.importorskip("mpmath")
    tiny, huge = 2.0 ** -1022, np.finfo(float).max
    wrong = []
    for k in KS:
        for c in CS:
            m = tg.MediumParams(k=k, c=c)
            for t in TS:
                for x in {0.0, 0.5 * c * abs(t)} - {math.inf}:
                    psi, reg, z = _exact(k, c, t, x)
                    for fn, ref in ((tg.fundamental_solution, psi),
                                    (tg.time_derivative_regular, reg)):
                        case = f"{fn.__name__}({x}, {t}) at k = {k}, c = {c}"
                        try:
                            got = fn(x, t, m)
                        except tg.DomainError:
                            if ref is not None and abs(ref) <= huge:
                                wrong.append(f"{case}: DomainError, exact {float(ref):.14g}")
                            continue
                        if ref is None or z > 700 or 0 < abs(ref) < tiny:
                            continue
                        if abs(ref) > huge or abs(got - ref) > 1e-12 * abs(ref):
                            wrong.append(f"{case}: {got!r}, exact {float(ref):.14g}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.filterwarnings("error")
def test_financial_law_at_a_tiny_cone():
    # c t = 1e-400 underflows in plain units; the dipole factor is formed in c's units
    m = tg.MediumParams(k=1.0, c=1e-300)
    law = tg.point_source_solution("financial", 1e-100, m, GRID)
    assert law.atoms == ((m.c * 1e-100, 1.0),)
    assert law.mass_breakdown().total == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_infinite_radius_holds_every_finite_x():
    # c|t| overflows even in c's units: every finite x lies inside the cone
    x = [0.0, 1.0]
    assert tg.fundamental_solution(x, 1.7e308, tg.MediumParams(k=0.0, c=1.9)).tolist() == [
        1.0 / (2 * 1.9)] * 2
    with pytest.raises(tg.DomainError):
        tg.fundamental_solution(x, 1.7e308, tg.MediumParams(k=1.0, c=1.9))
