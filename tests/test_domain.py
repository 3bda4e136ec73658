"""Corner sweep of the library's entry points over extreme media and times.

Every call must return finite values or raise DomainError / UsageError, with
every warning an error.  Default ``convolve_measure`` out grids, whose size
follows the cone radius, are left out: only an address-space limit on a
separate process could bound what they allocate.
"""

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
