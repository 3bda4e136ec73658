"""Phase-space evolution operator and norm-decay reporting.

The solution operator maps (u, u_t) at time 0 to (u, u_t) at time t >= 0;
it satisfies the one-sided semigroup law, identity at t = 0 and
composition across sums of times, up to quadrature error and ``velocity``'s
fourth-order f_xx.  Values within c t + 3dx of a grid end where the state
is nonzero are not meaningful (fields are extended by zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .fields import SampledField, _require_shared_grid, derivative_x, l2_norm
from .kernel import MediumParams
from .solver import _solve_shared, _velocity_data


@dataclass(frozen=True)
class StatePair:
    """A phase-space point: displacement and velocity on one shared grid."""

    u: SampledField
    ut: SampledField

    def __post_init__(self):
        _require_shared_grid(self.u, self.ut)


def evolve(t: float, state: StatePair, medium: MediumParams) -> StatePair:
    """Propagate a state forward by t >= 0: u = ``solve``, u_t = ``velocity``."""
    if t < 0:
        raise UsageError(f"the evolution operator is one-sided; got t = {t}")
    f, g = state.u, state.ut
    return StatePair(*_solve_shared([(f, g), (g, _velocity_data(f, g, medium))], t, medium))


@dataclass(frozen=True)
class NormRow:
    t: float
    u_l2: float
    ut_l2: float
    ux_l2: float
    envelope: float


def norm_report(state0: StatePair, medium: MediumParams, times) -> list[NormRow]:
    """Discrete L2 norms of u, u_t, u_x at each time, plus e^{-kt/2}.

    Times must be nonnegative and ascending.  Norms use the trapezoid
    rule; u_x comes from second-order differences on the grid.

    The e^{-kt/2} column is a reference, not a bound on the norms: it
    bounds only the Fourier modes with |xi| > k/(2c).  Mode xi decays at
    rate k/2 - sqrt(k^2/4 - c^2 xi^2), which tends to 0 as xi -> 0, so
    data with nonzero mass decay diffusively and outlive the envelope.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise UsageError("times must be nonnegative and ascending")
    rows = []
    for t in times:
        state = state0 if t == 0.0 else evolve(t, state0, medium)
        rows.append(NormRow(
            t=t,
            u_l2=l2_norm(state.u),
            ut_l2=l2_norm(state.ut),
            ux_l2=l2_norm(derivative_x(state.u)),
            envelope=math.exp(-0.5 * medium.k * t),
        ))
    return rows
