"""Phase-space evolution operator and norm-decay reporting.

The solution operator maps (u, u_t) at time 0 to (u, u_t) at time t of
either sign; it satisfies the group law, identity at t = 0 and composition
across sums of times, up to quadrature error and ``velocity``'s
fourth-order f_xx.  A step back by |t| amplifies those errors by up to
e^{k|t|}.  Values within c|t| + 3dx of a grid end where the state is
nonzero are not meaningful (fields are extended by zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import SampledField, _require_shared_grid, derivative_x, l2_norm
from .kernel import MediumParams
from .solver import _TIME_CHUNK, _solve_shared, _velocity_data


@dataclass(frozen=True)
class StatePair:
    """A phase-space point: displacement and velocity on one shared grid."""

    u: SampledField
    ut: SampledField

    def __post_init__(self):
        _require_shared_grid(self.u, self.ut)


def _evolved(times, state: StatePair, medium: MediumParams) -> list[StatePair]:
    """``evolve`` of state by each time, all from one stencil build."""
    f, g = state.u, state.ut
    pairs = [(f, g), (g, _velocity_data(f, g, medium))]
    return [StatePair(*fields) for fields in _solve_shared(pairs, times, medium)]


def evolve(t: float, state: StatePair, medium: MediumParams) -> StatePair:
    """Propagate a state by t of either sign: u = ``solve``, u_t = ``velocity``.

    A step back amplifies errors by up to e^{k|t|}; u past float64 raises DomainError."""
    return _evolved([t], state, medium)[0]


@dataclass(frozen=True)
class NormRow:
    t: float
    u_l2: float
    ut_l2: float
    ux_l2: float
    envelope: float


def norm_report(state0: StatePair, medium: MediumParams, times) -> list[NormRow]:
    """Discrete L2 norms of u, u_t, u_x at each time, plus e^{-kt/2}.

    Each time, of either sign, is evolved from state0 on its own, and rows
    come in the order given.  The times go in chunks of ``solver._TIME_CHUNK``
    (32): a chunk's nonzero times share one stencil build, and its states are
    dropped once its rows are formed.  Norms use the trapezoid rule; u_x
    comes from second-order differences on the grid.

    The e^{-kt/2} column is a reference, not a bound on the norms: it
    bounds only the Fourier modes with |xi| > k/(2c).  Mode xi decays at
    rate k/2 - sqrt(k^2/4 - c^2 xi^2), which tends to 0 as xi -> 0, so
    data with nonzero mass decay diffusively and outlive the envelope.
    """
    times = [float(t) for t in times]
    rows = []
    for first in range(0, len(times), _TIME_CHUNK):
        chunk = times[first:first + _TIME_CHUNK]
        live = [t for t in chunk if t != 0.0]
        evolved = iter(_evolved(live, state0, medium) if live else ())
        for t in chunk:
            state = state0 if t == 0.0 else next(evolved)
            rows.append(NormRow(
                t=t,
                u_l2=l2_norm(state.u),
                ut_l2=l2_norm(state.ut),
                ux_l2=l2_norm(derivative_x(state.u)),
                envelope=math.exp(-0.5 * medium.k * t),
            ))
    return rows
