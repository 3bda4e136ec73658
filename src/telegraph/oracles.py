"""Verification engines for the convolution solver.

Three routes besides the closed-form path; the first two share no code
with it, the Duhamel residual calls ``solve_rescaled`` and the solver's
cone stencils:

* an explicit second-order leapfrog discretization of the damped wave
  equation (CFL-limited, zero-Dirichlet ends, causally isolated);
* a persistent random walk on a lattice -- repeat the previous move with
  probability p = 1 - k dt/2, step dx = c dt -- whose law converges to the
  point-mass solution, never-flipped walkers forming the cone atoms;
* the Duhamel fixed-point identity of the transformed equation, whose
  residual vanishes on the true solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import UsageError
from .fields import MixedMeasure, SampledField, SpaceGrid, _require_shared_grid
from .kernel import MediumParams
from .quadrature import integrate_bins, simpson_pattern
from .solver import _cone_stencils, _rescaled_values, solve_rescaled

#: Walkers per RNG block; each block draws from its own Philox stream
#: derived from (seed, block index), so results are reproducible and
#: independent of how blocks are scheduled.
WALK_BLOCK = 8192

#: Leapfrog Courant number c dt/dx that ``fd_config_for`` steps at or below.
FD_COURANT = 0.9


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDConfig:
    """Explicit-scheme configuration: steps leapfrog steps of size dt."""

    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise UsageError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")


def fd_config_for(t_final: float, grid: SpaceGrid, medium: MediumParams) -> FDConfig:
    """Fewest equal steps reaching t_final with Courant number at most FD_COURANT."""
    if not (math.isfinite(t_final) and t_final > 0):
        raise UsageError(f"t_final must be positive and finite, got {t_final}")
    dt_target = FD_COURANT * grid.dx / medium.c
    steps = max(1, math.ceil(t_final / dt_target - 1e-12))
    dt = t_final / steps
    return FDConfig(dt=dt, steps=steps)


def fd_solve(f: SampledField, g: SampledField, t_final: float,
             medium: MediumParams, cfg: FDConfig) -> SampledField:
    """Leapfrog solution of u_tt + k u_t = c^2 u_xx at time steps*dt.

    Update: (u+ - 2u + u-)/dt^2 + k (u+ - u-)/(2 dt) = c^2 D_xx u, solved
    for u+; first step from the Taylor expansion
    u1 = u0 + dt g + (dt^2/2)(c^2 D_xx u0 - k g).  Grid ends are held at
    zero; callers must keep the comparison window causally isolated from
    them.  The Courant number c*dt/dx must not exceed 1.
    """
    grid = _require_shared_grid(f, g)
    courant = medium.c * cfg.dt / grid.dx
    if courant > 1.0 + 1e-12:
        raise UsageError(f"CFL violation: courant number {courant} exceeds 1")
    if abs(cfg.steps * cfg.dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise UsageError("FDConfig steps*dt does not reach t_final")
    dt = cfg.dt
    dx2 = grid.dx * grid.dx
    c2 = medium.c ** 2
    k = medium.k

    def lap(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx2
        return out

    u_prev = f.values.copy()
    u_prev[0] = u_prev[-1] = 0.0
    u = u_prev + dt * g.values + 0.5 * dt * dt * (c2 * lap(u_prev) - k * g.values)
    u[0] = u[-1] = 0.0
    a_plus = 1.0 + 0.5 * k * dt
    a_minus = 1.0 - 0.5 * k * dt
    for _ in range(cfg.steps - 1):
        u_next = (dt * dt * c2 * lap(u) + 2.0 * u - a_minus * u_prev) / a_plus
        u_next[0] = u_next[-1] = 0.0
        u_prev, u = u, u_next
    return SampledField(grid, u)


# ---------------------------------------------------------------------------
# persistent random walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkConfig:
    """Lattice walk: repeat the previous move with probability p.

    The first move is up or down by a fair coin; repeat-or-flip decisions
    happen on the remaining n_steps - 1 moves, so a walker never flips with
    probability p^(n_steps - 1).
    """

    p: float
    dx: float
    n_steps: int
    n_walkers: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise UsageError(f"repeat probability must lie in [0,1], got {self.p}")
        if self.dx <= 0:
            raise UsageError("dx must be positive")
        counts = (self.n_steps, self.n_walkers)
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in counts):
            raise UsageError(f"step and walker counts must be integers >= 1, got {counts}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise UsageError(f"seed must be a nonnegative integer, got {self.seed!r}")


def walk_config_for(medium: MediumParams, dt: float, t_final: float,
                    n_walkers: int, seed: int) -> WalkConfig:
    """Continuum-matched walk reaching t_final: p = 1 - k dt/2, dx = c dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"dt must be positive and finite, got {dt}")
    if medium.k * dt > 2.0:
        raise UsageError(
            f"k*dt = {medium.k * dt} > 2 puts the repeat probability below 0")
    n_steps = round(t_final / dt) if math.isfinite(t_final) else 0
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final) or n_steps < 1:
        raise UsageError(f"t_final = {t_final} is not a positive multiple of dt = {dt}")
    return WalkConfig(p=1.0 - 0.5 * medium.k * dt, dx=medium.c * dt,
                      n_steps=n_steps, n_walkers=n_walkers, seed=seed)


def expected_never_flip(cfg: WalkConfig) -> float:
    """Exact probability that a walker never reverses: p^(n_steps-1)."""
    return cfg.p ** (cfg.n_steps - 1)


def simulate_walk(cfg: WalkConfig) -> MixedMeasure:
    """Empirical law of the walk after n_steps, as a mixed measure.

    Each walker starts as if it never flips (position +-n) and is then
    moved by whole runs: the gaps between its flips are geometric with
    success probability 1 - p, and a flip at decision j reverses the
    n - j moves after it.  The cost is about walkers x (1 + expected
    flips).

    Flipped walkers populate a histogram over the parity-matched lattice
    sites (bin width 2 dx); never-flipped walkers are tallied separately
    as atom masses at -+ n dx.  Deterministic for a fixed seed: block b
    always covers walkers [b*WALK_BLOCK, (b+1)*WALK_BLOCK) and draws their
    first moves, then their flip gaps, from stream
    Philox(SeedSequence(seed, spawn_key=(b,))).  WALK_BLOCK is part of
    this seed contract: another block size gives another sample.
    """
    n = cfg.n_steps
    total = cfg.n_walkers
    q = 1.0 - cfg.p
    counts = np.zeros(n + 1, dtype=np.int64)
    never_up = 0
    never_down = 0
    done = 0
    block = 0
    while done < total:
        w = min(WALK_BLOCK, total - done)
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block,))
        rng = np.random.Generator(np.random.Philox(seed=ss))
        first = rng.integers(0, 2, size=w, dtype=np.int64) * 2 - 1
        pos = n * first
        # walkers that may still flip, their direction and decisions used;
        # p = 1 never flips and geometric(0) is undefined
        live = np.arange(w if q > 0.0 else 0)
        sign, at = first[live], np.zeros(live.size, dtype=np.int64)
        while live.size:
            gap = rng.geometric(q, size=live.size)
            turned = gap < n - at
            live, at, sign = live[turned], at[turned] + gap[turned], sign[turned]
            pos[live] -= 2 * sign * (n - at)
            sign = -sign
        never_up += int(np.count_nonzero(pos == n))
        never_down += int(np.count_nonzero(pos == -n))
        moved = np.abs(pos) < n
        counts += np.bincount((pos[moved] + n) // 2, minlength=n + 1)
        done += w
        block += 1

    lattice = SpaceGrid(x0=-n * cfg.dx, dx=2.0 * cfg.dx, n=n + 1)
    density = SampledField(lattice, counts / (total * 2.0 * cfg.dx))
    atoms = []
    if never_down:
        atoms.append((-n * cfg.dx, never_down / total))
    if never_up:
        atoms.append((n * cfg.dx, never_up / total))
    return MixedMeasure(
        atoms=tuple(atoms),
        density=density,
        support=(-n * cfg.dx, n * cfg.dx),
        probabilistic=True,
    )


def binned_tv_distance(estimate: MixedMeasure, reference: MixedMeasure) -> float:
    """Total-variation distance on the estimate's lattice bins.

    Bins are the histogram sites (width = lattice grid spacing); the
    reference density is integrated over each bin with per-bin Simpson,
    and atoms on either side are assigned to the bin containing them.
    """
    if estimate.density is None:
        raise UsageError("estimate must carry a lattice histogram")
    if reference.density_fn is None:
        raise UsageError("reference must carry a closed-form density")
    grid = estimate.density.grid
    centers = grid.points()
    half = 0.5 * grid.dx
    edges = np.concatenate([centers - half, [centers[-1] + half]])

    p = estimate.density.values * grid.dx
    for pos, wgt in estimate.atoms:
        p[_bin_index(edges, pos)] += wgt

    lo = np.clip(edges[:-1], reference.support[0], reference.support[1])
    hi = np.clip(edges[1:], reference.support[0], reference.support[1])
    q = integrate_bins(reference.density_fn, lo, hi)
    for pos, wgt in reference.atoms:
        q[_bin_index(edges, pos)] += wgt

    # reference mass the bins fail to cover counts fully toward the distance
    uncovered = reference.mass_breakdown().total - float(q.sum())
    return 0.5 * (float(np.abs(p - q).sum()) + abs(uncovered))


def _bin_index(edges: np.ndarray, pos: float) -> int:
    idx = int(np.searchsorted(edges, pos, side="right")) - 1
    return min(max(idx, 0), len(edges) - 2)


# ---------------------------------------------------------------------------
# Duhamel fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DuhamelConfig:
    """Nested-quadrature resolution for the fixed-point residual."""

    n_slabs: int = 32

    def __post_init__(self):
        if self.n_slabs < 2 or self.n_slabs % 2:
            raise UsageError(f"n_slabs must be even and >= 2, got {self.n_slabs}")


def duhamel_residual(f: SampledField, g: SampledField, t: float,
                     medium: MediumParams, cfg: DuhamelConfig = DuhamelConfig(),
                     cache: Optional[dict] = None) -> float:
    """Max-abs residual of the transformed equation's fixed-point identity.

    The growth-compensated field v solves v_tt = c^2 v_xx + (k^2/4) v, so
    with K0 the free-wave (k = 0) kernel, 1/(2c) on the cone, it satisfies

        v(t) = K0_t * f + K0 * (g + (k/2) f) + (k^2/4) int_0^t K0(t-s) * v(s) ds,

    the K0_t term being the d'Alembert mean [f(x+ct) + f(x-ct)]/2.  Both
    terms use the solver's cone stencils on MediumParams(k=0, c), so the
    difference from ``solve_rescaled`` (v at the slab times is the solver's
    own) measures self-consistency; at k = 0 it is 0 by construction.
    Evaluated at every grid point whose full dependency cone fits inside
    the grid.  One dict passed as ``cache`` to the levels
    of a refinement keeps their solves and windows, keyed by slab
    times rounded to 14 digits; the value is bitwise the same with or
    without it.  The first call binds the dict to its (f, g, t, medium), and
    a later call with other ones (f and g by identity) raises UsageError.
    """
    grid = _require_shared_grid(f, g)
    if t <= 0:
        raise UsageError(f"fixed-point residual needs t > 0, got {t}")
    ct = medium.c * t
    x = grid.points()
    valid = (x - ct >= grid.x0 - 1e-12 * grid.dx) & (x + ct <= grid.x_end + 1e-12 * grid.dx)
    if not valid.any():
        raise UsageError("dependency cone exceeds the grid at every point")

    cache = {} if cache is None else cache  # no key repeats within one call
    bf, bg, bt, bm = cache.setdefault("inputs", (f, g, t, medium))
    if not (bf is f and bg is g and bt == t and bm == medium):
        raise UsageError("cache holds the residual of other data, time or medium")

    def cached(key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def v_at(s: float) -> SampledField:
        return cached(("v", round(s, 14)), lambda: solve_rescaled(f, g, s, medium))

    lhs = v_at(t).values
    free = MediumParams(k=0.0, c=medium.c)
    geff = SampledField(grid, g.values + 0.5 * medium.k * f.values)
    rhs = cached("data", lambda: _rescaled_values([(f, geff)], t, free)[0])

    ds = t / cfg.n_slabs
    outer = simpson_pattern(cfg.n_slabs) * (ds / 3.0)
    source = np.zeros(grid.n)
    for m in range(cfg.n_slabs):  # the s = t node has a collapsed window
        s = m * ds
        source += outer[m] * cached(("window", round(s, 14)), lambda: _cone_stencils(
            grid, t - s, free, ("kernel",))(v_at(s).values))
    rhs = rhs + (medium.k ** 2 / 4.0) * source

    return float(np.max(np.abs(lhs[valid] - rhs[valid])))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

METRICS = ("rel_L2", "TV_distance", "max_abs", "atom_error")


@dataclass(frozen=True)
class ValidationReport:
    """One named check: passes iff value <= tolerance."""

    name: str
    metric: str
    value: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise UsageError(f"metric must be one of {METRICS}, got {self.metric!r}")
        object.__setattr__(self, "passed", bool(self.value <= self.tolerance))


def rel_l2_error(approx: SampledField, reference: SampledField,
                 window: Optional[tuple[float, float]] = None) -> float:
    """Relative L2 error, optionally restricted to a window holding a grid point."""
    _require_shared_grid(approx, reference)
    a = approx.values
    r = reference.values
    if window is not None:
        x = approx.x
        mask = (x >= window[0]) & (x <= window[1])
        if not mask.any():
            raise UsageError(f"comparison window {tuple(window)} holds no grid point")
        a = a[mask]
        r = r[mask]
    denom = math.sqrt(float(np.sum(r * r)))
    if denom == 0.0:
        return math.sqrt(float(np.sum(a * a)))
    return math.sqrt(float(np.sum((a - r) ** 2))) / denom
