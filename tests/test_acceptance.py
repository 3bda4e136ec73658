"""Acceptance checklist for the package.

One test per criterion, each printing a PASS/FAIL line with the measured
numbers, so `pytest tests/test_acceptance.py -v -s` reads as a report.

Criterion 10 (norm decay) compares the L2 norms of u, u_t and u_x with
the exact Fourier-multiplier values from tests/_fourier_oracle.py.  Damped
waves decay diffusively (the L2 norm of mass-carrying data falls like
t^{-1/4}), not like e^{-kt/2}: the ratio ||u(t)||/e^{-kt/2} grows about 21x
from t = 0.5 to t = 4 at k = 2, and the oracle reproduces that growth.  The
envelopes the criterion asserts are the ones the equation does promise:
non-increasing energy, and ||u(t)|| <= ||u(0)|| for zero initial velocity.
"""

import math
import time

import numpy as np

import telegraph as tg

from _fourier_oracle import gaussian_norms
from _series_oracle import i0_series_reference, i1_series_reference


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def gaussian(grid):
    return tg.from_function(grid, lambda x: np.exp(-x * x))


def grid_over(half: float, inv_dx: int) -> tg.SpaceGrid:
    return tg.SpaceGrid(-half, 1.0 / inv_dx, int(2 * half * inv_dx) + 1)


def test_criterion_1_bessel_accuracy():
    start = time.perf_counter()
    zs = np.logspace(-8.0, math.log10(50.0), 1000)
    worst = 0.0
    for z in zs:
        z = float(z)
        ref0 = i0_series_reference(z)
        ref1 = i1_series_reference(z)
        worst = max(worst,
                    abs(tg.i0(z) - ref0) / max(1.0, abs(ref0)),
                    abs(tg.i1(z) - ref1) / max(1.0, abs(ref1)))
    accuracy_ok = worst <= 1e-12

    ode_worst = 0.0
    h = 1e-4
    for z in (0.5, 1.0, 2.0, 5.0, 10.0):
        second = (tg.i1(z + h) - tg.i1(z - h)) / (2.0 * h)
        resid = abs(z * z * second + z * tg.i1(z) - z * z * tg.i0(z))
        ode_worst = max(ode_worst, resid / (z * z * tg.i0(z)))
    ode_ok = ode_worst < 1e-6

    elapsed = time.perf_counter() - start
    ok = accuracy_ok and ode_ok and elapsed < 1.0
    assert report("criterion 1 (bessel accuracy)", ok,
                  f"worst scaled dev {worst:.2e} (tol 1e-12), "
                  f"ODE residual {ode_worst:.2e} (tol 1e-6), {elapsed:.2f}s < 1s")


def test_criterion_2_kernel_point_values():
    start = time.perf_counter()
    m = tg.MediumParams(k=4.0, c=1.0)
    center_dev = abs(tg.fundamental_solution(0.0, 1.0, m)
                     - i0_series_reference(2.0) / 2.0)
    center_ok = center_dev <= 1e-12

    boundary_ok = True
    for (c, t) in ((1.0, 1.0), (2.0, 0.25), (0.5, 3.0)):
        mm = tg.MediumParams(k=1.3, c=c)
        for sgn in (1.0, -1.0):
            x = c * t
            val = tg.fundamental_solution(x, sgn * t, mm)
            boundary_ok &= (val == sgn / (2.0 * c))

    rng = np.random.default_rng(42)
    mm = tg.MediumParams(k=1.7, c=0.8)
    sym_ok = True
    for t in rng.uniform(-2.0, 2.0, size=100):
        xs = rng.uniform(-3.0, 3.0, size=100)
        plus = tg.fundamental_solution(xs, t, mm)
        sym_ok &= np.array_equal(tg.fundamental_solution(xs, -t, mm), -plus)
        sym_ok &= np.array_equal(tg.fundamental_solution(-xs, t, mm), plus)

    elapsed = time.perf_counter() - start
    ok = center_ok and boundary_ok and sym_ok and elapsed < 1.0
    assert report("criterion 2 (kernel point values)", ok,
                  f"center dev {center_dev:.2e} (tol 1e-12), boundary "
                  f"{'exact' if boundary_ok else 'WRONG'}, symmetries on 1e4 "
                  f"samples {'exact' if sym_ok else 'WRONG'}, {elapsed:.2f}s < 1s")


def test_criterion_3_dalembert_reduction():
    start = time.perf_counter()
    m = tg.MediumParams(k=0.0, c=1.0)
    grid = grid_over(8.0, 256)
    f = gaussian(grid)
    g = gaussian(grid)
    u = tg.solve(f, g, 1.0, m)
    x = grid.points()
    travel = 0.5 * (np.exp(-(x + 1.0) ** 2) + np.exp(-(x - 1.0) ** 2))
    integral = np.array([0.25 * math.sqrt(math.pi)
                         * (math.erf(xi + 1.0) - math.erf(xi - 1.0)) for xi in x])
    dev = float(np.max(np.abs(u.values - (travel + integral))))
    elapsed = time.perf_counter() - start
    ok = dev < 1e-8 and elapsed < 5.0
    assert report("criterion 3 (d'Alembert reduction)", ok,
                  f"max-abs dev {dev:.2e} (tol 1e-8), {elapsed:.2f}s < 5s")


def test_criterion_4_fd_cross_oracle():
    start = time.perf_counter()
    m = tg.MediumParams(k=1.0, c=1.0)
    errors = {}
    for inv_dx in (512, 1024):
        grid = grid_over(8.0, inv_dx)
        f = gaussian(grid)
        g = tg.zeros(grid)
        cfg = tg.fd_config_for(1.0, grid, m)
        approx = tg.fd_solve(f, g, 1.0, m, cfg)
        errors[inv_dx] = tg.rel_l2_error(approx, tg.solve(f, g, 1.0, m))
    ratio = errors[512] / errors[1024]
    elapsed = time.perf_counter() - start
    ok = errors[512] < 1e-3 and 3.5 <= ratio <= 4.5 and elapsed < 30.0
    assert report("criterion 4 (FD cross-oracle)", ok,
                  f"rel-L2 {errors[512]:.2e} (tol 1e-3), halving ratio "
                  f"{ratio:.2f} in [3.5, 4.5], {elapsed:.1f}s < 30s")


def test_criterion_5_mass_conservation():
    start = time.perf_counter()
    ok = True
    details = []
    for (k, c, t) in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.5), (0.5, 2.0, 2.0)):
        m = tg.MediumParams(k=k, c=c)
        ct = c * t
        grid = tg.SpaceGrid(-1.2 * ct, 2.4 * ct / 2048, 2049)
        for kind in ("delta_position", "financial"):
            measure = tg.point_source_solution(kind, t, m, grid)
            mass_dev = abs(measure.mass_breakdown().total - 1.0)
            ok &= mass_dev < 1e-6
            if kind == "financial":
                atom_dev = abs(measure.atoms[0][1] - math.exp(-0.5 * k * t))
                ok &= atom_dev <= 1e-15
            details.append(f"{kind[:3]}(k={k},c={c},t={t}):{mass_dev:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert report("criterion 5 (mass conservation)", ok,
                  f"|mass-1| {{{', '.join(details)}}} (tol 1e-6), "
                  f"financial atoms exact, {elapsed:.1f}s < 10s")


def test_criterion_6_monte_carlo_lattice_limit():
    start = time.perf_counter()
    m = tg.MediumParams(k=1.0, c=1.0)
    cfg = tg.walk_config_for(m, 1e-3, 1.0, 1_000_000, seed=20260810)
    estimate = tg.simulate_walk(cfg)
    ref_grid = tg.SpaceGrid(-1.25, 2.5 / 4096, 4097)
    reference = tg.point_source_solution("delta_position", 1.0, m, ref_grid)
    tv = tg.binned_tv_distance(estimate, reference)

    frac = sum(w for _, w in estimate.atoms)
    center = cfg.p ** 1000
    sigma = math.sqrt(center * (1.0 - center) / cfg.n_walkers)
    flip_dev = abs(frac - center)

    elapsed = time.perf_counter() - start
    ok = tv < 0.02 and flip_dev <= 3 * sigma and elapsed < 120.0
    assert report("criterion 6 (Monte Carlo lattice limit)", ok,
                  f"TV {tv:.4f} (tol 0.02), never-flip dev {flip_dev:.1e} "
                  f"<= 3 sigma {3 * sigma:.1e}, {elapsed:.0f}s < 120s")


def test_criterion_7_semigroup_law():
    start = time.perf_counter()
    m = tg.MediumParams(k=1.0, c=1.0)
    grid = grid_over(8.0, 512)
    state = tg.StatePair(gaussian(grid), tg.zeros(grid))
    whole = tg.evolve(2.0, state, m)
    composed = tg.evolve(1.0, tg.evolve(1.0, state, m), m)
    window = (grid.x0 + 2.0, grid.x_end - 2.0)
    err_u = tg.rel_l2_error(composed.u, whole.u, window)
    err_ut = tg.rel_l2_error(composed.ut, whole.ut, window)
    elapsed = time.perf_counter() - start
    ok = err_u < 1e-5 and err_ut < 1e-5 and elapsed < 60.0
    assert report("criterion 7 (semigroup law)", ok,
                  f"rel-L2 u {err_u:.2e}, ut {err_ut:.2e} (tol 1e-5), "
                  f"{elapsed:.0f}s < 60s")


def test_criterion_8_time_reversal():
    start = time.perf_counter()
    m = tg.MediumParams(k=1.0, c=1.0)
    k = m.k
    grid = grid_over(8.0, 512)
    f = gaussian(grid)
    g = tg.zeros(grid)
    v1 = tg.solve_rescaled(f, g, 1.0, m)
    w1 = math.exp(0.5 * k) * (0.5 * k * tg.solve(f, g, 1.0, m).values
                              + tg.velocity(f, g, 1.0, m).values)
    f_back = v1
    g_back = tg.SampledField(grid, -w1 - 0.5 * k * v1.values)
    v2 = tg.solve_rescaled(f_back, g_back, 1.0, m)
    w2 = math.exp(0.5 * k) * (0.5 * k * tg.solve(f_back, g_back, 1.0, m).values
                              + tg.velocity(f_back, g_back, 1.0, m).values)
    geff = g.values + 0.5 * k * f.values

    def rel(a, b):
        return (math.sqrt(float(np.sum((a - b) ** 2)))
                / math.sqrt(float(np.sum(b ** 2))))

    err_f = rel(v2.values, f.values)
    err_g = rel(-w2, geff)
    elapsed = time.perf_counter() - start
    ok = err_f < 1e-5 and err_g < 1e-5 and elapsed < 60.0
    assert report("criterion 8 (time reversal)", ok,
                  f"rel-L2 displacement {err_f:.2e}, slope {err_g:.2e} "
                  f"(tol 1e-5), {elapsed:.0f}s < 60s")


def test_criterion_9_duhamel_fixed_point():
    start = time.perf_counter()
    m = tg.MediumParams(k=1.0, c=1.0)
    grid = grid_over(6.0, 256)
    f = gaussian(grid)
    g = tg.zeros(grid)
    cache = {}
    residuals = {n: tg.duhamel_residual(f, g, 1.0, m,
                                        tg.DuhamelConfig(n_slabs=n), cache=cache)
                 for n in (8, 16, 32)}
    monotone = True
    floor = 1e-9
    for coarse, fine in ((residuals[8], residuals[16]),
                         (residuals[16], residuals[32])):
        if coarse >= floor:
            monotone &= (coarse / fine >= 2.0)
    elapsed = time.perf_counter() - start
    ok = residuals[32] < 1e-4 and monotone and elapsed < 120.0
    assert report("criterion 9 (Duhamel fixed point)", ok,
                  f"residual@32 {residuals[32]:.2e} (tol 1e-4), refinement "
                  f"{residuals[8]:.1e}->{residuals[16]:.1e}->{residuals[32]:.1e} "
                  f"monotone {monotone}, {elapsed:.0f}s < 120s")


def test_criterion_10_decay_envelope():
    # The e^{-kt/2} envelope bounds only the modes with |xi| > k/(2c); the
    # low modes decay at k/2 - sqrt(k^2/4 - c^2 xi^2) -> 0, so the ratios
    # against it grow without bound.  The criterion therefore checks every
    # norm against the exact Fourier-multiplier values, plus the two
    # envelopes the equation does promise for g = 0: the energy
    # ||u_t||^2 + c^2 ||u_x||^2 never increases, and ||u(t)|| <= ||u(0)||.
    grid = grid_over(12.0, 256)
    state = tg.StatePair(gaussian(grid), tg.zeros(grid))
    times = (0.5, 1.0, 2.0, 4.0)
    ok = True
    worst = 0.0
    details = []
    for k in (1.0, 2.0):
        m = tg.MediumParams(k=k, c=1.0)
        initial = tg.norm_report(state, m, (0.0,))[0]
        rows = tg.norm_report(state, m, times)
        measured = [(r.u_l2, r.ut_l2, r.ux_l2) for r in rows]
        exact = [gaussian_norms(t, k, m.c, grid.dx) for t in times]
        for got, want in zip(np.ravel(measured), np.ravel(exact)):
            worst = max(worst, abs(got - want) / want)
        energies = [r.ut_l2 ** 2 + m.c ** 2 * r.ux_l2 ** 2
                    for r in [initial] + rows]
        ok &= all(b <= a for a, b in zip(energies, energies[1:]))
        ok &= all(r.u_l2 <= initial.u_l2 for r in rows)
        envelope = np.array([[r.envelope] for r in rows])
        growth = [np.max(ratios, axis=0) / ratios[0]
                  for ratios in (np.array(measured) / envelope,
                                 np.array(exact) / envelope)]
        details += [f"k={k} {label}:{got:.2f}x/{want:.2f}x"
                    for label, got, want in zip(("u", "ut", "ux"), *growth)]
    ok &= worst <= 1e-6
    assert report("criterion 10 (decay envelope)", ok,
                  f"worst rel dev from Fourier oracle {worst:.1e} (tol 1e-6) "
                  f"over 24 norms, energy and ||u|| non-increasing, "
                  f"growth against e^(-kt/2) measured/exact "
                  f"{{{', '.join(details)}}}")
