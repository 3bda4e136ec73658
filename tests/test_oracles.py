import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telegraph as tg

from conftest import gaussian


class TestFDConfig:
    def test_cfl_violation_rejected(self, medium):
        grid = tg.SpaceGrid(-1.0, 0.1, 21)
        with pytest.raises(tg.UsageError, match="CFL"):  # c*dt/dx = 1.5
            tg.fd_solve(tg.zeros(grid), tg.zeros(grid), 1.5, medium,
                        tg.FDConfig(dt=0.15, steps=10))

    def test_config_for_hits_final_time(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        cfg = tg.fd_config_for(1.0, grid, medium)
        assert medium.c * cfg.dt / grid.dx <= 0.9 + 1e-12
        assert abs(cfg.steps * cfg.dt - 1.0) < 1e-12

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_final_time_rejected(self, medium, t_final):
        grid = tg.SpaceGrid(-1.0, 0.1, 21)
        with pytest.raises(tg.UsageError):
            tg.fd_config_for(t_final, grid, medium)


class TestFDSolve:
    def test_zero_data(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        cfg = tg.fd_config_for(1.0, grid, medium)
        out = tg.fd_solve(tg.zeros(grid), tg.zeros(grid), 1.0, medium, cfg)
        assert np.all(out.values == 0.0)

    def test_undamped_matches_dalembert(self):
        m = tg.MediumParams(k=0.0, c=1.0)
        grid = tg.SpaceGrid(-8.0, 1.0 / 512, 8193)
        f = gaussian(grid)
        cfg = tg.fd_config_for(1.0, grid, m)
        out = tg.fd_solve(f, tg.zeros(grid), 1.0, m, cfg)
        x = grid.points()
        exact = tg.SampledField(grid, 0.5 * (np.exp(-(x + 1) ** 2)
                                             + np.exp(-(x - 1) ** 2)))
        assert tg.rel_l2_error(out, exact) < 1e-4

    def test_damped_matches_convolution(self, medium, grid_fine):
        f = gaussian(grid_fine)
        g = tg.zeros(grid_fine)
        cfg = tg.fd_config_for(1.0, grid_fine, medium)
        approx = tg.fd_solve(f, g, 1.0, medium, cfg)
        reference = tg.solve(f, g, 1.0, medium)
        assert tg.rel_l2_error(approx, reference) < 1e-3

    def test_second_order_convergence(self, medium):
        errors = {}
        for inv_dx in (128, 256):
            grid = tg.SpaceGrid(-8.0, 1.0 / inv_dx, 16 * inv_dx + 1)
            f = gaussian(grid)
            g = tg.zeros(grid)
            cfg = tg.fd_config_for(1.0, grid, medium)
            approx = tg.fd_solve(f, g, 1.0, medium, cfg)
            errors[inv_dx] = tg.rel_l2_error(approx, tg.solve(f, g, 1.0, medium))
        assert 3.5 <= errors[128] / errors[256] <= 4.5

    def test_no_spurious_second_solution_within_contraction_horizon(self, medium):
        # uniqueness holds on [0, 2/k]: two independently computed solutions
        # stay within their combined discretization budgets everywhere there
        grid = tg.SpaceGrid(-8.0, 1.0 / 256, 4097)
        f = gaussian(grid)
        g = tg.zeros(grid)
        horizon = 2.0 / medium.k
        for t in (0.5, 1.0, 1.5, horizon):
            cfg = tg.fd_config_for(t, grid, medium)
            fd = tg.fd_solve(f, g, t, medium, cfg)
            conv = tg.solve(f, g, t, medium)
            assert np.max(np.abs(fd.values - conv.values)) < 1e-4


def walk_law(p, n_steps):
    """Exact law of the lattice walk over its n_steps + 1 sites, by enumeration."""
    law = np.zeros(n_steps + 1)
    for first in (-1, 1):
        for turns in itertools.product((False, True), repeat=n_steps - 1):
            step = pos = first
            for turn in turns:
                step = -step if turn else step
                pos += step
            law[(pos + n_steps) // 2] += 0.5 * math.prod(1 - p if t else p for t in turns)
    return law


class TestWalkParams:
    def test_undamped_never_flips(self):
        cfg = tg.walk_config_for(tg.MediumParams(k=0.0, c=1.0), 0.01, 1.0, 10, seed=0)
        assert cfg.p == 1.0 and cfg.dx == 0.01

    def test_scaling_example(self):
        cfg = tg.walk_config_for(tg.MediumParams(k=1.0, c=1.0), 0.01, 1.0, 10, seed=0)
        assert abs(cfg.p - 0.995) < 1e-15

    def test_boundary_of_validity(self):
        cfg = tg.walk_config_for(tg.MediumParams(k=2.0, c=1.0), 1.0, 1.0, 10, seed=0)
        assert cfg.p == 0.0 and cfg.dx == 1.0

    def test_out_of_range(self):
        with pytest.raises(tg.UsageError):
            tg.walk_config_for(tg.MediumParams(k=3.0, c=1.0), 1.0, 1.0, 10, seed=0)

    def test_non_finite_step_rejected(self, medium):
        with pytest.raises(tg.UsageError):
            tg.walk_config_for(medium, math.nan, 1.0, 10, seed=0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_final_time_rejected(self, medium, t_final):
        with pytest.raises(tg.UsageError):
            tg.walk_config_for(medium, 1e-3, t_final, 100, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(tg.UsageError):
            tg.WalkConfig(p=0.5, dx=0.1, n_steps=4, n_walkers=10, seed=-1)

    def test_fractional_seed_rejected(self):
        with pytest.raises(tg.UsageError, match="integer"):
            tg.WalkConfig(p=0.5, dx=0.1, n_steps=4, n_walkers=10, seed=1.5)

    @pytest.mark.parametrize("counts", [dict(n_steps=4.5, n_walkers=10),
                                        dict(n_steps=4, n_walkers=10.5)],
                             ids=["n_steps", "n_walkers"])
    def test_fractional_count_rejected(self, counts):
        with pytest.raises(tg.UsageError, match="integer"):
            tg.WalkConfig(p=0.5, dx=0.1, seed=1, **counts)


class TestSimulateWalk:
    @pytest.mark.parametrize("p, n_steps, reach, atoms", [
        (1.0, 25, 2.5, True),    # never flips
        (0.5, 1, 0.1, True),     # no decision to make
        (0.0, 25, 0.1, False),   # flips at every decision
    ], ids=["ballistic", "one-step", "always-flips"])
    def test_degenerate_walks_are_exact(self, p, n_steps, reach, atoms):
        cfg = tg.WalkConfig(p=p, dx=0.1, n_steps=n_steps, n_walkers=500, seed=1)
        meas = tg.simulate_walk(cfg)
        if atoms:
            assert {x for x, _ in meas.atoms} == {-reach, reach}
            assert abs(sum(w for _, w in meas.atoms) - 1.0) < 1e-15
            assert np.all(meas.density.values == 0.0)
        else:
            assert meas.atoms == ()
            mass = meas.density.values * meas.density.grid.dx
            off = ~np.isclose(np.abs(meas.density.grid.points()), reach)
            assert np.all(mass[off] == 0.0) and abs(mass.sum() - 1.0) < 1e-12

    def test_whole_lattice_law(self):
        # p = 0.3, n_steps = 6: about 3.5 flips per walker, so every run
        # length and flip position of the sampler is exercised
        p, n_steps, n_walkers = 0.3, 6, 200_000
        cfg = tg.WalkConfig(p=p, dx=0.1, n_steps=n_steps, n_walkers=n_walkers, seed=4)
        meas = tg.simulate_walk(cfg)
        sim = meas.density.values * meas.density.grid.dx
        for x, w in meas.atoms:
            sim[0 if x < 0 else -1] += w
        tv = 0.5 * float(np.abs(sim - walk_law(p, n_steps)).sum())
        assert tv <= 5 * math.sqrt(sim.size / n_walkers)
        expect = p ** (n_steps - 1)
        sigma = math.sqrt(expect * (1 - expect) / n_walkers)
        assert abs(sum(w for _, w in meas.atoms) - expect) <= 4 * sigma

    def test_deterministic_for_fixed_seed(self, medium):
        cfg = tg.walk_config_for(medium, 0.01, 0.5, 3000, seed=42)
        a = tg.simulate_walk(cfg)
        b = tg.simulate_walk(cfg)
        assert a.atoms == b.atoms
        assert np.array_equal(a.density.values, b.density.values)

    def test_block_layout_does_not_change_the_walker_count(self, medium):
        cfg = tg.walk_config_for(medium, 0.01, 0.5, 10000, seed=5)
        meas = tg.simulate_walk(cfg)
        assert abs(meas.mass_breakdown().total - 1.0) < 1e-12

    def test_never_flip_statistic_over_seeds(self, medium):
        # fraction within 3 sigma of p^(n-1) in at least 18 of 20 seeded runs
        n_walkers = 20000
        hits = 0
        for seed in range(20):
            cfg = tg.walk_config_for(medium, 0.005, 1.0, n_walkers, seed=seed)
            expect = tg.expected_never_flip(cfg)
            sigma = math.sqrt(expect * (1 - expect) / n_walkers)
            meas = tg.simulate_walk(cfg)
            frac = sum(w for _, w in meas.atoms)
            if abs(frac - expect) <= 3 * sigma:
                hits += 1
        assert hits >= 18

    def test_histogram_bins_are_parity_lattice(self, medium):
        cfg = tg.walk_config_for(medium, 0.01, 0.1, 1000, seed=3)
        meas = tg.simulate_walk(cfg)
        g = meas.density.grid
        assert g.n == cfg.n_steps + 1
        assert g.dx == 2 * cfg.dx
        assert g.x0 == -cfg.n_steps * cfg.dx


class TestBinnedTV:
    def test_small_run_agrees_roughly(self, medium):
        cfg = tg.walk_config_for(medium, 2e-3, 1.0, 100_000, seed=11)
        estimate = tg.simulate_walk(cfg)
        ref_grid = tg.SpaceGrid(-1.25, 2.5 / 2048, 2049)
        reference = tg.point_source_solution("delta_position", 1.0, medium, ref_grid)
        assert tg.binned_tv_distance(estimate, reference) < 0.06

    def test_requires_closed_form_reference(self, medium):
        cfg = tg.walk_config_for(medium, 0.01, 0.1, 100, seed=0)
        est = tg.simulate_walk(cfg)
        with pytest.raises(tg.UsageError):
            tg.binned_tv_distance(est, est)


class TestDuhamel:
    def test_zero_data(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        z = tg.zeros(grid)
        assert tg.duhamel_residual(z, z, 1.0, medium,
                                   tg.DuhamelConfig(n_slabs=4)) == 0.0

    def test_undamped_reduces_to_dalembert_identity(self):
        m = tg.MediumParams(k=0.0, c=1.0)
        grid = tg.SpaceGrid(-4.0, 1.0 / 128, 1025)
        f = gaussian(grid, width=0.8)
        g = gaussian(grid, center=0.3, width=0.9)
        assert tg.duhamel_residual(f, g, 1.0, m, tg.DuhamelConfig(n_slabs=4)) < 1e-8

    def test_refinement_decreases_residual(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 128, 1025)
        f = gaussian(grid)
        g = tg.zeros(grid)
        cache = {}
        residuals = [tg.duhamel_residual(f, g, 1.0, medium,
                                         tg.DuhamelConfig(n_slabs=n), cache=cache)
                     for n in (4, 8, 16)]
        floor = 1e-9
        for coarse, fine in zip(residuals, residuals[1:]):
            if coarse < floor:
                break
            assert coarse / fine >= 2.0

    def test_shared_cache_gives_the_same_residual(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        x = grid.points()
        f = tg.SampledField(grid, 1.0 + 0.5 * np.cos(x))
        g = gaussian(grid, center=0.3, width=0.9)
        cache = {}
        for n in (4, 8, 16):
            cfg = tg.DuhamelConfig(n_slabs=n)
            assert (tg.duhamel_residual(f, g, 1.0, medium, cfg, cache)
                    == tg.duhamel_residual(f, g, 1.0, medium, cfg))

    def test_cache_refuses_other_inputs(self):
        # a cache filled for f1 once gave f1's residual 3.02e-6 for f2 (6.05e-6)
        m = tg.MediumParams(k=1.5, c=1.0)
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        f1, f2 = gaussian(grid), gaussian(grid, center=0.3, amp=2.0)
        g = tg.zeros(grid)
        cfg = tg.DuhamelConfig(n_slabs=8)
        cache = {}
        r1 = tg.duhamel_residual(f1, g, 1.0, m, cfg, cache)
        assert tg.duhamel_residual(f1, g, 1.0, m, cfg, cache) == r1
        for args in ((f2, g, 1.0, m), (f1, tg.zeros(grid), 1.0, m),
                     (f1, g, 0.5, m), (f1, g, 1.0, tg.MediumParams(k=1.0, c=1.0))):
            with pytest.raises(tg.UsageError, match="cache"):
                tg.duhamel_residual(*args, cfg, cache)
        assert tg.duhamel_residual(f2, g, 1.0, m, cfg) > 1.5 * r1

    def test_cone_must_fit(self, medium):
        grid = tg.SpaceGrid(-0.4, 0.01, 81)
        f = gaussian(grid, width=0.1)
        with pytest.raises(tg.UsageError):
            tg.duhamel_residual(f, tg.zeros(grid), 1.0, medium)

    def test_needs_positive_time(self, medium):
        grid = tg.SpaceGrid(-4.0, 1.0 / 64, 513)
        z = tg.zeros(grid)
        with pytest.raises(tg.UsageError):
            tg.duhamel_residual(z, z, 0.0, medium)


class TestValidationReport:
    @given(value=st.floats(min_value=0, max_value=10),
           tol=st.floats(min_value=0, max_value=10))
    def test_pass_iff_within_tolerance(self, value, tol):
        report = tg.ValidationReport("x", "max_abs", value, tol)
        assert report.passed == (value <= tol)

    def test_unknown_metric_rejected(self):
        with pytest.raises(tg.UsageError):
            tg.ValidationReport("x", "chebyshev", 0.0, 1.0)


class TestRelL2:
    def test_zero_reference_returns_absolute(self, grid_coarse):
        a = tg.SampledField(grid_coarse, np.full(grid_coarse.n, 2.0))
        z = tg.zeros(grid_coarse)
        assert tg.rel_l2_error(a, z) == math.sqrt(4.0 * grid_coarse.n)

    def test_window_restriction(self, grid_coarse):
        x = grid_coarse.points()
        a = tg.SampledField(grid_coarse, np.where(np.abs(x) > 2, 5.0, 1.0))
        b = tg.SampledField(grid_coarse, np.ones(grid_coarse.n))
        assert tg.rel_l2_error(a, b, window=(-1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("window", [(2.0, -2.0), (100.0, 101.0)])
    def test_empty_window_rejected(self, grid_coarse, window):
        a = tg.SampledField(grid_coarse, np.ones(grid_coarse.n))
        with pytest.raises(tg.UsageError, match="window"):
            tg.rel_l2_error(a, a, window=window)
