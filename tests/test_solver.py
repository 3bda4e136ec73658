import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telegraph as tg
from telegraph import fields, kernel, oracles, solver
from telegraph.bessel import i0_array, i1_over_z_array
from telegraph.quadrature import panel_count, simpson_nodes_weights, simpson_pattern

from _fourier_oracle import gaussian_field, gaussian_velocity
from conftest import gaussian


class TestSolveBasics:
    def test_zero_data_stays_zero(self, medium, grid_coarse):
        z = tg.zeros(grid_coarse)
        for t in (0.0, 0.4, 1.0, -0.7):
            assert np.all(tg.solve(z, z, t, medium).values == 0.0)

    def test_mismatched_grids_rejected(self, medium, grid_coarse):
        other = tg.SpaceGrid(-4.0, 1.0 / 32, 257)
        with pytest.raises(tg.UsageError):
            tg.solve(tg.zeros(grid_coarse), tg.zeros(other), 1.0, medium)

    def test_nonfinite_time_rejected(self, medium, grid_coarse):
        z = tg.zeros(grid_coarse)
        with pytest.raises(tg.DomainError):
            tg.solve(z, z, math.nan, medium)

    def test_undamped_is_dalembert_average(self, grid_coarse):
        # k = 0 kills both integral terms: pure traveling averages
        m = tg.MediumParams(k=0.0, c=1.0)
        f = gaussian(grid_coarse)
        u = tg.solve(f, tg.zeros(grid_coarse), 1.0, m)
        x = grid_coarse.points()
        expected = 0.5 * (np.exp(-(x + 1.0) ** 2) + np.exp(-(x - 1.0) ** 2))
        inside = np.abs(x) <= 3.0  # away from the zero-extension boundary
        assert np.max(np.abs(u.values[inside] - expected[inside])) < 1e-12

    def test_undamped_velocity_integral(self, grid_coarse):
        # k = 0 with g only: u = (1/2c) int_{x-ct}^{x+ct} g, known via erf
        m = tg.MediumParams(k=0.0, c=1.0)
        g = gaussian(grid_coarse)
        u = tg.solve(tg.zeros(grid_coarse), g, 1.0, m)
        x = grid_coarse.points()
        from math import erf
        expected = np.array([0.25 * math.sqrt(math.pi)
                             * (erf(xi + 1.0) - erf(xi - 1.0)) for xi in x])
        inside = np.abs(x) <= 2.5
        assert np.max(np.abs(u.values[inside] - expected[inside])) < 1e-8

    @pytest.mark.parametrize("t", [1e155, -1e155])
    def test_undamped_past_the_squared_time_range(self, t):
        # t^2 is past float64, which k = 0 never needs; d'Alembert's shifts of
        # -+1e155 leave the grid of half-width 1e152, so u = 0
        grid = tg.SpaceGrid(-1e152, 1e150, 201)
        f = tg.SampledField(grid, np.exp(-(grid.points() / 1e151) ** 2))
        u = tg.solve(f, tg.zeros(grid), t, tg.MediumParams(k=0.0, c=1.0))
        assert np.all(u.values == 0.0)

    def test_error_estimate_reported(self, medium, grid_coarse):
        f = gaussian(grid_coarse)
        u, err = tg.solve(f, tg.zeros(grid_coarse), 0.8, medium,
                          error_estimate=True)
        assert err >= 0.0
        assert err < 1e-8


class TestRescaledForm:
    def test_identity_at_t0(self, medium, grid_coarse):
        f = gaussian(grid_coarse)
        v = tg.solve_rescaled(f, tg.zeros(grid_coarse), 0.0, medium)
        assert np.array_equal(v.values, f.values)

    def test_undamped_equals_plain_solve(self, grid_coarse):
        m = tg.MediumParams(k=0.0, c=1.0)
        f = gaussian(grid_coarse)
        g = gaussian(grid_coarse, center=0.4, width=0.8)
        assert np.array_equal(tg.solve_rescaled(f, g, 0.9, m).values,
                              tg.solve(f, g, 0.9, m).values)

    def test_exponential_relation(self, medium, grid_coarse):
        f = gaussian(grid_coarse)
        g = tg.zeros(grid_coarse)
        for t in (0.25, 1.0):
            u = tg.solve(f, g, t, medium).values
            v = tg.solve_rescaled(f, g, t, medium).values
            scale = math.exp(0.5 * medium.k * t)
            keep = np.abs(v) > 1e-13
            assert np.max(np.abs(scale * u - v)[keep]
                          / np.abs(v[keep])) < 1e-12

    def test_forward_backward_reversal(self, medium):
        # evolve the growth-compensated field, flip its velocity, evolve
        # again: recovers the transformed data (f, g + (k/2) f).  The grid
        # is wide enough that the data vanishes at the edges to machine
        # precision (zero extension would otherwise pollute the hops).
        grid = tg.SpaceGrid(-7.0, 1.0 / 64, 897)
        f = gaussian(grid)
        g = tg.zeros(grid)
        k = medium.k
        v1 = tg.solve_rescaled(f, g, 1.0, medium)
        u1 = tg.solve(f, g, 1.0, medium)
        ut1 = tg.velocity(f, g, 1.0, medium)
        w1 = math.exp(0.5 * k) * (0.5 * k * u1.values + ut1.values)
        f_back = v1
        g_back = tg.SampledField(grid, -w1 - 0.5 * k * v1.values)
        v2 = tg.solve_rescaled(f_back, g_back, 1.0, medium)
        u2 = tg.solve(f_back, g_back, 1.0, medium)
        ut2 = tg.velocity(f_back, g_back, 1.0, medium)
        w2 = math.exp(0.5 * k) * (0.5 * k * u2.values + ut2.values)
        geff = g.values + 0.5 * k * f.values
        def rel(a, b):
            return (math.sqrt(float(np.sum((a - b) ** 2)))
                    / math.sqrt(float(np.sum(b ** 2))))
        assert rel(v2.values, f.values) < 1e-6
        assert rel(-w2, geff) < 1e-6


class TestVelocity:
    def test_zero_data(self, medium, grid_coarse):
        z = tg.zeros(grid_coarse)
        assert np.all(tg.velocity(z, z, 0.7, medium).values == 0.0)

    def test_initial_velocity_recovered(self, medium, grid_coarse):
        # compare away from the grid edges, where the Gaussian tail meets
        # the zero extension
        f = gaussian(grid_coarse)
        g = gaussian(grid_coarse, center=0.5)
        vel = tg.velocity(f, g, 0.0, medium)
        x = grid_coarse.points()
        interior = np.abs(x) <= 3.5
        assert np.max(np.abs(vel.values[interior] - g.values[interior])) < 1e-9

    def test_undamped_traveling_average_of_g(self, grid_coarse):
        m = tg.MediumParams(k=0.0, c=1.0)
        g = gaussian(grid_coarse)
        vel = tg.velocity(tg.zeros(grid_coarse), g, 1.0, m)
        x = grid_coarse.points()
        expected = 0.5 * (np.exp(-(x + 1.0) ** 2) + np.exp(-(x - 1.0) ** 2))
        inside = np.abs(x) <= 2.5
        assert np.max(np.abs(vel.values[inside] - expected[inside])) < 1e-6

    def test_error_estimate_reported(self, medium, grid_coarse):
        # the estimate is the Richardson estimate of the one solve's
        # quadrature error, which is positive and small for smooth data
        f = gaussian(grid_coarse)
        vel, err = tg.velocity(f, tg.zeros(grid_coarse), 0.5, medium,
                               error_estimate=True)
        assert 0.0 < err < 1e-4

    @pytest.mark.parametrize("k", [200.0, 1000.0])
    def test_matches_fourier_reference(self, grid_fine, k):
        # strong damping makes u_t small against u, so an error of u_t's
        # own size shows; the oracle shares no code with the solver
        f = gaussian(grid_fine)
        vel = tg.velocity(f, tg.zeros(grid_fine), 1.0, tg.MediumParams(k=k, c=1.0))
        ref = gaussian_velocity(grid_fine.points(), 1.0, k)
        assert np.max(np.abs(vel.values - ref)) / np.max(np.abs(ref)) < 1e-8

    @pytest.mark.parametrize("k, t", [(1.0, 1.0), (20.0, 0.5), (4.0, -0.5)])
    def test_cut_data_reach_only_the_cone_of_the_ends(self, k, t):
        # data nonzero at the ends of the short grid: the cut there is
        # seen only within c|t| + 3dx of them (cone, f_xx and interpolation)
        dx = 1.0 / 128
        short, wide = tg.SpaceGrid(-4.0, dx, 1025), tg.SpaceGrid(-8.0, dx, 2049)
        medium = tg.MediumParams(k=k, c=1.0)

        def vel(grid):
            f = gaussian(grid, width=3.0)
            g = gaussian(grid, center=0.5, width=2.0, amp=0.3)
            return tg.velocity(f, g, t, medium).values

        near, far = vel(short), vel(wide)[512:512 + 1025]
        x = short.points()
        inside = np.abs(x) < 4.0 - (medium.c * abs(t) + 3.0 * dx)
        assert np.max(np.abs(near - far)[inside]) <= 1e-12 * np.max(np.abs(far[inside]))

    def test_huge_wave_speed_is_domain_error(self, grid_coarse):
        # c^2 = inf makes c^2 f_xx non-finite: a DomainError, not an OverflowError
        medium = tg.MediumParams(k=1.0, c=1e300)
        f, g = gaussian(grid_coarse), tg.zeros(grid_coarse)
        with pytest.raises(tg.DomainError, match="finite"):
            tg.velocity(f, g, 1e-300, medium)
        with pytest.raises(tg.DomainError, match="finite"):
            tg.evolve(1e-300, tg.StatePair(f, g), medium)


class TestErrorEstimate:
    # f = e^{-x^2} on [-8, 8]: the error measured on |x| < 7.5 - t against the
    # Fourier oracle; n = 1024 is even, so its half grid drops the last point
    @pytest.mark.parametrize("name,n,k,t", [
        ("solve", 1025, 1.0, 0.973), ("solve", 2049, 200.0, 2.51), ("solve", 1024, 20.0, 0.37),
        ("velocity", 1025, 200.0, 0.37), ("velocity", 2049, 1.0, 2.51)])
    def test_within_a_factor_4_of_the_error(self, name, n, k, t):
        grid = tg.SpaceGrid(-8.0, 16.0 / (n - 1), n)
        reference = {"solve": gaussian_field, "velocity": gaussian_velocity}[name]
        u, err = getattr(tg, name)(gaussian(grid), tg.zeros(grid), t,
                                   tg.MediumParams(k=k, c=1.0), error_estimate=True)
        x = grid.points()
        inner = np.abs(x) < 7.5 - t
        true = np.max(np.abs(u.values[inner] - reference(x[inner], t, k)))
        assert true / 4.0 <= err <= 4.0 * true

    @pytest.mark.parametrize("fn", [tg.solve, tg.velocity])
    def test_two_points_have_no_half_grid(self, fn):
        z = tg.zeros(tg.SpaceGrid(0.0, 1.0, 2))
        with pytest.raises(tg.UsageError, match="half grid"):
            fn(z, z, 0.5, tg.MediumParams(k=1.0, c=1.0), error_estimate=True)


class TestPointSource:
    def test_unknown_kind(self, medium, grid_coarse):
        with pytest.raises(tg.UsageError):
            tg.point_source_solution("nope", 1.0, medium, grid_coarse)

    def test_nonpositive_time(self, medium, grid_coarse):
        with pytest.raises(tg.DomainError):
            tg.point_source_solution("financial", 0.0, medium, grid_coarse)
        with pytest.raises(tg.DomainError):
            tg.point_source_solution("financial", -1.0, medium, grid_coarse)

    def test_grid_too_small(self, medium):
        small = tg.SpaceGrid(-0.5, 0.01, 101)
        with pytest.raises(tg.UsageError):
            tg.point_source_solution("delta_position", 1.0, medium, small)

    def test_financial_undamped_is_pure_transport(self, grid_coarse):
        m = tg.MediumParams(k=0.0, c=1.0)
        meas = tg.point_source_solution("financial", 1.0, m, grid_coarse)
        assert meas.atoms == ((1.0, 1.0),)
        assert np.all(meas.density.values == 0.0)

    def test_position_impulse_atoms_and_mass(self, medium, grid_coarse):
        meas = tg.point_source_solution("delta_position", 1.0, medium, grid_coarse)
        w = math.exp(-0.5) / 2.0
        assert abs(w - 0.3032653298563167) < 1e-15
        assert meas.atoms == ((-1.0, w), (1.0, w))
        assert abs(meas.mass_breakdown().total - 1.0) < 1e-6
        assert meas.probabilistic

    def test_financial_atom_weight_and_mass(self, medium, grid_coarse):
        meas = tg.point_source_solution("financial", 2.0, medium, grid_coarse)
        assert meas.atoms == ((2.0, math.exp(-1.0)),)
        assert abs(meas.atoms[0][1] - 0.36787944117144233) < 1e-15
        bd = meas.mass_breakdown()
        assert abs(bd.density - (1.0 - math.exp(-1.0))) < 1e-6
        assert abs(bd.total - 1.0) < 1e-6

    def test_velocity_impulse_is_damped_kernel(self, medium, grid_coarse):
        meas = tg.point_source_solution("delta_velocity", 1.0, medium, grid_coarse)
        assert meas.atoms == ()
        assert not meas.probabilistic
        x = grid_coarse.points()
        inside = np.abs(x) < 1.0 - 1e-9
        expected = math.exp(-0.5) * tg.fundamental_solution(x[inside], 1.0, medium)
        assert np.allclose(meas.density.values[inside], expected, rtol=0, atol=1e-15)
        # mass solves (int u)'' + k (int u)' = 0 with mass(0)=0, mass'(0)=1
        k = medium.k
        assert abs(meas.mass_breakdown().total - (1 - math.exp(-k)) / k) < 1e-6


# The three kinds' atoms and densities as closed forms written out per kind:
# the reference for the row formula of point_source_solution.
def kind_reference(kind, x, t, medium):
    k, c, alpha = medium.k, medium.c, medium.alpha
    ct = c * t
    damp = math.exp(-0.5 * k * t)
    if kind == "delta_position":
        atoms = ((-ct, 0.5 * damp), (ct, 0.5 * damp))
        dens = damp * (tg.time_derivative_regular(x, t, medium)
                       + 0.5 * k * tg.fundamental_solution(x, t, medium))
    elif kind == "delta_velocity":
        atoms = ()
        dens = damp * tg.fundamental_solution(x, t, medium)
    else:
        atoms = ((ct, damp),)
        arg = 2.0 * alpha * np.sqrt(np.maximum(ct * ct - x * x, 0.0))
        dens = np.where(np.abs(x) <= ct,
                        damp * (2.0 * alpha ** 2 * (x + ct) * i1_over_z_array(arg)
                                + alpha * i0_array(arg)), 0.0)
    return atoms, dens


class TestPointDataRows:
    @pytest.mark.parametrize("kind", solver.DELTA_KINDS)
    def test_samples_are_the_density_off_the_cone_edge(self, kind):
        # the grid has points on both cone edges -+ct = -+1.4
        medium = tg.MediumParams(k=3.0, c=0.7)
        grid = tg.SpaceGrid(-1.4, 1.4 / 64, 257)
        meas = tg.point_source_solution(kind, 2.0, medium, grid)
        x = grid.points()
        expected = meas.density_fn(x)
        edge = kernel._masks(x, 2.0, medium.c)[0]
        assert edge.sum() == 2
        expected[edge] = 0.0
        assert np.array_equal(meas.density.values, expected)

    @pytest.mark.parametrize("kind", solver.DELTA_KINDS)
    @pytest.mark.parametrize("k,t,c", [(0.05, 2.0, 1.3), (2.1, 1.0, 0.7),
                                       (50.0, 2.0, 1.0), (1400.0, 1.0, 2.5)])
    def test_rows_match_the_closed_forms(self, kind, k, t, c):
        medium = tg.MediumParams(k=k, c=c)
        ct = c * t
        # grid points at -ct, 0 and (up to roundoff) +ct, where samples are 0
        grid = tg.SpaceGrid(-2.0 * ct, ct / 64, 257)
        meas = tg.point_source_solution(kind, t, medium, grid)
        nodes, _ = simpson_nodes_weights(-ct, ct, 4096)
        ref_atoms, ref_nodes = kind_reference(kind, nodes, t, medium)
        assert meas.atoms == ref_atoms
        assert meas.probabilistic == (kind != "delta_velocity")
        got = meas.density_fn(nodes)
        assert np.all(np.abs(got - ref_nodes) <= 1e-14 * np.abs(ref_nodes))

        x = grid.points()
        strictly_inside = (ct * ct - x * x) > 1e-12 * (ct * ct + x * x)
        ref_samples = np.where(strictly_inside, kind_reference(kind, x, t, medium)[1], 0.0)
        got = meas.density.values
        assert np.all(np.abs(got - ref_samples) <= 1e-14 * np.abs(ref_samples))


class TestConvolveMeasure:
    def test_atom_with_kernel_dt_is_decomposition(self, medium, grid_coarse):
        m = tg.MixedMeasure(atoms=((0.0, 1.0),), density=None, support=(0.0, 0.0))
        out = tg.convolve_measure(m, 1.0, medium, "kernel_dt", out_grid=grid_coarse)
        assert out.atoms == ((-1.0, 0.5), (1.0, 0.5))
        x = grid_coarse.points()
        assert np.array_equal(out.density.values,
                              tg.time_derivative_regular(x, 1.0, medium))

    def test_atom_pair_with_kernel_superposes(self, medium, grid_coarse):
        a = 0.75
        m = tg.MixedMeasure(atoms=((-a, 0.5), (a, 0.5)), density=None,
                            support=(-a, a))
        out = tg.convolve_measure(m, 1.0, medium, "kernel", out_grid=grid_coarse)
        assert out.atoms == ()
        x = grid_coarse.points()
        expected = 0.5 * (tg.fundamental_solution(x + a, 1.0, medium)
                          + tg.fundamental_solution(x - a, 1.0, medium))
        assert np.allclose(out.density.values, expected, rtol=0, atol=1e-15)

    def test_uniform_density_overlap_formula(self):
        # (d * kernel)(x) = (1/2c) * (1/2) * |[x-ct, x+ct] cap [-1, 1]| at
        # k = 0; quadrature must land within the step-edge Simpson error
        m = tg.MediumParams(k=0.0, c=1.0)
        grid = tg.SpaceGrid(-2.0, 1.0 / 128, 513)
        x = grid.points()
        dens = tg.SampledField(grid, np.where(np.abs(x) <= 1.0, 0.5, 0.0))
        meas = tg.MixedMeasure(atoms=(), density=dens, support=(-1.0, 1.0))
        out = tg.convolve_measure(meas, 0.25, m, "kernel")
        xo = out.density.grid.points()
        overlap = (np.minimum(xo + 0.25, 1.0) - np.maximum(xo - 0.25, -1.0)).clip(min=0.0)
        expected = 0.5 * 0.5 * overlap
        assert np.max(np.abs(out.density.values - expected)) < 2e-3
        # exact where the window avoids the density's jumps entirely
        flat = np.abs(xo) <= 0.5
        assert np.max(np.abs(out.density.values[flat] - 0.125)) < 1e-13

    def test_invalid_which(self, medium, grid_coarse):
        m = tg.MixedMeasure(atoms=((0.0, 1.0),), density=None, support=(0.0, 0.0))
        with pytest.raises(tg.UsageError):
            tg.convolve_measure(m, 1.0, medium, "psi", out_grid=grid_coarse)

    def test_atom_only_needs_out_grid(self, medium):
        m = tg.MixedMeasure(atoms=((0.0, 1.0),), density=None, support=(0.0, 0.0))
        with pytest.raises(tg.UsageError):
            tg.convolve_measure(m, 1.0, medium, "kernel")

    @pytest.mark.parametrize("which", ["kernel", "kernel_dt"])
    def test_out_grid_needs_the_density_spacing(self, medium, which):
        dens = gaussian(tg.SpaceGrid(-4.0, 1.0 / 8, 65))
        m = tg.MixedMeasure(atoms=(), density=dens, support=(-4.0, 4.0))
        out = tg.SpaceGrid(-5.0, 1.0 / 10, 101)
        with pytest.raises(tg.UsageError, match="spacing"):
            tg.convolve_measure(m, 1.0, medium, which, out_grid=out)

    @pytest.mark.parametrize("c, t", [(1.0, 1e20), (1.0, 1e306), (1e8, 1e300), (1e8, -1e300)])
    def test_default_out_grid_past_the_panel_rule(self, c, t):
        # the default out grid spans the cone; past the 2^53 panel rule it
        # is never built (no ValueError or OverflowError from its size)
        dens = gaussian(tg.SpaceGrid(-4.0, 1.0 / 8, 65))
        m = tg.MixedMeasure(atoms=(), density=dens, support=(-4.0, 4.0))
        with pytest.raises(tg.DomainError, match="2\\^53"):
            tg.convolve_measure(m, t, tg.MediumParams(k=0.0, c=c), "kernel")


# Cone windows that reach past the grid, on data nonzero at both grid ends.
# Edge rule: a Simpson node whose sampled point lies off the grid adds 0,
# even where its 4-point stencil still touches the grid.  The references
# are node-by-node sums of sample_shifted / sample_at.
EDGE_GRID = tg.SpaceGrid(-4.0, 1.0 / 8, 65)
EDGE_MEDIUM = tg.MediumParams(k=1.5, c=1.0)


def edge_data():
    x = EDGE_GRID.points()
    return (tg.SampledField(EDGE_GRID, 1.0 + 0.5 * np.cos(x)),
            tg.SampledField(EDGE_GRID, 0.3 - 0.2 * np.sin(x)))


def cone_nodes(t, medium, dx):
    radius = medium.c * abs(t)
    n_sub = panel_count(2 * radius, dx)
    h = 2 * radius / n_sub
    offsets = -radius + h * np.arange(n_sub + 1)
    offsets[-1] = radius
    ft_w = tg.time_derivative_regular(offsets, t, medium)
    f0_w = tg.fundamental_solution(offsets, t, medium)
    return offsets, simpson_pattern(n_sub) * (h / 3.0), ft_w, f0_w


def assert_matches_reference(got, reference):
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestConeEdgeRule:
    # t = 8.2 puts the end nodes' points 64 to 66 cells away, past the whole
    # grid; blocks of 64 fold the 193 nodes at t = -3 in four blocks; at t = 20
    # the nodes that cannot reach the grid are not built
    @pytest.mark.parametrize("t,fold_block", [(3.0, None), (-3.0, None), (8.2, None),
                                              (-3.0, 64), (20.0, None)])
    def test_solve_rescaled_matches_node_loop(self, t, fold_block, monkeypatch):
        if fold_block is not None:
            monkeypatch.setattr(fields, "_FOLD_BLOCK", fold_block)
        f, g = edge_data()
        radius = EDGE_MEDIUM.c * abs(t)
        offsets, weights, ft_w, f0_w = cone_nodes(t, EDGE_MEDIUM, EDGE_GRID.dx)
        geff = tg.SampledField(EDGE_GRID, g.values + 0.5 * EDGE_MEDIUM.k * f.values)
        reference = 0.5 * (tg.sample_shifted(f, radius) + tg.sample_shifted(f, -radius))
        for j, off in enumerate(offsets):
            reference += weights[j] * ft_w[j] * tg.sample_shifted(f, -off)
            reference += weights[j] * f0_w[j] * tg.sample_shifted(geff, -off)
        got = tg.solve_rescaled(f, g, t, EDGE_MEDIUM).values
        assert_matches_reference(got, reference)

    def test_window_far_past_the_grid_builds_only_the_reaching_nodes(self, monkeypatch):
        # k = 0, t = +-3000: from every point the cone covers the whole grid, so
        # u = sgn(t)/2 int g = +-sqrt(pi)/2; of the 384000 panels only those
        # whose offsets can reach the grid, 4 a cell, are built
        built = []

        def recording_fold(grid, offsets, weights, out_grid=None):
            built.append(offsets.size)
            return fold(grid, offsets, weights, out_grid)

        fold = solver._fold
        monkeypatch.setattr(solver, "_fold", recording_fold)
        grid = tg.SpaceGrid(-8.0, 1.0 / 16, 257)
        for t in (3000.0, -3000.0):
            u = tg.solve(tg.zeros(grid), gaussian(grid), t, tg.MediumParams(k=0.0, c=1.0))
            assert np.max(np.abs(u.values - math.copysign(0.5 * math.sqrt(math.pi), t))) < 1e-14
        assert built and max(built) <= 4 * (2 * (grid.n - 1) + 6) + 3

    @pytest.mark.parametrize("which", ["kernel", "kernel_dt"])
    def test_convolve_measure_matches_node_loop(self, which):
        dens, _ = edge_data()
        m = tg.MixedMeasure(atoms=(), density=dens, support=(-4.0, 4.0))
        dx = EDGE_GRID.dx
        # output points sit 0.37 of a cell off the density's
        out_grid = tg.SpaceGrid(EDGE_GRID.x0 - 19.63 * dx, dx, EDGE_GRID.n + 40)
        x = out_grid.points()
        # at t = 0 the window collapses and the edge atoms sum to a delta
        for t in (1.7, -1.1, 0.0):
            radius = EDGE_MEDIUM.c * abs(t)
            offsets, weights, ft_w, f0_w = cone_nodes(t, EDGE_MEDIUM, dx)
            kern = ft_w if which == "kernel_dt" else f0_w
            reference = np.zeros(out_grid.n)
            for j, off in enumerate(offsets):
                reference += weights[j] * kern[j] * tg.sample_at(dens, x - off)
            if which == "kernel_dt":
                reference += 0.5 * (tg.sample_at(dens, x - radius)
                                    + tg.sample_at(dens, x + radius))
            reference[(x < -4.0 - radius) | (x > 4.0 + radius)] = 0.0
            got = tg.convolve_measure(m, t, EDGE_MEDIUM, which, out_grid=out_grid)
            assert_matches_reference(got.density.values, reference)

    def test_zero_time_derivative_kernel_is_the_identity(self):
        # -1 - 2 * 0.01 rounds, yet the default out_grid lies whole cells off
        # the density grid, so both of the density's end points stay on it
        grid = tg.SpaceGrid(-1.0, 0.01, 201)
        dens = tg.SampledField(grid, 1.0 + 0.5 * np.cos(grid.points()))
        m = tg.MixedMeasure(atoms=(), density=dens, support=(-1.5, 1.5))
        got = tg.convolve_measure(m, 0.0, EDGE_MEDIUM, "kernel_dt").density.values
        assert np.array_equal(got, np.pad(dens.values, 2))

    def test_zero_time_identity_keeps_the_support_ends(self):
        # support = the density grid: roundoff in the out-grid's x0 + i*dx must
        # not put the density's own end points outside the support
        rng = np.random.default_rng(2024)
        for _ in range(300):
            grid = tg.SpaceGrid(rng.uniform(-5.0, 5.0), rng.uniform(1e-3, 0.1),
                                int(rng.integers(8, 400)))
            dens = tg.SampledField(grid, 1.0 + rng.random(grid.n))
            m = tg.MixedMeasure(atoms=(), density=dens, support=(grid.x0, grid.x_end))
            got = tg.convolve_measure(m, 0.0, EDGE_MEDIUM, "kernel_dt").density.values
            assert np.array_equal(got, np.pad(dens.values, 2))

    def test_duhamel_windows_match_node_loop(self, monkeypatch):
        # the oracle's free-wave (k = 0) windows: K0_t and K0 of the t window,
        # then one K0 window per slab; c = 0.7 makes K0 = 1/(2c) inexact
        calls = []

        def record(module):
            stencils = module._cone_stencils

            def recording_stencils(grid, t, medium, kernels=("kernel_dt", "kernel"),
                                   out_grid=None):
                apply = stencils(grid, t, medium, kernels, out_grid)
                if medium.k != 0.0:
                    return apply

                def recording_apply(values, row=0):
                    result = apply(values, row)
                    calls.append((kernels[row], t, tg.SampledField(grid, values), result))
                    return result
                return recording_apply
            monkeypatch.setattr(module, "_cone_stencils", recording_stencils)

        record(solver)
        record(oracles)
        f, g = edge_data()
        cfg = tg.DuhamelConfig(n_slabs=4)
        tg.duhamel_residual(f, g, 1.5, tg.MediumParams(k=1.5, c=0.7), cfg)
        free = tg.MediumParams(k=0.0, c=0.7)
        assert [(name, t) for name, t, *_ in calls] == [
            ("kernel_dt", 1.5), ("kernel", 1.5), ("kernel", 1.5), ("kernel", 1.125),
            ("kernel", 0.75), ("kernel", 0.375)]
        for name, t, fld, result in calls:
            offsets, weights, ft_w, f0_w = cone_nodes(t, free, EDGE_GRID.dx)
            kern = ft_w if name == "kernel_dt" else f0_w
            reference = np.zeros(EDGE_GRID.n)
            for j, off in enumerate(offsets):
                reference += weights[j] * kern[j] * tg.sample_shifted(fld, -off)
            if name == "kernel_dt":
                radius = free.c * abs(t)
                reference += 0.5 * (tg.sample_shifted(fld, radius)
                                    + tg.sample_shifted(fld, -radius))
            assert_matches_reference(result, reference)


class TestStructuralProperties:
    @given(a=st.floats(min_value=-2, max_value=2),
           b=st.floats(min_value=-2, max_value=2))
    @settings(max_examples=20)
    def test_linearity(self, a, b):
        medium = tg.MediumParams(k=0.9, c=1.0)
        grid = tg.SpaceGrid(-2.0, 1.0 / 16, 65)
        f1 = gaussian(grid, width=0.5)
        f2 = gaussian(grid, center=0.3, width=0.7)
        g1 = gaussian(grid, center=-0.2, width=0.6)
        g2 = tg.zeros(grid)
        combo_f = tg.SampledField(grid, a * f1.values + b * f2.values)
        combo_g = tg.SampledField(grid, a * g1.values + b * g2.values)
        lhs = tg.solve(combo_f, combo_g, 0.37, medium).values
        rhs = (a * tg.solve(f1, g1, 0.37, medium).values
               + b * tg.solve(f2, g2, 0.37, medium).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + abs(a) + abs(b))

    def test_finite_propagation_speed(self, medium):
        # data supported in [-a, a] leaves u exactly zero beyond
        # [-a - ct - 2dx, a + ct + 2dx] (stencil width included)
        grid = tg.SpaceGrid(-6.0, 1.0 / 32, 385)
        x = grid.points()
        a = 1.0
        bump = np.where(np.abs(x) <= a, (1 - (x / a) ** 2) ** 2, 0.0)
        f = tg.SampledField(grid, bump)
        u = tg.solve(f, tg.zeros(grid), 1.5, medium)
        ct = 1.5 * medium.c
        outside = np.abs(x) > a + ct + 2 * grid.dx
        assert np.all(u.values[outside] == 0.0)

    def test_negative_time_is_transform_of_rescaled(self, medium, grid_coarse):
        f = gaussian(grid_coarse)
        g = tg.zeros(grid_coarse)
        t = -0.6
        u = tg.solve(f, g, t, medium)
        v = tg.solve_rescaled(f, g, t, medium)
        assert np.allclose(u.values, math.exp(-0.5 * medium.k * t) * v.values,
                           rtol=1e-15, atol=1e-300)
