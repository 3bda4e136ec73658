"""Tests of the benchmark's references and tracer.

    python3 -m pytest perfbench -q

The references are checked against each other and against third-party
evaluators (numpy, scipy, mpmath), never against telegraph, so that a
fault in the package cannot hide behind a matching fault here.
"""

import math

import numpy as np
import pytest

import references as ref

F = (1.2, 0.3, 0.7)
G = (-0.6, -0.4, 0.85)


def simpson(y, x):
    h = x[1] - x[0]
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * y) * h / 3.0)


class TestBessel:
    Z = np.concatenate([np.linspace(0.0, 5.0, 51), np.logspace(0.0, math.log10(3000.0), 120)])

    @pytest.mark.parametrize("order", [0, 1])
    def test_matches_scipy_scaled(self, order):
        special = pytest.importorskip("scipy.special")
        expect = (special.i0e if order == 0 else special.i1e)(self.Z)
        got = ref.bessel_scaled(self.Z, order)
        nonzero = expect > 0
        assert np.max(np.abs(got[nonzero] / expect[nonzero] - 1.0)) < 1e-14
        assert np.all(got[~nonzero] == 0.0)

    def test_matches_numpy_i0(self):
        z = np.linspace(0.0, 700.0, 301)
        assert np.max(np.abs(ref.bessel_scaled(z, 0) / (np.i0(z) * np.exp(-z)) - 1.0)) < 1e-13

    @pytest.mark.parametrize("z", [0.5, 15.0, 50.0, 700.0, 1500.0, 3000.0])
    @pytest.mark.parametrize("order", [0, 1])
    def test_matches_mpmath(self, z, order):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        expect = float(mpmath.besseli(order, z) * mpmath.exp(-z))
        assert ref.bessel_scaled(np.array([z]), order)[0] == pytest.approx(expect, rel=1e-14)

    def test_ratio_is_continuous_across_the_series_switch(self):
        below = ref.i1_over_z_scaled(np.array([0.0, 1.0 - 1e-12]))
        above = ref.i1_over_z_scaled(np.array([1.0]))
        assert below[0] == 0.5
        assert below[1] == pytest.approx(above[0], rel=1e-11)


class TestFourierField:
    X = np.linspace(-8.0, 8.0, 801)

    @pytest.mark.parametrize("t", [-3.0, -0.5, 0.25, 1.0, 4.0])
    def test_undamped_limit_is_dalembert(self, t):
        got = ref.fourier_field(self.X, t, 0.0, 1.3, F, G)
        assert ref.rel_error(got, ref.dalembert(self.X, t, 1.3, F, G)) < 1e-13

    def test_time_zero_returns_the_data(self):
        assert ref.rel_error(ref.fourier_field(self.X, 0.0, 5.0, 1.0, F, G),
                             ref.gaussian(self.X, F)) < 1e-14
        assert ref.rel_error(ref.fourier_field(self.X, 0.0, 5.0, 1.0, F, G, "ut"),
                             ref.gaussian(self.X, G)) < 1e-14

    @pytest.mark.parametrize("k", [1.0, 20.0, 200.0])
    def test_velocity_is_the_time_derivative(self, k):
        t, h = 0.7, 1e-4
        diff = (ref.fourier_field(self.X, t + h, k, 1.0, F, G)
                - ref.fourier_field(self.X, t - h, k, 1.0, F, G)) / (2 * h)
        assert ref.rel_error(diff, ref.fourier_field(self.X, t, k, 1.0, F, G, "ut")) < 1e-6

    def test_strong_damping_is_finite_and_near_diffusion(self):
        # c^2 = D k with D = 1/3000: u is the heat solution up to O(1/k)
        k, t = 3000.0, 1.0
        u = ref.fourier_field(self.X, t, k, 1.0, F, None)
        amp, centre, width = F
        spread = width ** 2 + 4.0 * t / k
        heat = amp * width / math.sqrt(spread) * np.exp(-(self.X - centre) ** 2 / spread)
        assert np.all(np.isfinite(u))
        assert ref.rel_error(u, heat) < 1e-3

    @pytest.mark.parametrize("which", ["kernel", "kernel_dt"])
    def test_kernel_convolution_matches_direct_quadrature(self, which):
        k, t, c = 4.0, 0.6, 1.1
        x = np.array([-0.9, -0.2, 0.35, 1.1])
        got = ref.fourier_field(x, t, k, c, None, G, which)
        y = np.linspace(-c * t, c * t, 20001)
        for xi, value in zip(x, got):
            psi, reg = ref.kernel_values(y, t, k, c)
            # the closed cone's edge values: I0(0) = 1 and I1(z)/z -> 1/2
            psi[[0, -1]] = 1.0 / (2.0 * c)
            reg[[0, -1]] = (k / (4.0 * c)) ** 2 * c * t
            dens = ref.gaussian(xi - y, G)
            direct = simpson((psi if which == "kernel" else reg) * dens, y)
            if which == "kernel_dt":
                direct += 0.5 * (ref.gaussian(xi - c * t, G) + ref.gaussian(xi + c * t, G))
            assert value == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("k", [0.5, 4.0, 20.0])
    def test_norms_match_grid_norms(self, k):
        t, dx = 0.8, 1.0 / 64
        x = np.arange(-16.0, 16.0 + dx / 2, dx)
        u = ref.fourier_field(x, t, k, 1.0, F, G)
        ut = ref.fourier_field(x, t, k, 1.0, F, G, "ut")
        ux = (u[2:] - u[:-2]) / (2 * dx)
        grid = [math.sqrt(np.trapezoid(v * v, dx=dx)) for v in (u, ut, ux)]
        assert ref.fourier_norms(t, k, 1.0, F, G, dx) == pytest.approx(grid, rel=1e-10)


class TestPointLaws:
    @pytest.mark.parametrize("kind", ["delta_position", "delta_velocity", "financial"])
    @pytest.mark.parametrize("k, t", [(0.1, 1.0), (3.0, 0.7), (50.0, 2.0), (1400.0, 1.0),
                                      (3000.0, 1.0)])
    def test_density_and_atoms_carry_the_closed_form_masses(self, kind, k, t):
        c = 0.8
        ct = c * t
        x = np.linspace(-ct, ct, 100001)
        density = ref.point_law_density(kind, x, t, k, c)
        atoms, dens_mass, total = ref.point_law_masses(kind, t, k)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        assert simpson(density, x) == pytest.approx(dens_mass, rel=1e-9)
        assert sum(w for _, w in ref.point_law_atoms(kind, t, k, c)) == pytest.approx(atoms)
        assert atoms + dens_mass == pytest.approx(total, rel=1e-15)

    def test_kernel_values_vanish_outside_the_cone(self):
        psi, reg = ref.kernel_values(np.array([-2.0, 2.0]), -1.0, 3.0, 1.0)
        assert np.all(psi == 0.0) and np.all(reg == 0.0)

    def test_kernel_is_odd_and_its_derivative_even_in_time(self):
        x = np.linspace(-0.9, 0.9, 7)
        psi_p, reg_p = ref.kernel_values(x, 1.0, 3.0, 1.0)
        psi_m, reg_m = ref.kernel_values(x, -1.0, 3.0, 1.0)
        assert np.array_equal(psi_p, -psi_m) and np.array_equal(reg_p, reg_m)


def test_tracer_wraps_every_alias_and_restores_them():
    import telegraph as tg
    from telegraph import semigroup, solver
    from tracing import Tracer, layer_metrics

    originals = (tg.velocity, solver.velocity, semigroup.velocity, solver.solve_rescaled)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(originals, (
            tg.velocity, solver.velocity, semigroup.velocity, solver.solve_rescaled)))
        grid = tg.SpaceGrid(-4.0, 1.0 / 32, 257)
        f = tg.from_function(grid, lambda x: np.exp(-x * x))
        tg.evolve(0.1, tg.StatePair(f, tg.zeros(grid)), tg.MediumParams(1.0, 1.0))
    finally:
        tracer.uninstall()
    assert (tg.velocity, solver.velocity, semigroup.velocity, solver.solve_rescaled) == originals
    metrics = layer_metrics(tracer, 0, len(tracer))
    assert metrics["semigroup.evolve.calls"] == 1
    assert metrics["solver.solves"] == 5  # one solve plus velocity's four probes
    assert metrics["solver.velocity.ms"] > 0.0
    assert metrics["fields.sample_shifted.calls"] > 0
    assert 0.0 < metrics["solver.solve.self_ms"] < metrics["semigroup.evolve.ms"]
