import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import telegraph as tg
from telegraph import fields


class TestSpaceGrid:
    def test_points(self):
        g = tg.SpaceGrid(-1.0, 0.5, 5)
        assert np.array_equal(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.x_end == 1.0
        assert g.covers(-1.0, 1.0)
        assert not g.covers(-1.1, 0.0)

    def test_extended(self):
        g = tg.SpaceGrid(0.0, 0.25, 4).extended(2)
        assert g.x0 == -0.5 and g.n == 8

    @pytest.mark.parametrize("x0,dx,n", [(0.0, 0.0, 4), (0.0, -1.0, 4),
                                         (0.0, 1.0, 1), (math.nan, 1.0, 4),
                                         # a count that is no integer, or past 2^53
                                         (0.0, 1.0, 3.0), (0.0, 1.0, math.nan),
                                         (0.0, 1.0, math.inf), (0.0, 1.0, 10 ** 19),
                                         # x_end = 5e308 overflows
                                         (1e308, 1e308, 5)])
    def test_rejects_invalid(self, x0, dx, n):
        with pytest.raises(tg.UsageError):
            tg.SpaceGrid(x0, dx, n)


class TestSampledField:
    def test_length_mismatch(self):
        g = tg.SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(tg.UsageError):
            tg.SampledField(g, np.zeros(5))

    def test_nonfinite_values(self):
        g = tg.SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(tg.DomainError):
            tg.SampledField(g, np.array([0.0, 1.0, math.nan, 0.0]))


cubic_coeffs = st.tuples(*[st.floats(min_value=-3, max_value=3)] * 4)


class TestInterpolation:
    @given(coeffs=cubic_coeffs, pos=st.floats(min_value=1.0, max_value=13.0))
    def test_reproduces_cubics(self, coeffs, pos):
        # cubic Lagrange is exact on cubic polynomials wherever the full
        # 4-point stencil lies inside the grid
        a, b, c, d = coeffs
        g = tg.SpaceGrid(-2.0, 0.25, 17)
        poly = lambda x: a + b * x + c * x**2 + d * x**3
        f = tg.from_function(g, poly)
        xq = g.x0 + pos * g.dx
        got = fields.sample_at(f, [xq])[0]
        assert abs(got - poly(xq)) < 1e-10 * (1 + abs(poly(xq)))

    def test_zero_outside_grid(self):
        # the values are extended by zero: half a cell off either end the
        # interpolant of 0, 0, 1, 1 reads 1/2, and from 2 cells off it reads 0
        g = tg.SpaceGrid(0.0, 1.0, 5)
        f = tg.SampledField(g, np.ones(5))
        got = fields.sample_at(f, [-0.5, 4.5, -2.0, 6.0, 100.0])
        assert np.array_equal(got, [0.5, 0.5, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        f = tg.SampledField(tg.SpaceGrid(0.0, 1.0, 5), np.ones(5))
        with pytest.raises(tg.DomainError):
            fields.sample_at(f, [bad, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_points_read_zero_without_overflow(self):
        g = tg.SpaceGrid(-8.0, 1.0 / 256, 4097)
        f = tg.from_function(g, lambda x: np.exp(-x * x))
        got = fields.sample_at(f, [1e300, 2.0, -1.7e308, 1.7e308])
        assert np.array_equal(got, [0.0, fields.sample_at(f, [2.0])[0], 0.0, 0.0])

    def test_grid_points_exact(self):
        g = tg.SpaceGrid(-1.0, 0.125, 17)
        rng = np.random.default_rng(3)
        f = tg.SampledField(g, rng.normal(size=17))
        assert np.array_equal(fields.sample_at(f, f.x), f.values)

    @given(shift_cells=st.integers(min_value=-20, max_value=20))
    def test_integer_shift_is_index_roll(self, shift_cells):
        g = tg.SpaceGrid(0.0, 0.5, 12)
        rng = np.random.default_rng(7)
        f = tg.SampledField(g, rng.normal(size=12))
        got = fields.sample_shifted(f, shift_cells * g.dx)
        expected = np.zeros(12)
        for i in range(12):
            j = i + shift_cells
            if 0 <= j < 12:
                expected[i] = f.values[j]
        assert np.array_equal(got, expected)

    @given(offset=st.floats(min_value=-5.0, max_value=5.0))
    @example(offset=4.375)  # 17.5 cells: past the grid, stencil still on f[16]
    @settings(max_examples=50)
    def test_shifted_matches_pointwise(self, offset):
        g = tg.SpaceGrid(-2.0, 0.25, 17)
        f = tg.from_function(g, lambda x: np.sin(1.3 * x))
        xq = f.x + offset
        # 2 or more cells off the grid, with room for the roundoff in xq
        far = (xq < g.x0 - 2 * g.dx - 1e-12) | (xq > g.x_end + 2 * g.dx + 1e-12)
        shifted = fields.sample_shifted(f, offset)
        pointwise = fields.sample_at(f, xq)
        assert np.allclose(shifted, pointwise, rtol=0, atol=1e-14)
        assert np.all(shifted[far] == 0.0)
        assert np.all(pointwise[far] == 0.0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, offset):
        f = tg.from_function(tg.SpaceGrid(-2.0, 0.25, 17), np.cos)
        with pytest.raises(tg.DomainError, match="finite"):
            fields.sample_shifted(f, offset)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("offset", [1e306, -1e306, 1.7e308, -1.7e308])
    def test_huge_finite_shift_reads_zero_without_overflow(self, offset):
        f = tg.from_function(tg.SpaceGrid(-8.0, 1.0 / 256, 4097), lambda x: np.exp(-x * x))
        assert np.array_equal(fields.sample_shifted(f, offset), np.zeros(4097))


class TestNormsAndDerivative:
    def test_l2_of_constant(self):
        g = tg.SpaceGrid(0.0, 0.5, 9)  # length 4
        f = tg.SampledField(g, np.full(9, 2.0))
        assert abs(tg.l2_norm(f) - math.sqrt(4.0 * 4.0)) < 1e-14

    @given(coeffs=st.tuples(*[st.floats(min_value=-2, max_value=2)] * 3))
    def test_derivative_exact_on_quadratics(self, coeffs):
        a, b, c = coeffs
        g = tg.SpaceGrid(-1.0, 0.125, 17)
        f = tg.from_function(g, lambda x: a + b * x + c * x**2)
        expected = b + 2 * c * g.points()
        assert np.allclose(tg.derivative_x(f).values, expected, atol=1e-12)

    def test_two_point_grid_rejected(self):
        f = tg.SampledField(tg.SpaceGrid(0.0, 0.5, 2), np.array([1.0, 2.0]))
        with pytest.raises(tg.UsageError, match="at least 3 grid points"):
            tg.derivative_x(f)


class TestMixedMeasure:
    def _density(self):
        g = tg.SpaceGrid(-1.0, 0.25, 9)
        vals = np.where(np.abs(g.points()) <= 0.5, 1.0, 0.0)
        return tg.SampledField(g, vals)

    def test_mass_paths(self):
        dens = self._density()
        # closed-form callable
        m2 = tg.MixedMeasure(atoms=(), density=dens, support=(-0.5, 0.5),
                             density_fn=lambda x: np.ones_like(np.asarray(x, float)))
        assert abs(m2.density_mass() - 1.0) < 1e-14
        # fall back to samples
        m3 = tg.MixedMeasure(atoms=(), density=dens, support=(-0.5, 0.5))
        assert abs(m3.density_mass() - 1.0) < 0.3  # trapezoid on a step profile

    def test_density_must_vanish_outside_support(self):
        g = tg.SpaceGrid(-1.0, 0.25, 9)
        vals = np.ones(9)
        with pytest.raises(tg.UsageError):
            tg.MixedMeasure(atoms=(), density=tg.SampledField(g, vals),
                            support=(-0.5, 0.5))

    def test_probabilistic_rejects_negative_weight(self):
        with pytest.raises(tg.UsageError):
            tg.MixedMeasure(atoms=((0.0, -0.1),), density=None,
                            support=(0.0, 0.0), probabilistic=True)

    def test_unbounded_support_rejected(self):
        with pytest.raises(tg.UsageError):
            tg.MixedMeasure(atoms=(), density=None, support=(0.0, math.inf))
