import math

import numpy as np
import pytest

import telegraph as tg

from _fourier_oracle import gaussian_norms
from conftest import gaussian


@pytest.fixture
def state(grid_fine):
    return tg.StatePair(gaussian(grid_fine), tg.zeros(grid_fine))


class TestStatePair:
    def test_grids_must_match(self, grid_fine, grid_coarse):
        with pytest.raises(tg.UsageError):
            tg.StatePair(tg.zeros(grid_fine), tg.zeros(grid_coarse))


class TestEvolve:
    def test_identity_at_zero(self, medium, state):
        out = tg.evolve(0.0, state, medium)
        assert np.array_equal(out.u.values, state.u.values)
        assert np.max(np.abs(out.ut.values - state.ut.values)) < 1e-9

    def test_one_sided(self, medium, state):
        with pytest.raises(tg.UsageError):
            tg.evolve(-0.1, state, medium)

    def test_undamped_displacement_is_dalembert(self, grid_fine):
        m = tg.MediumParams(k=0.0, c=1.0)
        state = tg.StatePair(gaussian(grid_fine), tg.zeros(grid_fine))
        out = tg.evolve(1.0, state, m)
        x = grid_fine.points()
        expected = 0.5 * (np.exp(-(x + 1) ** 2) + np.exp(-(x - 1) ** 2))
        inside = np.abs(x) <= 6.0
        assert np.max(np.abs(out.u.values[inside] - expected[inside])) < 1e-12

    @pytest.mark.parametrize("t,s", [(0.5, 0.5), (0.3, 0.7)])
    def test_composition(self, medium, state, t, s):
        whole = tg.evolve(t + s, state, medium)
        composed = tg.evolve(s, tg.evolve(t, state, medium), medium)
        grid = state.u.grid
        shrink = medium.c * (t + s)
        window = (grid.x0 + shrink, grid.x_end - shrink)
        assert tg.rel_l2_error(composed.u, whole.u, window) < 1e-5
        assert tg.rel_l2_error(composed.ut, whole.ut, window) < 1e-5

    @pytest.mark.parametrize("k", [0.0, 1.0, 20.0, 200.0])
    @pytest.mark.parametrize("t", [0.0, 1e-9, 0.37, 2.5])
    def test_shared_stencils_match_solve_and_velocity(self, k, t):
        # data nonzero at both grid ends exercise the stencils' edge rule
        grid = tg.SpaceGrid(-4.0, 1.0 / 16, 129)
        x = grid.points()
        f = tg.SampledField(grid, 1.0 + 0.5 * np.cos(x))
        g = tg.SampledField(grid, 0.3 - 0.2 * np.sin(x))
        medium = tg.MediumParams(k=k, c=1.0)
        out = tg.evolve(t, tg.StatePair(f, g), medium)
        for got, ref in ((out.u, tg.solve(f, g, t, medium)),
                         (out.ut, tg.velocity(f, g, t, medium))):
            assert np.max(np.abs(got.values - ref.values)) <= 1e-13 * np.max(np.abs(ref.values))


class TestNormReport:
    def test_zero_state(self, medium, grid_coarse):
        state = tg.StatePair(tg.zeros(grid_coarse), tg.zeros(grid_coarse))
        rows = tg.norm_report(state, medium, [0.0, 0.5, 1.0])
        for row in rows:
            assert row.u_l2 == 0.0 and row.ut_l2 == 0.0 and row.ux_l2 == 0.0

    def test_envelope_column(self, medium, grid_coarse):
        state = tg.StatePair(gaussian(grid_coarse), tg.zeros(grid_coarse))
        rows = tg.norm_report(state, medium, [0.0, 1.0])
        assert rows[0].envelope == 1.0
        assert abs(rows[1].envelope - math.exp(-0.5)) < 1e-15

    def test_times_must_ascend(self, medium, grid_coarse):
        state = tg.StatePair(tg.zeros(grid_coarse), tg.zeros(grid_coarse))
        with pytest.raises(tg.UsageError):
            tg.norm_report(state, medium, [1.0, 0.5])
        with pytest.raises(tg.UsageError):
            tg.norm_report(state, medium, [-1.0, 0.5])

    def test_moderate_damping_ratios_stay_bounded(self):
        # No exponential envelope holds (low modes decay at a rate -> 0 as
        # xi -> 0), but at k = 1 over t <= 4 the exact ratio growth against
        # e^{-kt/2} is 3.25x for u and about 1.2x for u_t and u_x, so the
        # 10x bound holds here; the norms themselves match the exact
        # Fourier-multiplier values
        medium = tg.MediumParams(k=1.0, c=1.0)
        grid = tg.SpaceGrid(-12.0, 1.0 / 128, 3073)
        state = tg.StatePair(gaussian(grid), tg.zeros(grid))
        rows = tg.norm_report(state, medium, [0.5, 1.0, 2.0, 4.0])
        for pick in (lambda r: r.u_l2, lambda r: r.ut_l2, lambda r: r.ux_l2):
            ratios = [pick(r) / r.envelope for r in rows]
            assert max(ratios) <= 10.0 * ratios[0]
        for row in rows:
            exact = gaussian_norms(row.t, medium.k, medium.c, grid.dx)
            got = (row.u_l2, row.ut_l2, row.ux_l2)
            assert np.allclose(got, exact, rtol=1e-6, atol=0.0)


class TestFourierOracle:
    def test_initial_norm(self):
        u, ut, ux = gaussian_norms(0.0, k=1.0)
        assert abs(u - (math.pi / 2) ** 0.25) < 1e-14
        assert ut == 0.0
        # ||f'||^2 = int 4 x^2 e^{-2x^2} dx = (pi/2)^{1/2} as well
        assert abs(ux - (math.pi / 2) ** 0.25) < 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_undamped_matches_dalembert(self, t):
        # u = (f(x - t) + f(x + t))/2 gives
        # ||u||^2 = (pi/2)^{1/2} (1 + e^{-2t^2}) / 2
        u, _, _ = gaussian_norms(t, k=0.0)
        exact = math.sqrt(math.sqrt(math.pi / 2) * (1 + math.exp(-2 * t * t)) / 2)
        assert abs(u - exact) < 1e-14
