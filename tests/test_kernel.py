import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import telegraph as tg
from telegraph.cli import main
from telegraph.quadrature import composite_simpson

from _series_oracle import i0_series_reference


class TestMediumParams:
    def test_alpha_is_quarter_k_over_c(self):
        m = tg.MediumParams(k=3.0, c=1.5)
        assert m.alpha == 3.0 / (4.0 * 1.5)

    @pytest.mark.parametrize("k,c", [(1.0, 0.0), (1.0, -1.0), (-0.5, 1.0),
                                     (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_invalid(self, k, c):
        with pytest.raises(tg.DomainError):
            tg.MediumParams(k=k, c=c)


class TestConeClassification:
    # medium: k = 1, c = 1, so the kernel is 1/(2c) = 0.5 on the cone edge and
    # its time-derivative density there is alpha^2 c |t| = 0.0625 at t = 1
    def test_inside(self, medium):
        assert tg.fundamental_solution(0.2, 1.0, medium) > 0.5

    def test_outside(self, medium):
        assert tg.fundamental_solution(2.0, 1.0, medium) == 0.0
        assert tg.time_derivative_regular(2.0, 1.0, medium) == 0.0

    def test_boundary_with_roundoff(self, medium):
        x = 1.0 * (1.0 + 1e-15)  # just outside in exact arithmetic
        assert tg.fundamental_solution(x, 1.0, medium) == 0.5
        assert tg.time_derivative_regular(x, 1.0, medium) == 0.0625

    def test_origin(self, medium):
        assert tg.fundamental_solution(0.0, 0.0, medium) == 0.0

    def test_edge_rule_within_the_tolerance(self):
        # x = ct(1 - 1e-13) lies on the edge by the CONE_EPS rule: psi takes
        # its exact edge value, psi_t,reg its own lam (alpha^2 c t = 122500 at lam = 0)
        m = tg.MediumParams(k=1400.0, c=1.0)
        x = 1.0 - 1e-13
        assert tg.fundamental_solution(x, 1.0, m) == 0.5
        assert tg.fundamental_solution(x, -1.0, m) == -0.5
        assert 1e-8 < tg.time_derivative_regular(x, 1.0, m) / 122500.0 - 1.0 < 3e-8


class TestKernelValues:
    def test_empty_support_at_t0(self, medium):
        assert tg.fundamental_solution(0.7, 0.0, medium) == 0.0

    def test_undamped_plateau(self):
        m = tg.MediumParams(k=0.0, c=1.0)
        assert tg.fundamental_solution(0.0, 1.0, m) == 0.5

    def test_center_value_is_half_i0(self):
        m = tg.MediumParams(k=4.0, c=1.0)
        expected = i0_series_reference(2.0) / 2.0  # 1.1397926511680336
        assert abs(expected - 1.1397926511680336) < 1e-15
        assert abs(tg.fundamental_solution(0.0, 1.0, m) - expected) < 1e-12

    def test_characteristic_value(self):
        m = tg.MediumParams(k=4.0, c=1.0)
        assert tg.fundamental_solution(1.0, 1.0, m) == 0.5

    @pytest.mark.parametrize("t", [1e300, -1e300])
    def test_undamped_at_huge_time(self, t):
        # c^2 t^2 = inf: at alpha = 0 the Bessel argument is 0, not 0 * inf = nan
        m = tg.MediumParams(k=0.0, c=1.0)
        x = np.linspace(-8.0, 8.0, 5)
        assert np.all(tg.fundamental_solution(x, t, m) == math.copysign(0.5, t))
        assert np.all(tg.time_derivative_regular(x, t, m) == 0.0)

    @pytest.mark.parametrize("t", [0.37, -0.37])
    def test_tiny_wave_speed(self, t):
        # c^2 t^2 = 1.4e-601 underflows to 0, but not in units of a power of two
        # near c: the Bessel argument is k t/2 = 0.185, psi_t,reg's factor k^2 |t|/(8c)
        m = tg.MediumParams(k=1.0, c=1e-300)
        psi = tg.fundamental_solution(0.0, t, m)
        assert abs(psi / (math.copysign(tg.i0(0.185), t) / 2e-300) - 1.0) <= 1e-14
        reg = tg.time_derivative_regular(0.0, t, m)
        assert abs(reg / (0.37 / 8e-300 * tg.i1_over_z(0.185)) - 1.0) <= 1e-14

    @pytest.mark.parametrize("t", [1e-170, -1e-170])
    def test_huge_damping_at_tiny_time(self, t):
        # (k/4)^2 = 6.25e318 is past float64, psi_t,reg's factor k^2 |t|/(8c) =
        # 1.25e149 is not; the Bessel argument k|t|/2 = 5e-11 gives I1(w)/w = 1/2
        reg = tg.time_derivative_regular(0.0, t, tg.MediumParams(k=1e160, c=1.0))
        assert abs(reg / 6.25e148 - 1.0) <= 1e-14

    @pytest.mark.parametrize("t", [1e155, -1e155])
    @pytest.mark.parametrize("x", [0.0, 5e154])
    def test_tiny_damping_at_huge_time(self, x, t):
        # (c t)^2 = 1e310 is past float64, the Bessel argument
        # z = k/(2c) sqrt(c^2 t^2 - x^2) <= 500 is not
        m = tg.MediumParams(k=1e-152, c=1.0)
        z = 500.0 * math.sqrt(1.0 - (x / 1e155) ** 2)
        psi = tg.fundamental_solution(x, t, m)
        assert abs(psi / (math.copysign(0.5, t) * tg.i0(z)) - 1.0) <= 1e-12
        reg = tg.time_derivative_regular(x, t, m)
        assert abs(reg / (1e-304 * abs(t) / 8.0 * tg.i1_over_z(z)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1e300, -1e300])
    def test_huge_wave_speed_at_huge_time(self, t):
        # c|t| = inf, but not in units of a power of two near c, where the cone
        # is classified
        x = np.linspace(-8.0, 8.0, 5)
        m = tg.MediumParams(k=0.0, c=1e300)
        assert np.all(tg.fundamental_solution(x, t, m) == math.copysign(0.5e-300, t))
        assert np.all(tg.time_derivative_regular(x, t, m) == 0.0)
        with pytest.raises(tg.DomainError, match="float64"):
            tg.fundamental_solution(x, t, tg.MediumParams(k=1.0, c=1e300))

    def test_negative_time_flips_sign(self):
        m = tg.MediumParams(k=4.0, c=1.0)
        assert (tg.fundamental_solution(0.0, -1.0, m)
                == -tg.fundamental_solution(0.0, 1.0, m))

    @pytest.mark.parametrize("fn", [tg.fundamental_solution, tg.time_derivative_regular])
    def test_rejects_nonfinite(self, fn, medium):
        with pytest.raises(tg.DomainError):
            fn(math.nan, 1.0, medium)
        with pytest.raises(tg.DomainError):
            fn(0.0, math.inf, medium)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn", [tg.fundamental_solution, tg.time_derivative_regular])
@pytest.mark.parametrize("t", [1.3, -1.3])
def test_kernel_past_float64_is_domain_error(fn, t):
    # I0 and I1 of k|t|/2 = 910 exceed float64 at the cone's centre
    medium = tg.MediumParams(k=1400.0, c=1.0)
    with pytest.raises(tg.DomainError, match="float64"):
        fn(np.linspace(-1.0, 1.0, 9), t, medium)
    assert np.all(np.isfinite(fn(np.linspace(-1.0, 1.0, 9), 1.0, medium)))


class TestTimeDerivativeRegular:
    def test_outside_cone(self, medium):
        assert tg.time_derivative_regular(2.0, 1.0, medium) == 0.0

    def test_cone_boundary_limit(self):
        # alpha*c*|t| * I1(w)/sqrt(lam) -> alpha^2*c*|t| as lam -> 0
        m = tg.MediumParams(k=4.0, c=1.0)
        assert abs(tg.time_derivative_regular(1.0, 1.0, m) - 1.0) < 1e-12

    def test_center_value(self):
        m = tg.MediumParams(k=4.0, c=1.0)
        expected = 1.5906368546373291  # I1(2), frozen from the series reference
        assert abs(tg.time_derivative_regular(0.0, 1.0, m) - expected) < 1e-12

    def test_even_in_time(self, medium):
        for x in (0.0, 0.3, 0.99):
            assert (tg.time_derivative_regular(x, -1.0, medium)
                    == tg.time_derivative_regular(x, 1.0, medium))

    def test_zero_at_t0(self, medium):
        assert tg.time_derivative_regular(0.0, 0.0, medium) == 0.0


def kernel_cli(capsys, *args):
    """Atom header lines and numeric table of the CLI ``kernel`` command."""
    assert main(["kernel", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    atoms = [ln for ln in lines if ln.startswith("# atom,")]
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in lines if not ln.startswith(("#", "x,"))])
    return atoms, rows


class TestDecomposition:
    # the kernel's time derivative is two atoms of weight 1/2 at -ct and +ct
    # plus the time_derivative_regular density; the kernel command writes both
    def test_t0_atoms_coincide_with_unit_mass(self, capsys):
        atoms, _ = kernel_cli(capsys, "--k", "1", "--c", "1", "--t", "0")
        assert atoms == ["# atom,-0,0.5", "# atom,0,0.5"]

    def test_atom_positions(self, capsys):
        atoms, _ = kernel_cli(capsys, "--k", "1", "--c", "2", "--t", "1")
        assert atoms == ["# atom,-2,0.5", "# atom,2,0.5"]

    def test_negative_time_swaps_positions(self, capsys):
        atoms, _ = kernel_cli(capsys, "--k", "1", "--c", "2", "--t", "-1")
        assert atoms == ["# atom,2,0.5", "# atom,-2,0.5"]

    def test_regular_evaluator_delegates(self, capsys, medium):
        _, rows = kernel_cli(capsys, "--k", "1", "--c", "1", "--t", "1",
                             "--xmin", "-2", "--xmax", "2", "--n", "9")
        assert np.array_equal(rows[:, 2],
                              tg.time_derivative_regular(rows[:, 0], 1.0, medium))


coords = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


class TestSymmetries:
    @given(x=coords, t=coords)
    def test_odd_in_time(self, x, t):
        m = tg.MediumParams(k=1.7, c=0.8)
        assert (tg.fundamental_solution(x, -t, m)
                == -tg.fundamental_solution(x, t, m))

    @given(x=coords, t=coords)
    def test_even_in_space(self, x, t):
        m = tg.MediumParams(k=1.7, c=0.8)
        assert (tg.fundamental_solution(-x, t, m)
                == tg.fundamental_solution(x, t, m))

    @given(x=coords, t=coords)
    def test_support(self, x, t):
        m = tg.MediumParams(k=1.7, c=0.8)
        if abs(x) > m.c * abs(t):
            assert tg.fundamental_solution(x, t, m) == 0.0


class TestInteriorPde:
    @pytest.mark.parametrize("k,c", [(4.0, 1.0), (1.0, 2.0), (2.5, 0.7)])
    def test_residual(self, k, c):
        # psi_tt - c^2 psi_xx - (k^2/4) psi = 0 strictly inside the cone
        m = tg.MediumParams(k=k, c=c)
        h = 1e-4
        for (x, t) in [(0.0, 1.0), (0.3 * c, 1.0), (0.1, 0.7), (-0.5 * c, 1.3)]:
            psi = tg.fundamental_solution
            val = psi(x, t, m)
            d2t = (psi(x, t + h, m) - 2 * val + psi(x, t - h, m)) / h**2
            d2x = (psi(x + h, t, m) - 2 * val + psi(x - h, t, m)) / h**2
            assert abs(d2t - c * c * d2x - 0.25 * k * k * val) < 1e-4


class TestCompositeSimpson:
    @pytest.mark.parametrize("n_sub", [0, -4])
    def test_bad_panel_count_rejected(self, n_sub):
        with pytest.raises(tg.UsageError, match="even subinterval count"):
            composite_simpson(np.cos, 0.0, 1.0, n_sub)


class TestKernelMass:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_undamped_unit_mass(self, c):
        m = tg.MediumParams(k=0.0, c=c)
        total = composite_simpson(
            lambda x: tg.fundamental_solution(x, 1.0, m), -c, c, 4096)
        assert abs(total - 1.0) < 1e-8

    def test_damped_mass_is_sinh(self):
        # integral of the kernel at time t is sinh(kt/2)/(k/2)
        m = tg.MediumParams(k=2.0, c=1.0)
        total = composite_simpson(
            lambda x: tg.fundamental_solution(x, 1.0, m), -1.0, 1.0, 8192)
        assert abs(total - math.sinh(1.0)) < 1e-10
