import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telegraph as tg
from telegraph.bessel import SERIES_SWITCH

from _series_oracle import i0_series_reference, i1_series_reference


def scaled_tol(reference, tol=1e-12):
    # absolute for values <= 1, relative beyond (float64 cannot do better)
    return tol * max(1.0, abs(reference))


class TestPointValues:
    def test_i0_at_zero(self):
        assert tg.i0(0.0) == 1.0

    @pytest.mark.parametrize("z,expected", [
        (1.0, 1.2660658777520084),   # frozen from the series reference
        (2.0, 2.2795853023360673),
    ])
    def test_i0_frozen(self, z, expected):
        assert abs(i0_series_reference(z) - expected) < 1e-15
        assert abs(tg.i0(z) - expected) < 1e-12

    def test_i1_at_zero(self):
        assert tg.i1(0.0) == 0.0

    @pytest.mark.parametrize("z,expected", [
        (1.0, 0.5651591039924850),
        (2.0, 1.5906368546373291),
    ])
    def test_i1_frozen(self, z, expected):
        assert abs(i1_series_reference(z) - expected) < 1e-15
        assert abs(tg.i1(z) - expected) < 1e-12

    def test_ratio_at_zero_is_half(self):
        assert tg.i1_over_z(0.0) == 0.5

    def test_ratio_matches_i1(self):
        assert abs(tg.i1_over_z(1.0) - 0.5651591039924850) < 1e-12

    def test_ratio_near_zero(self):
        # even series: 1/2 + z^2/16 + O(z^4)
        assert abs(tg.i1_over_z(1e-8) - 0.5) < 1e-15


class TestDomain:
    @pytest.mark.parametrize("fn", [tg.i0, tg.i1, tg.i1_over_z])
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_argument(self, fn, bad):
        with pytest.raises(tg.DomainError):
            fn(bad)

    @pytest.mark.parametrize("fn", [tg.i0, tg.i1, tg.i1_over_z])
    def test_overflow_is_a_domain_error(self, fn):
        # I0(800) and I1(800) are about 1e345, beyond float64
        with pytest.raises(tg.DomainError, match="float64 range"):
            fn(800.0)

    @pytest.mark.parametrize("fn", [tg.i0, tg.i1, tg.i1_over_z])
    def test_largest_representable_arguments_stay_finite(self, fn):
        assert math.isfinite(fn(713.98))


class TestOracleAgreement:
    def test_log_spaced_sweep(self):
        zs = np.logspace(-8, math.log10(50.0), 200)
        for z in zs:
            ref0 = i0_series_reference(float(z))
            ref1 = i1_series_reference(float(z))
            assert abs(tg.i0(float(z)) - ref0) < scaled_tol(ref0)
            assert abs(tg.i1(float(z)) - ref1) < scaled_tol(ref1)


class TestMpmathReference:
    # every regime up to the largest argument whose I0 and I1 fit float64;
    # above 20 the roundoff of e^z in the expansion's prefactor sets the error
    def test_relative_error(self):
        mpmath = pytest.importorskip("mpmath")
        from telegraph import bessel
        z = np.concatenate([np.geomspace(1e-3, 15.0, 60), np.linspace(15.01, 20.0, 120),
                            np.geomspace(20.01, 713.9, 200)])
        with mpmath.workdps(30):
            ref1 = np.array([float(mpmath.besseli(1, v)) for v in z])
            refs = {"i0": np.array([float(mpmath.besseli(0, v)) for v in z]),
                    "i1": ref1, "i1_over_z": ref1 / z}
        bound = np.where(z <= 20.0, 5e-15, 1e-13)
        for name, ref in refs.items():
            scalar = np.array([getattr(tg, name)(float(v)) for v in z])
            for got in (getattr(bessel, name + "_array")(z), scalar):
                assert np.all(np.abs(got / ref - 1.0) <= bound), name


class TestMixedArray:
    def test_term_count_follows_the_slowest_entry(self):
        # both regimes in one shuffled array: the series must sum the terms its
        # largest z needs and the expansion those its smallest z needs, so the
        # entries match themselves evaluated alone, which the scalar functions are
        from telegraph import bessel
        z = np.concatenate([np.geomspace(1e-3, 20.0, 60), np.geomspace(20.01, 713.9, 60)])
        z = np.random.default_rng(0).permutation(z)
        for name in ("i0", "i1", "i1_over_z"):
            array_fn = getattr(bessel, name + "_array")
            mixed = array_fn(z)
            alone = np.array([array_fn(z[i:i + 1])[0] for i in range(z.size)])
            scalar = np.array([getattr(tg, name)(float(v)) for v in z])
            assert np.allclose(mixed, alone, rtol=5e-15, atol=5e-16), name
            assert np.array_equal(scalar, alone), name


class TestOdeResidual:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_modified_bessel_ode(self, z):
        # z^2 I0'' + z I0' - z^2 I0 = 0 with I0' = I1 and I0'' from central
        # differences of I1 at step 1e-4; normalized by the z^2 I0 scale,
        # which is the only bound float64 differencing can meet at z = 10.
        h = 1e-4
        second = (tg.i1(z + h) - tg.i1(z - h)) / (2.0 * h)
        residual = z * z * second + z * tg.i1(z) - z * z * tg.i0(z)
        assert abs(residual) / (z * z * tg.i0(z)) < 1e-6


class TestRegimeConsistency:
    def test_switch_point_agreement(self):
        # the series just below the switch and the expansion just above it
        for z in (SERIES_SWITCH - 0.5, SERIES_SWITCH, SERIES_SWITCH + 0.5):
            ref1 = i1_series_reference(z)
            assert abs(tg.i0(z) / i0_series_reference(z) - 1.0) <= 1e-14
            assert abs(tg.i1(z) / ref1 - 1.0) <= 1e-14
            assert abs(tg.i1_over_z(z) / (ref1 / z) - 1.0) <= 1e-14

    def test_ratio_series_matches_division(self):
        # the dedicated even series and the explicit quotient agree away from 0
        for z in (1e-4, 1e-3, 0.1, 3.0, 14.0):
            quotient = i1_series_reference(z) / z
            assert abs(tg.i1_over_z(z) - quotient) < 1e-14 * max(1.0, quotient)


class TestProperties:
    @given(st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=60.0))
    def test_i0_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert tg.i0(hi) >= tg.i0(lo) - scaled_tol(tg.i0(hi), 1e-12)

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_lower_bounds(self, z):
        assert tg.i0(z) >= 1.0
        assert tg.i1(z) >= 0.0

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50)
    def test_array_matches_scalar(self, z):
        # the vectorized path stops its term loops jointly across entries,
        # so agreement with the scalar path is a few ULP, not bitwise
        from telegraph import bessel
        arr = np.array([z, z / 2.0, min(z + 20.0, 50.0)])
        assert np.allclose(bessel.i0_array(arr), [tg.i0(v) for v in arr],
                           rtol=5e-15, atol=5e-16)
        assert np.allclose(bessel.i1_array(arr), [tg.i1(v) for v in arr],
                           rtol=5e-15, atol=5e-16)
        assert np.allclose(bessel.i1_over_z_array(arr),
                           [tg.i1_over_z(v) for v in arr],
                           rtol=5e-15, atol=5e-16)
