import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telegraph import bessel
from telegraph.bessel import SERIES_SWITCH, i0_array, i1_array, i1_over_z_array

from _series_oracle import i0_series_reference, i1_series_reference


def scaled_tol(reference, tol=1e-12):
    # absolute for values <= 1, relative beyond (float64 cannot do better)
    return tol * max(1.0, abs(reference))


def at(array_fn, z):
    # one evaluator at one argument, as the kernel evaluates a one-point cone
    return float(array_fn(np.array([z]))[0])


class TestPointValues:
    def test_i0_at_zero(self):
        assert at(i0_array, 0.0) == 1.0

    @pytest.mark.parametrize("z,expected", [
        (1.0, 1.2660658777520084),   # frozen from the series reference
        (2.0, 2.2795853023360673),
    ])
    def test_i0_frozen(self, z, expected):
        assert abs(i0_series_reference(z) - expected) < 1e-15
        assert abs(at(i0_array, z) - expected) < 1e-12

    def test_i1_at_zero(self):
        assert at(i1_array, 0.0) == 0.0

    @pytest.mark.parametrize("z,expected", [
        (1.0, 0.5651591039924850),
        (2.0, 1.5906368546373291),
    ])
    def test_i1_frozen(self, z, expected):
        assert abs(i1_series_reference(z) - expected) < 1e-15
        assert abs(at(i1_array, z) - expected) < 1e-12

    def test_ratio_at_zero_is_half(self):
        assert at(i1_over_z_array, 0.0) == 0.5

    def test_ratio_matches_i1(self):
        assert abs(at(i1_over_z_array, 1.0) - 0.5651591039924850) < 1e-12

    def test_ratio_near_zero(self):
        # even series: 1/2 + z^2/16 + O(z^4)
        assert abs(at(i1_over_z_array, 1e-8) - 0.5) < 1e-15


class TestDomain:
    # past float64 the kernel layer raises DomainError (tests/test_domain.py)
    @pytest.mark.parametrize("fn", [i0_array, i1_array, i1_over_z_array],
                             ids=["i0", "i1", "i1_over_z"])
    def test_largest_representable_arguments_stay_finite(self, fn):
        assert math.isfinite(at(fn, 713.98))


class TestOracleAgreement:
    def test_log_spaced_sweep(self):
        zs = np.logspace(-8, math.log10(50.0), 200)
        for z in zs:
            ref0 = i0_series_reference(float(z))
            ref1 = i1_series_reference(float(z))
            assert abs(at(i0_array, float(z)) - ref0) < scaled_tol(ref0)
            assert abs(at(i1_array, float(z)) - ref1) < scaled_tol(ref1)


class TestMpmathReference:
    # every regime up to the largest argument whose I0 and I1 fit float64;
    # above 20 the roundoff of e^z in the expansion's prefactor sets the error
    def test_relative_error(self):
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([np.geomspace(1e-3, 15.0, 60), np.linspace(15.01, 20.0, 120),
                            np.geomspace(20.01, 713.9, 200)])
        with mpmath.workdps(30):
            ref1 = np.array([float(mpmath.besseli(1, v)) for v in z])
            refs = {"i0": np.array([float(mpmath.besseli(0, v)) for v in z]),
                    "i1": ref1, "i1_over_z": ref1 / z}
        bound = np.where(z <= 20.0, 5e-15, 1e-13)
        for name, ref in refs.items():
            array_fn = getattr(bessel, name + "_array")
            alone = np.array([at(array_fn, float(v)) for v in z])
            for got in (array_fn(z), alone):
                assert np.all(np.abs(got / ref - 1.0) <= bound), name


class TestMixedArray:
    def test_term_count_follows_the_slowest_entry(self):
        # both regimes in one shuffled array: the series must sum the terms its
        # largest z needs and the expansion those its smallest z needs, so the
        # entries match themselves evaluated alone
        z = np.concatenate([np.geomspace(1e-3, 20.0, 60), np.geomspace(20.01, 713.9, 60)])
        z = np.random.default_rng(0).permutation(z)
        for name in ("i0", "i1", "i1_over_z"):
            array_fn = getattr(bessel, name + "_array")
            mixed = array_fn(z)
            alone = np.array([array_fn(z[i:i + 1])[0] for i in range(z.size)])
            assert np.allclose(mixed, alone, rtol=5e-15, atol=5e-16), name


class TestOdeResidual:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_modified_bessel_ode(self, z):
        # z^2 I0'' + z I0' - z^2 I0 = 0 with I0' = I1 and I0'' from central
        # differences of I1 at step 1e-4; normalized by the z^2 I0 scale,
        # which is the only bound float64 differencing can meet at z = 10.
        h = 1e-4
        i0, i1 = at(i0_array, z), at(i1_array, z)
        second = (at(i1_array, z + h) - at(i1_array, z - h)) / (2.0 * h)
        residual = z * z * second + z * i1 - z * z * i0
        assert abs(residual) / (z * z * i0) < 1e-6


class TestRegimeConsistency:
    def test_switch_point_agreement(self):
        # the series just below the switch and the expansion just above it
        for z in (SERIES_SWITCH - 0.5, SERIES_SWITCH, SERIES_SWITCH + 0.5):
            ref1 = i1_series_reference(z)
            assert abs(at(i0_array, z) / i0_series_reference(z) - 1.0) <= 1e-14
            assert abs(at(i1_array, z) / ref1 - 1.0) <= 1e-14
            assert abs(at(i1_over_z_array, z) / (ref1 / z) - 1.0) <= 1e-14

    def test_ratio_series_matches_division(self):
        # the dedicated even series and the explicit quotient agree away from 0
        for z in (1e-4, 1e-3, 0.1, 3.0, 14.0):
            quotient = i1_series_reference(z) / z
            assert abs(at(i1_over_z_array, z) - quotient) < 1e-14 * max(1.0, quotient)


class TestProperties:
    @given(st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=60.0))
    def test_i0_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        i0_lo, i0_hi = at(i0_array, lo), at(i0_array, hi)
        assert i0_hi >= i0_lo - scaled_tol(i0_hi, 1e-12)

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_lower_bounds(self, z):
        assert at(i0_array, z) >= 1.0
        assert at(i1_array, z) >= 0.0

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50)
    def test_array_matches_scalar(self, z):
        # the vectorized path stops its term loops jointly across entries, so
        # agreement with each entry evaluated alone is a few ULP, not bitwise
        arr = np.array([z, z / 2.0, min(z + 20.0, 50.0)])
        for fn in (i0_array, i1_array, i1_over_z_array):
            assert np.allclose(fn(arr), [at(fn, v) for v in arr],
                               rtol=5e-15, atol=5e-16)
