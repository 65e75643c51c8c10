"""The modified Bessel functions that the closed-form route for G is built
on, evaluated in numpy: the scaled I and K against scipy's ive and kve, the
gap against the scipy formula it replaced, and the log-derivative of
w = I_a + c K_a against scipy's unscaled functions and against the Riccati
equation that w'/w satisfies."""

import math

import numpy as np
import pytest
from scipy.special import iv, ive, ivp, kv, kve, kvp

from sharpmart.gfun import _bessel_gap, _bessel_log_derivative, _scaled_bessel

# exponents from near 2 up to the top of verify ode's range
PS = [2.05, 2.5, 3.0, 4.0, 6.0, 10.0, 10.825]


def scipy_gap(p, t):
    """The gap u = t + 1 - G from scipy's ive and kve, as gfun computed it
    before its Bessel functions were evaluated in numpy."""
    nu = (p - 1) / p
    beta = (p / 2) ** ((p - 1) / 2)
    z = beta * t ** (p / 2)
    z0 = beta * (2 / p) ** (p / 2)
    q = (2 - p) / (p * z0)
    r = (ive(nu + 1, z0) - q * ive(nu, z0)) / (kve(nu + 1, z0) + q * kve(nu, z0))
    e = r * np.exp(-2 * (z - z0))
    R = nu / z + (ive(nu + 1, z) - e * kve(nu + 1, z)) / (ive(nu, z) + e * kve(nu, z))
    return ((p - 1) / 2 + (p / 2) * z * R) / ((p / 2) ** (p + 1) * t ** (p - 1))


def log_derivative(alpha, z, c):
    return _bessel_log_derivative(alpha, z, c * np.exp(-2 * z))


class TestScaledFunctions:
    @pytest.mark.parametrize("p", PS)
    def test_matches_scipy(self, p):
        # z from sqrt(2/p), where G's table starts, up to 2^30.  The bound
        # is scipy's: its K_nu errs by up to 1.1e-13 near z = 2 at nu = 0.6
        # (p = 2.5), against 2e-16 here (both against mpmath at 40 digits)
        nu = (p - 1) / p
        z = np.geomspace(math.sqrt(2 / p), 2.0**30, 2000, endpoint=False)
        ours = _scaled_bessel(nu, z)
        for got, want in zip(ours, (ive(nu, z), ive(nu + 1, z), kve(nu, z), kve(nu + 1, z))):
            assert np.max(np.abs(got / want - 1)) <= 2e-13

    @pytest.mark.parametrize("p", PS)
    def test_gap_matches_the_scipy_route(self, p):
        t = np.linspace(2 / p, 10, 5000)
        assert np.max(np.abs(_bessel_gap(p, t) / scipy_gap(p, t) - 1)) <= 1e-13

    @pytest.mark.parametrize("nu", [0.2, 0.6, 0.91, 1.5, 3.0])
    def test_wronskian(self, nu):
        # z (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1 (DLMF 10.28.2), with no
        # oracle; a K step of 0.25 errs by up to 1.5e-12 near z = 4.5
        z = np.linspace(0.5, 10, 2000)
        i0, i1, k0, k1 = _scaled_bessel(nu, z)
        assert np.max(np.abs(z * (i0 * k1 + i1 * k0) - 1)) <= 1e-14

    def test_nan_from_two_to_the_thirty(self):
        # where scipy's ive and kve read NaN, so do these, and G's Bessel
        # table is refused; just below, every value is finite
        z = np.array([2.0**30, 3e9, 1e15])
        assert np.all(np.isnan(ive(0.6, z))) and np.all(np.isnan(kve(0.6, z)))
        assert np.all(np.isnan(_scaled_bessel(0.6, z)))
        assert np.all(np.isfinite(_scaled_bessel(0.6, np.nextafter(2.0**30, 0))))


class TestAgainstScipy:
    @pytest.mark.parametrize("alpha", [-0.75, -1 / 3, 0.0, 0.5, 2.0 / 3.0, 3.0])
    @pytest.mark.parametrize("z", [1e-8, 0.1, 1.0, 7.5, 25.0, 50.0])
    def test_matches_library(self, alpha, z):
        for c in (0.0, 1.0):
            ref = (ivp(alpha, z) + c * kvp(alpha, z)) / (iv(alpha, z) + c * kv(alpha, z))
            assert log_derivative(alpha, z, c) == pytest.approx(float(ref), rel=1e-10)

    def test_large_argument_cap(self):
        # the unscaled I overflows here; the scaled ratio follows the
        # asymptotic I'/I = 1 - 1/(2z) + (4a^2 - 1)/(8z^2) + O(z^-3)
        alpha, z = 0.25, 1e4
        assert np.isinf(iv(alpha, z))
        expected = 1 - 1 / (2 * z) + (4 * alpha**2 - 1) / (8 * z**2)
        assert log_derivative(alpha, z, 1.0) == pytest.approx(expected, rel=1e-10)


class TestDefiningEquation:
    @pytest.mark.parametrize("alpha", [-2 / 3, 0.4, 1.5])
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_ode_residual(self, alpha, z):
        # y = w'/w solves y' + y^2 + y/z - (1 + alpha^2/z^2) = 0, since
        # z^2 w'' + z w' - (z^2 + alpha^2) w = 0; y' via central differences
        e = 1e-5 * z
        y = log_derivative(alpha, z, 1.0)
        yp = (log_derivative(alpha, z + e, 1.0) - log_derivative(alpha, z - e, 1.0)) / (2 * e)
        resid = yp + y**2 + y / z - (1 + alpha**2 / z**2)
        assert abs(resid) < 1e-6 * (1 + y**2 + alpha**2 / z**2)

    def test_derivative_recurrence(self):
        # I'_a = I_{a+1} + (a/z) I_a and K'_a = -K_{a+1} + (a/z) K_a give
        # w'/w; compare with a difference quotient of log w from scipy
        alpha, z, c = -2 / 3, 3.0, 1.0
        e = 1e-6
        log_w = lambda x: np.log(iv(alpha, x) + c * kv(alpha, x))  # noqa: E731
        lhs = (log_w(z + e) - log_w(z - e)) / (2 * e)
        assert lhs == pytest.approx(log_derivative(alpha, z, c), rel=1e-8)
