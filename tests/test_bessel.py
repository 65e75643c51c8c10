"""Log-derivative of the modified Bessel combination w = I_a + c K_a that the
closed-form route for G is built on, checked against scipy's unscaled
functions and against the Riccati equation that w'/w satisfies."""

import numpy as np
import pytest
from scipy.special import iv, ivp, kv, kvp

from sharpmart.gfun import _bessel_log_derivative


def log_derivative(alpha, z, c):
    return _bessel_log_derivative(alpha, z, c * np.exp(-2 * z))


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
