"""Tests for the orthogonal-case special function built from the Poisson
integral on the half-plane, pulled back to the strip by the conformal map."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sharpmart.constants import kp
from sharpmart.orth import (
    OrthContext,
    QuadratureError,
    conformal_strip_to_half,
    orth_property_suite,
    poisson_w,
    scalar_inequality_check,
    u_orth,
    v_orth,
)

P_RANGE = [1.0, 1.25, 1.5, 1.75, 2.0]


def oracle_w(p: float, alpha: float, beta: float) -> float:
    """Independent Poisson-integral evaluation on a split integrand."""
    c = 2**p / math.pi ** (p + 1)

    def f(t):
        return abs(math.log(abs(t))) ** p / ((alpha - t) ** 2 + beta**2)

    total = 0.0
    for a, b in [(-np.inf, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, np.inf)]:
        val, _ = quad(f, a, b, limit=400, epsabs=1e-11)
        total += val
    return c * beta * total


class TestConformalMap:
    def test_origin(self):
        a, b = conformal_strip_to_half(0.0, 0.0)
        assert (a, b) == pytest.approx((0.0, 1.0))

    def test_boundary_goes_to_real_axis(self):
        for x in (-1.0, 0.3, 2.0):
            _, b = conformal_strip_to_half(x, 1.0 - 1e-14)
            assert abs(b) < 1e-10

    def test_upper_half_plane(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-1, 1)
            _, b = conformal_strip_to_half(x, y)
            assert b > 0


class TestValueAtOrigin:
    @pytest.mark.parametrize("p", P_RANGE)
    def test_scaled_value_is_one(self, p):
        ctx = OrthContext(p)
        assert u_orth(ctx, 0.0, 0.0) * kp(p).value ** p == pytest.approx(1.0, abs=1e-8)


class TestAgainstQuadratureOracle:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_random_points(self, p):
        ctx = OrthContext(p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            alpha = rng.uniform(-3, 3)
            beta = rng.uniform(0.3, 3)
            assert poisson_w(ctx, alpha, beta) == pytest.approx(
                oracle_w(p, alpha, beta), rel=1e-6, abs=1e-8
            )

    def test_p2_closed_form(self):
        ctx = OrthContext(2.0)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.5, 1.5, 40)
        y = rng.uniform(-0.999, 0.999, 40)
        vals = np.array([u_orth(ctx, a, b) for a, b in zip(x, y)])
        assert np.allclose(vals, x**2 + 1 - y**2, atol=1e-6)


class TestStripBehaviour:
    def test_outside_strip_is_payoff(self):
        ctx = OrthContext(1.5)
        assert u_orth(ctx, 0.7, 1.2) == abs(0.7) ** 1.5
        assert v_orth(ctx, 0.7, 1.2) == pytest.approx(
            1.0 - kp(1.5).value ** 1.5 * 0.7**1.5
        )
        assert v_orth(ctx, 0.7, 0.2) == pytest.approx(
            -kp(1.5).value ** 1.5 * 0.7**1.5
        )

    def test_even_in_both_arguments(self):
        ctx = OrthContext(1.5)
        for x, y in [(0.4, 0.3), (1.2, -0.7)]:
            ref = u_orth(ctx, x, y)
            assert u_orth(ctx, -x, y) == pytest.approx(ref, rel=1e-9)
            assert u_orth(ctx, x, -y) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_boundary_continuity_attainable(self, p):
        # the gap to the boundary payoff decays linearly in the distance:
        # it is below 1e-4 at distance 1e-5 and shrinks ~10x per decade
        ctx = OrthContext(p)
        for x in (0.5, 1.0, 2.0):
            g5 = abs(u_orth(ctx, x, 1 - 1e-5) - x**p)
            g4 = abs(u_orth(ctx, x, 1 - 1e-4) - x**p)
            assert g5 < 1e-4
            assert g5 < 0.4 * g4  # linear decay, not a plateau

    @pytest.mark.xfail(
        reason="normal derivative at the strip boundary is O(1), so the gap "
        "at distance 1e-3 is ~1e-3; the 1e-4 tolerance at that distance "
        "is not attainable by any correct evaluation",
        strict=True,
    )
    def test_boundary_continuity_strict_form(self):
        ctx = OrthContext(1.5)
        assert abs(u_orth(ctx, 0.5, 1 - 1e-3) - 0.5**1.5) < 1e-4


class TestScalarInequality:
    def test_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            p = rng.uniform(1, 2)
            assert scalar_inequality_check(p, rng.uniform(-3, 3), rng.uniform(-3, 3))

    def test_out_of_range(self):
        for p in (2.5, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                scalar_inequality_check(p, 1.0, 1.0)


class TestPropertySuite:
    def test_passes(self):
        report = orth_property_suite(OrthContext(1.5), n_samples=40, seed=7)
        assert report["passed"], report

    # Literal margins of the suite that evaluated u_orth(x, y) twice per
    # sample and exp(s) twice per integrand call; reuse must not move a bit.
    # The last two columns depend on K_p and hold the closed-form value.
    @pytest.mark.parametrize(
        "p, seed, want",
        [
            (1.0, 7, (-0.0064921159559361286, 0.006492131277013868, 0.09329090538967577,
                      0.00016358824195639166, 0.39023734506052155, 1.5653331637053207)),
            (1.0, 8, (-0.1957794562024162, 0.19577953147553728, 0.03646078283736642,
                      0.0779292131367415, 0.3659528901828677, 1.4722892201386655)),
            (1.2, 7, (-0.2152132982935484, 0.21521335114016438, 0.09117201910102679,
                      0.00018895645782712744, 0.30489745085972597, 1.50404685043923)),
            (1.2, 8, (-0.37317963386129804, 0.37317970136285794, 0.04505257844567012,
                      0.09045235128618745, 0.28335590768035424, 1.4050063460179918)),
            (1.5, 7, (-0.6923121524948783, 0.6923122264357318, 0.07466386414689552,
                      0.00023171277709466143, 0.18706955032120676, 1.4558084795957582)),
            (1.5, 8, (-0.7755166699929816, 0.7755167219514192, 0.04939825259953068,
                      0.11162691413692372, 0.1732619762760883, 1.352544744195866)),
            (2.0, 7, (-1.9999999976150207, 1.9999999996134221, -1.6653345369377348e-10,
                      0.00032719746283649265, 0.0007956381157023795, 1.5335859570771102)),
            (2.0, 8, (-1.9999999993913775, 1.9999999694153558, -2.220446049250313e-10,
                      0.15895571916600493, 0.009095718320613955, 1.426917497854871)),
        ],
    )
    def test_report_is_pinned(self, p, seed, want):
        report = orth_property_suite(OrthContext(p), n_samples=5, seed=seed)
        keys = ("concave_in_y_max", "convex_in_x_min", "mixed_min",
                "lower_bound_min", "upper_bound_min", "majorization_min")
        assert tuple(report[k] for k in keys) == want
        assert report["passed"]


class TestErrors:
    def test_exponent_window(self):
        for p in (0.5, 2.5):
            with pytest.raises(ValueError):
                OrthContext(p)

    def test_quadrature_error_is_raised_not_swallowed(self):
        assert issubclass(QuadratureError, RuntimeError)
