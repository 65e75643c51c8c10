"""Tests for the orthogonal-case special function, the strip-kernel integral
of |t|^p.  The reference is the half-plane Poisson integral of the pulled-back
boundary data, fed strip points through the conformal map z -> i e^{pi z/2};
it shares no code with the evaluator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sharpmart.constants import kp
from sharpmart.orth import OrthContext, orth_property_suite, u_orth, v_orth

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


def strip_to_half(x: float, y: float) -> tuple[float, float]:
    """Image of the strip point x + iy under z -> i e^{pi z/2}."""
    r = math.exp(math.pi * x / 2)
    return -r * math.sin(math.pi * y / 2), r * math.cos(math.pi * y / 2)


def near_edge_sample(p: float, n: int = 300):
    """U on n seeded points with 1 - |y| = 10^U(-14, 0), x in (-3, 3)."""
    rng = np.random.default_rng(13)
    x = rng.uniform(-3, 3, n)
    y = rng.choice([-1.0, 1.0], n) * (1 - 10 ** rng.uniform(-14, 0, n))
    return x, y, u_orth(OrthContext(p), x, y)


class TestValueAtOrigin:
    @pytest.mark.parametrize("p", P_RANGE)
    def test_scaled_value_is_one(self, p):
        ctx = OrthContext(p)
        assert u_orth(ctx, 0.0, 0.0) * kp(p).value ** p == pytest.approx(1.0, abs=1e-12)


class TestAgainstQuadratureOracle:
    @pytest.mark.parametrize("p", P_RANGE)
    def test_random_points(self, p):
        ctx = OrthContext(p)
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-0.999, 0.999)
            assert u_orth(ctx, x, y) == pytest.approx(
                oracle_w(p, *strip_to_half(x, y)), rel=1e-8
            )

    def test_p2_closed_form(self):
        ctx = OrthContext(2.0)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.5, 1.5, 40)
        y = rng.uniform(-0.999, 0.999, 40)
        assert np.allclose(u_orth(ctx, x, y), x**2 + 1 - y**2, atol=1e-6)
        # far out, where U ~ x^2 is large, relative
        x = np.linspace(-400, 400, 801)
        exact = x**2 + 1 - y[0] ** 2
        assert np.max(np.abs(u_orth(ctx, x, y[0]) - exact) / exact) < 1e-12
        # 1e-13 and 1e-12 from the edge
        for a, b in [(1.0, 1 - 1e-13), (0.3, -(1 - 1e-12))]:
            assert abs(u_orth(ctx, a, b) - (a * a + 1 - b * b)) < 1e-12
        # relative at x = 0, where U = (1 - y)(1 + y) is tiny: c = cos(pi y/2)
        # must keep its digits as y -> 1
        for b in 1 - 10.0 ** -np.arange(1, 15):
            assert u_orth(ctx, 0.0, b) == pytest.approx((1 - b) * (1 + b), rel=1e-12, abs=0)
        x, y, vals = near_edge_sample(2.0)
        assert np.max(np.abs(vals - (x**2 + 1 - y**2))) < 1e-11

    def test_near_edge_against_high_precision_literal(self):
        # x = 0, 1 - y = 7.3e-11: U is 2.5e-10 and the kernel's spike at d = 0
        # is 1e-10 wide.  The literal is a 40-digit mpmath integral of this
        # kernel; the half-plane integral of oracle_w agrees to 25 digits.
        u = u_orth(OrthContext(1.25), 0.0, 1 - 7.3e-11)
        assert u == pytest.approx(2.4995107119739178e-10, rel=1e-9)


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
        for p in (1.0, 1.5):
            # at the edge U meets the payoff, and U >= |x|^p by Jensen (the
            # kernel has mean 0)
            ctx = OrthContext(p)
            for x in (0.0, 0.5, 1.0, 2.4):
                assert abs(u_orth(ctx, x, 1 - 2e-14) - x**p) < 1e-12
            x, _, vals = near_edge_sample(p)
            assert np.all(vals >= np.abs(x) ** p - 1e-12)

    def test_arrays_broadcast_like_scalar_calls(self):
        # a call sums each point's panels by one matrix product, which may
        # round differently with the number of points
        ctx = OrthContext(1.5)
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-3, 3, (3, 5)), rng.uniform(-1.2, 1.2, (3, 5))
        one_u = np.vectorize(lambda a, b: u_orth(ctx, a, b))
        for xs, ys in [(x, y), (x[0], 0.3), (x[:, :1], y)]:
            got, want = u_orth(ctx, xs, ys), one_u(xs, ys)
            assert got.shape == np.broadcast(xs, ys).shape
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        assert isinstance(u_orth(ctx, 0.3, 0.2), float)
        assert isinstance(v_orth(ctx, 0.3, 0.2), float)
        one_v = np.vectorize(lambda a, b: v_orth(ctx, a, b))
        assert np.array_equal(v_orth(ctx, x, y), one_v(x, y))

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


class TestPropertySuite:
    def test_passes(self):
        report = orth_property_suite(OrthContext(1.5), n_samples=40, seed=7)
        assert report["passed"], report

    # Literal margins of the suite on the fixed rule: 16-point Gauss-Legendre
    # panels of the folded bracket [(a+d)^p + |a-d|^p - 2a^p] against the
    # two-edge Poisson kernel, in d = a + s|s| and graded toward d = 0 and
    # the kink s = 0.  The last two columns depend on K_p and hold the
    # closed-form value.
    @pytest.mark.parametrize(
        "p, seed, want",
        [
            (1.0, 7, (-0.006492119730694412, 0.006492123727497301, 0.09329090550069807,
                      0.00016358824195650268, 0.3902373450605222, 1.5653331637053203)),
            (1.0, 8, (-0.19577945642446082, 0.19577953125349268, 0.03646078278185527,
                      0.0779292131367414, 0.3659528901828677, 1.4722892201386655)),
            (1.2, 7, (-0.2152133027344405, 0.21521334181429097, 0.0911718664453609,
                      0.00018895645782657233, 0.3048974508588158, 1.5040468504401403)),
            (1.2, 8, (-0.37317962964245055, 0.3731797000305903, 0.04505257850118127,
                      0.09045235128631246, 0.2833559076801633, 1.4050063460181828)),
            (1.5, 7, (-0.6923121551594136, 0.6923122175539476, 0.0746638633697394,
                      0.00023171277716438343, 0.18706955032096162, 1.4558084795960033)),
            (1.5, 8, (-0.7755166713252493, 0.7755167223955084, 0.04939825304361989,
                      0.11162691413713555, 0.17326197627579965, 1.3525447441961547)),
            (2.0, 7, (-1.9999999998354667, 1.9999999998354667, -1.1102230246251565e-10,
                      0.0003271974628368257, 0.0007956381157026016, 1.53358595707711)),
            (2.0, 8, (-1.9999999998354667, 1.9999999993913775, -1.1102230246251565e-10,
                      0.15895571916600504, 0.009095718320613955, 1.426917497854871)),
        ],
    )
    def test_report_is_pinned(self, p, seed, want):
        report = orth_property_suite(OrthContext(p), n_samples=5, seed=seed)
        keys = ("concave_in_y_max", "convex_in_x_min", "mixed_min",
                "lower_bound_min", "upper_bound_min", "majorization_min")
        assert tuple(report[k] for k in keys) == want
        assert report["passed"]
        if p == 2:  # U_yy = -2, U_xx = 2, U_xy = 0 exactly
            assert np.allclose(want[:3], (-2.0, 2.0, 0.0), rtol=0, atol=1e-7)


class TestErrors:
    def test_exponent_window(self):
        for p in (0.5, 2.5):
            with pytest.raises(ValueError):
                OrthContext(p)

    def test_point_outside_the_domain(self):
        ctx = OrthContext(1.5)
        for x, y in [(0.3, math.nan), (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 2.0),
                     ([0.2, math.inf], 1.5)]:
            with pytest.raises(ValueError, match="finite x"):
                u_orth(ctx, x, y)
        # an infinite y lies outside the strip
        assert u_orth(ctx, 0.5, math.inf) == 0.5**1.5
        assert u_orth(ctx, 0.5, -math.inf) == 0.5**1.5
