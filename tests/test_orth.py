"""Tests for the orthogonal-case special function, the strip-kernel integral
of |t|^p.  The reference is the half-plane Poisson integral of the pulled-back
boundary data, fed strip points through the conformal map z -> i e^{pi z/2};
it shares no code with the evaluator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sharpmart import cli, orth
from sharpmart.constants import kp
from sharpmart.orth import (
    OrthContext,
    QuadratureError,
    orth_property_suite,
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


def strip_to_half(x: float, y: float) -> tuple[float, float]:
    """Image of the strip point x + iy under z -> i e^{pi z/2}."""
    r = math.exp(math.pi * x / 2)
    return -r * math.sin(math.pi * y / 2), r * math.cos(math.pi * y / 2)


def near_edge_sample(p: float, n: int = 300):
    """U on n seeded points with 1 - |y| = 10^U(-14, 0), x in (-3, 3)."""
    rng = np.random.default_rng(13)
    x = rng.uniform(-3, 3, n)
    y = rng.choice([-1.0, 1.0], n) * (1 - 10 ** rng.uniform(-14, 0, n))
    ctx = OrthContext(p)
    return x, y, np.array([u_orth(ctx, a, b) for a, b in zip(x, y)])


class TestValueAtOrigin:
    @pytest.mark.parametrize("p", P_RANGE)
    def test_scaled_value_is_one(self, p):
        ctx = OrthContext(p)
        assert u_orth(ctx, 0.0, 0.0) * kp(p).value ** p == pytest.approx(1.0, abs=1e-8)


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
        vals = np.array([u_orth(ctx, a, b) for a, b in zip(x, y)])
        assert np.allclose(vals, x**2 + 1 - y**2, atol=1e-6)
        # 1e-13 and 1e-12 from the edge
        for a, b in [(1.0, 1 - 1e-13), (0.3, -(1 - 1e-12))]:
            assert abs(u_orth(ctx, a, b) - (a * a + 1 - b * b)) < 1e-12
        # relative at x = 0, where U = (1 - y)(1 + y) is tiny: c = cos(pi y/2)
        # must keep its digits as y -> 1
        for b in 1 - 10.0 ** -np.arange(1, 15):
            assert u_orth(ctx, 0.0, b) == pytest.approx((1 - b) * (1 + b), rel=1e-6, abs=0)
        x, y, vals = near_edge_sample(2.0)
        assert np.max(np.abs(vals - (x**2 + 1 - y**2))) < 1e-8


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
            # at the edge U meets the payoff; nearer the edge no quadrature
            # fails, and U >= |x|^p by Jensen (the kernel has mean 0)
            ctx = OrthContext(p)
            for x in (0.0, 0.5, 1.0, 2.4):
                assert abs(u_orth(ctx, x, 1 - 2e-14) - x**p) < 1e-12
            x, _, vals = near_edge_sample(p)
            assert np.all(vals >= np.abs(x) ** p - 1e-12)

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

    # Literal margins of the suite on the strip-kernel quadrature: one quad
    # of the folded bracket [(a+d)^p + |a-d|^p - 2a^p] against the two-edge
    # Poisson kernel, in d = a + s|s| and broken only at the kink s = 0.
    # The last two columns depend on K_p and hold the closed-form value.
    @pytest.mark.parametrize(
        "p, seed, want",
        [
            (1.0, 7, (-0.006492119730694412, 0.006492123727497301, 0.09329090550069807,
                      0.0001635882419566137, 0.3902373450605221, 1.5653331637053203)),
            (1.0, 8, (-0.19577945642446082, 0.19577953125349268, 0.03646078283736642,
                      0.07792921313674128, 0.3659528901828675, 1.4722892201386655)),
            (1.2, 7, (-0.2152133031785297, 0.21521334137020176, 0.0911718664453609,
                      0.00018895645774885672, 0.30489745085875464, 1.5040468504402014)),
            (1.2, 8, (-0.37317962964245055, 0.3731797002526349, 0.04505257850118127,
                      0.0904523512862706, 0.28335590768004204, 1.405006346018304)),
            (1.5, 7, (-0.6923121551594136, 0.6923122175539476, 0.07466386342525055,
                      0.0002317127771647165, 0.1870695503209614, 1.4558084795960036)),
            (1.5, 8, (-0.77551667088116, 0.7755167223955084, 0.049398252932597586,
                      0.11162691413713577, 0.17326197627579942, 1.352544744196155)),
            (2.0, 7, (-1.9999999998354667, 1.9999999998354667, 0.0,
                      0.0003271974628367147, 0.0007956381157023795, 1.5335859570771102)),
            (2.0, 8, (-1.9999999998354667, 1.999999999169333, -1.6653345369377348e-10,
                      0.1589557191660047, 0.009095718320613733, 1.4269174978548713)),
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
        for x, y in [(0.3, math.nan), (math.nan, 0.3), (math.inf, 0.3)]:
            with pytest.raises(ValueError, match="finite x"):
                u_orth(ctx, x, y)

    def test_quadrature_error_is_raised_not_swallowed(self, monkeypatch, capsys):
        assert issubclass(QuadratureError, RuntimeError)
        monkeypatch.setattr(orth, "quad", lambda *a, **k: (1.0, 1e3))
        with pytest.raises(QuadratureError, match="error estimate"):
            u_orth(OrthContext(1.5), 0.3, 0.2)
        assert cli.main(["verify", "u-orth", "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: quadrature failed")
