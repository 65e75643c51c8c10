"""Tests for the orthogonal-case special function, the strip-kernel integral
of |t|^p.  The reference is the half-plane Poisson integral of the pulled-back
boundary data, fed strip points through the conformal map z -> i e^{pi z/2};
it shares no code with the evaluator."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from sharpmart import orth
from sharpmart.constants import kp
from sharpmart.orth import OrthContext, u_orth
from sharpmart.verify import run_suite

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
        for p in (1.0, 1.5):
            # at the edge U meets the payoff, and U >= |x|^p by Jensen (the
            # kernel has mean 0)
            ctx = OrthContext(p)
            for x in (0.0, 0.5, 1.0, 2.4):
                assert abs(u_orth(ctx, x, 1 - 2e-14) - x**p) < 1e-12
            x, _, vals = near_edge_sample(p)
            assert np.all(vals >= np.abs(x) ** p - 1e-12)

    def test_arrays_broadcast_like_scalar_calls(self):
        ctx = OrthContext(1.5)
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-3, 3, (3, 5)), rng.uniform(-1.2, 1.2, (3, 5))
        one_u = np.vectorize(lambda a, b: u_orth(ctx, a, b))
        for xs, ys in [(x, y), (x[0], 0.3), (x[:, :1], y)]:
            got, want = u_orth(ctx, xs, ys), one_u(xs, ys)
            assert got.shape == np.broadcast(xs, ys).shape
            assert np.array_equal(got, want)
        assert isinstance(u_orth(ctx, 0.3, 0.2), float)

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
        ok, report = run_suite("u-orth", p=1.5, n=40, seed=7)
        assert ok, report

    # Literal margins of the suite on the graded rule: 16-point Gauss-Legendre
    # panels of the folded bracket [(a+d)^p + |a-d|^p - 2a^p] against the
    # two-edge Poisson kernel, in d = a + s|s| and graded toward d = 0 (in
    # 4 levels at every point here) and the kink s = 0.  The first three
    # columns are read off the 16-point rings; the last depends on K_p and
    # holds the closed-form value.
    @pytest.mark.parametrize(
        "p, seed, want",
        [
            (1.0, 7, (1.8594968885713431e-16, 6.64683885963389e-09, 3.225793540911867e-07,
                      0.00016358824195650268, 0.3902373450605221)),
            (1.0, 8, (1.440178779660105e-16, 7.311490313951933e-05, 0.00012072456461040313,
                      0.07792921313674128, 0.3659528901828676)),
            (1.2, 7, (2.220446049250313e-16, 2.1234065854379297e-07, 3.8326826491289904e-07,
                      0.0001889564578269054, 0.3048974508588158)),
            (1.2, 8, (3.3306690738754696e-16, 0.0001634169304122442, 0.00011599372431163657,
                      0.09045235128631257, 0.2833559076801633)),
            (1.5, 7, (2.1018921435135245e-16, 6.455757597824578e-07, 3.8477528766130275e-07,
                      0.00023171277716449445, 0.18706955032096162)),
            (1.5, 8, (2.7492591290044745e-16, 0.0003358646555958961, 8.932204868099921e-05,
                      0.11162691413713566, 0.17326197627579987)),
            (2.0, 7, (3.073554328527456e-16, 1.6922866514869758e-06, -8.721846716775392e-17,
                      0.00032719746283660367, 0.0007956381157028236)),
            (2.0, 8, (1.8033650435054455e-16, 0.0006398342801257226, -7.113222246008211e-17,
                      0.15895571916600482, 0.009095718320614177)),
        ],
    )
    def test_report_is_pinned(self, p, seed, want):
        ok, report = run_suite("u-orth", p=p, n=5, seed=seed)
        keys = ("mean_value_max", "convex_in_x_min", "mixed_min",
                "lower_bound_min", "upper_bound_min")
        assert tuple(report[k] for k in keys) == want
        assert ok
        if p == 2:
            # on x^2 + 1 - y^2 the ring's a0 = U, a2 = r^2 and b2 = 0 exactly,
            # so convex_in_x_min is the smallest r^2 / max(1, U)
            assert report["mean_value_max"] <= 1e-15
            assert abs(report["mixed_min"]) <= 1e-15
            rng = np.random.default_rng(seed)
            xs, ys = rng.uniform(-1.5, 1.5, 5), rng.uniform(-0.998, 0.998, 5)
            u, r = xs * xs + 1 - ys * ys, (1 - np.abs(ys)) / 8
            assert report["convex_in_x_min"] == pytest.approx(
                np.min(r * r / np.maximum(1, u)), rel=0, abs=1e-15
            )

    def test_rule_levels_counts_every_point_on_the_rule_it_took(self, monkeypatch):
        # 19 n + 1 points: the n centres with their 16-point rings, the origin
        # and two rows of n; the rings reach 1 - |y| = (7/8) 2e-3 = 1.75e-3,
        # where c = cos(pi y/2) < 1e-2
        _, report = run_suite("u-orth", p=1.5)
        assert report["rule_levels"] == {4: 1131, 5: 4, 6: 6}
        monkeypatch.setattr(orth, "_rule_levels", levels_of(lambda n: np.full_like(n, 20)))
        _, report = run_suite("u-orth", p=1.5)
        assert report["rule_levels"] == {20: 1141}

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_sample(self, n):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            run_suite("u-orth", p=1.5, n=n)

    def test_suite_domain_takes_no_more_levels_than_the_band_table(self):
        # the suite draws |x| <= 2 and 1 - |y| >= 1e-3, so c >= 1.57e-3; there
        # the former band table gave 4 levels at c >= 1e-2 and 6 below
        a, c = np.meshgrid(np.linspace(0, 2, 201), np.geomspace(1.5708e-3, 1, 201))
        c, n = orth._rule_levels(a, 1 - 2 / np.pi * np.arcsin(c))
        assert np.all(n <= np.where(c >= 1e-2, 4, 6))


def level_scan():
    """3,000 points uniform in the strip and 6,000 near its edge: x = 0 or
    +-10^U(-12, log10 3), and 1 - |y| = 10^U(-15, 0)."""
    rng = np.random.default_rng(23)
    xb, yb = rng.uniform(-3, 3, 3000), rng.uniform(-1, 1, 3000)
    xe = rng.choice([-1.0, 0.0, 1.0], 6000) * 10 ** rng.uniform(-12, math.log10(3), 6000)
    ye = rng.choice([-1.0, 1.0], 6000) * (1 - 10 ** rng.uniform(-15, 0, 6000))
    return np.concatenate([xb, xe]), np.concatenate([yb, ye])


def far_scan():
    """3,000 points with |x| = 10^U(log10 3, 4) and 3,000 at x = 0, each with
    c = cos(pi y/2) = 10^U(-15, 0)."""
    rng = np.random.default_rng(24)
    x = rng.choice([-1.0, 1.0], 3000) * 10 ** rng.uniform(math.log10(3), 4, 3000)
    c = 10 ** rng.uniform(-15, 0, 6000)
    y = rng.choice([-1.0, 1.0], 6000) * (1 - 2 / np.pi * np.arcsin(c))
    return np.concatenate([x, np.zeros(3000)]), y


def levels_of(change):
    """`orth._rule_levels` with each point's level count n replaced by
    change(n)."""
    rule_levels = orth._rule_levels

    def patched(a, y):
        c, n = rule_levels(a, y)
        return c, change(n)

    return patched


@functools.cache
def scan_below_twenty_levels():
    """The in-strip points of both scans whose rule has fewer than 20
    levels: a point that takes 20 is on the reference rule already."""
    x, y = (np.concatenate(v) for v in zip(level_scan(), far_scan()))
    inside = np.abs(y) < 1
    x, y = x[inside], y[inside]
    fewer = orth._rule_levels(np.abs(x), y)[1] < 20
    return x[fewer], y[fewer]


@functools.cache
def twenty_levels(p):
    """U on `scan_below_twenty_levels`, taken on 20 geometric levels at every
    point."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orth, "_rule_levels", levels_of(lambda n: np.full_like(n, 20)))
        return u_orth(OrthContext(p), *scan_below_twenty_levels())


def error_to_twenty_levels(p):
    """Largest |U - U_20| / max(1, |U_20|) on `scan_below_twenty_levels`."""
    got, ref = u_orth(OrthContext(p), *scan_below_twenty_levels()), twenty_levels(p)
    return np.max(np.abs(got - ref) / np.maximum(1, np.abs(ref)))


class TestLevelBands:
    """Each point's geometric level count toward d = 0 comes from c =
    cos(pi y/2) and |x| by one expression, `orth._rule_levels`; the
    reference is the one rule of 20 levels at every point."""

    @pytest.mark.parametrize("p", P_RANGE)
    def test_banded_rule_agrees_with_twenty_levels(self, p):
        assert error_to_twenty_levels(p) <= 1e-15

    @pytest.mark.parametrize("levels", range(4, 21))
    def test_literal_rule_is_leggauss_bit_for_bit(self, levels):
        edges = np.concatenate([[0.0], 3.0 ** np.arange(-levels, 0) / 4, np.arange(1, 5) / 4])
        mid, half = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
        t, w = np.polynomial.legendre.leggauss(16)
        nodes, weights = orth._rule(levels)
        assert nodes.tobytes() == (mid + half * t).ravel().tobytes()
        assert weights.tobytes() == (half * w).ravel().tobytes()

    @pytest.mark.parametrize("p", P_RANGE)
    def test_one_level_fewer_is_seen(self, monkeypatch, p):
        # every point one level short, the floor of 4 included, errs by
        # 4.5e-14 (p = 2) to 2.7e-10 (p = 1); the points at the floor carry it.
        # The cached reference is taken first, on the unpatched rule
        twenty_levels(p)
        monkeypatch.setattr(orth, "_rule_levels", levels_of(lambda n: n - 1))
        assert error_to_twenty_levels(p) > 1e-15

    def test_p2_closed_form_far_from_the_origin(self):
        # past |x| = 3 the kernel's spike on piece 1 is c/|x| wide, narrower
        # than c alone would say
        ctx = OrthContext(2.0)
        c = np.geomspace(0.9, 1e-12, 200)
        y = 1 - 2 / np.pi * np.arcsin(c)
        for a in (30.0, 100.0, 1e3, 1e4):
            for x in (a, -a):
                u = u_orth(ctx, x, y)
                assert np.max(np.abs(u - (x * x + 1 - y * y)) / np.maximum(1, u)) <= 1e-15


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

    def test_integrand_overflow_is_refused(self):
        # inside the strip the integrand reaches (2|x| + 30)^p; at p = 2 that
        # overflows past |x| ~ 6.7e153, where U ~ x^2 is still finite
        ctx = OrthContext(2.0)
        with pytest.raises(ValueError, match=r"\(2\|x\| \+ 30\)\^p finite"):
            u_orth(ctx, 7.2e153, 0.5)
        x = 6e153
        assert u_orth(ctx, x, 0.5) == pytest.approx(x * x + 1 - 0.25, rel=1e-14, abs=0)
