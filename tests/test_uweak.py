"""Tests for the piecewise special function U of the super-quadratic
weak-type bound: region classification, branch continuity, derivatives and
the concavity/majorization properties."""

import ast
import inspect

import numpy as np
import pytest

from sharpmart import uweak
from sharpmart.uweak import (
    REGION_BOUNDARIES,
    EvaluationError,
    build_context,
    classify,
    is_interior,
    majorization_check,
    tangent_check,
    u_branch,
    u_gradient_ext,
    u_second_derivs,
    u_value,
    v_value,
)


@pytest.fixture(scope="module")
def ctx3():
    return build_context(3.0)


def _random_points(ctx, n, seed=0, x_hi=2.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, x_hi, n)
    y = rng.uniform(-1.5, 1.5, n)
    return x, y


class TestClassify:
    def test_pinned_labels(self, ctx3):
        assert classify(ctx3, 0.1, 0.9) == 4
        assert classify(ctx3, 0.0, 1.5) == 0
        # brute predicate evaluation in first-match order gives D1 here:
        # (p-1)x = 0.15 ... 0.1 <= 0.12 holds before the D2 predicate is reached
        assert classify(ctx3, 0.05, 0.12) == 1

    def test_sign_symmetric(self, ctx3):
        x, y = _random_points(ctx3, 2000)
        assert np.array_equal(classify(ctx3, x, y), classify(ctx3, x, -y))

    def test_partition_is_total(self, ctx3):
        x, y = _random_points(ctx3, 5000, seed=1)
        labels = classify(ctx3, x, y)
        assert set(np.unique(labels)) <= set(range(8))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn", [classify, u_value, u_gradient_ext, is_interior])
@pytest.mark.parametrize(
    "pt",
    [(0.5, np.nan), (np.nan, 0.1), ([0.2, np.nan], 0.0), (np.inf, 0.1), ([0.2, np.inf], 0.0)],
)
def test_nan_rejected(ctx3, fn, pt):
    # NaN fails every region predicate and would land in D7; an infinite x
    # would leave the tabulated inverse of G as a numerical failure
    with pytest.raises(ValueError, match="NaN, and x must be finite"):
        fn(ctx3, *pt)


def test_context_refuses_a_non_finite_exponent(ctx3):
    for p in (np.inf, np.nan):
        with pytest.raises(ValueError, match="requires finite p > 2"):
            uweak.UWContext(p, ctx3.g)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_y_lies_in_d0(ctx3):
    # |y| = inf is in D0 (|y| >= 1), where U = 1 - c x^p holds no G
    for y in (np.inf, -np.inf):
        assert classify(ctx3, 0.5, y) == 0
        assert u_value(ctx3, 0.5, y) == 1 - ctx3.coef * 0.5**3
        assert u_gradient_ext(ctx3, 0.5, y) == (-3 * ctx3.coef * 0.5**2, 0.0)


def test_reads_no_private_name_of_gfun():
    # every derivative of u and h is formed in gfun, by GSolution.gap_jet
    # and h_jet; uweak imports public names only
    names = [alias.name for node in ast.walk(ast.parse(inspect.getsource(uweak)))
             if isinstance(node, ast.ImportFrom) and node.module == "gfun"
             for alias in node.names]
    assert "h_of" in names
    assert not [name for name in names if name.startswith("_")]


class TestValues:
    def test_pinned(self, ctx3):
        assert u_value(ctx3, 0.0, 0.0) == 0.0
        assert u_value(ctx3, 0.0, 1.5) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_nonpositive(self, ctx3):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 3, 20000)
        assert np.all(u_value(ctx3, x, x) <= 1e-12)
        assert np.all(u_value(ctx3, x, -x) <= 1e-12)

    def test_even_in_y(self, ctx3):
        x, y = _random_points(ctx3, 5000, seed=3)
        assert np.allclose(u_value(ctx3, x, y), u_value(ctx3, x, -y), atol=1e-14)


# One interior point per region at p = 3: (x, y, U, (U_x, U_y), (U_xx, U_xy, U_yy)),
# values recorded from the per-region formulas before the shared dispatcher.
# The G regions D5 and D6 were re-pinned on the Magnus-and-series table of G:
# against U on an 80,001-node table of the Bessel gap, it errs by at most
# 2.3e-12 relative there, and the LSODA table's pins erred by up to 6.2e-11.
PINNED_P3 = {
    0: (0.1, 1.2, 0.9983125, (-0.05062500000000001, 0.0), (-1.0125, 0.0, 0.0)),
    1: (0.05, 0.2, 0.007593750000000002, (0.050624999999999996, 0.10125000000000002),
        (-3.375, 1.35, 0.675)),
    2: (0.2, 0.3, 0.012499999999999997, (-0.26249999999999996, 0.3),
        (-2.4000000000000004, -0.15000000000000005, 2.0999999999999996)),
    3: (0.05, 0.75, 0.22083333333333333, (3.3055555555555545, 1.111111111111111),
        (-37.03703703703702, 14.814814814814804, 7.407407407407404)),
    4: (0.2, 0.9, 0.7598125, (-0.253125, 2.199375),
        (-2.3625000000000003, 0.3375000000000003, 1.6874999999999998)),
    5: (1.0, 0.5, -1.6865424472482995, (-5.098301928603073, 0.10376537736453972),
        (-9.45588354875564, -1.876627543952647, 5.702628460850344)),
    6: (0.8, 0.9, -0.17889856232095436, (-3.4570326548976613, 2.944143278107205),
        (-8.152215096698935, 1.7162916456755486, 4.719631805347838)),
    7: (1.0, 0.1, -1.6875, (-5.0625, 0.0), (-10.125, 0.0, 0.0)),
}


class TestPinnedPerRegion:
    @pytest.mark.parametrize("region", sorted(PINNED_P3))
    def test_value_gradient_hessian(self, ctx3, region):
        x, y, u, grad, hess = PINNED_P3[region]
        assert classify(ctx3, x, y) == region
        assert is_interior(ctx3, x, y, tol=1e-3)
        assert u_value(ctx3, x, y) == pytest.approx(u, rel=1e-13)
        assert u_gradient_ext(ctx3, x, y) == pytest.approx(grad, rel=1e-13)
        assert u_second_derivs(ctx3, x, y) == pytest.approx(hess, rel=1e-13)
        # the reflection y -> -y flips exactly U_y and U_xy
        ux, uy = grad
        uxx, uxy, uyy = hess
        assert u_gradient_ext(ctx3, x, -y) == pytest.approx((ux, -uy), rel=1e-13)
        assert u_second_derivs(ctx3, x, -y) == pytest.approx((uxx, -uxy, uyy), rel=1e-13)


SHAPE_CASES = {
    "scalar-scalar": (0.3, -0.2),
    "scalar-array": (0.3, np.array([-0.2, 0.9, -1.2])),
    "array-scalar": (np.array([0.05, 0.3, 1.0]), -0.2),
}
EVALUATORS = {
    "classify": (classify, int),
    "u_value": (u_value, float),
    "u_gradient_ext": (u_gradient_ext, float),
    "u_second_derivs": (u_second_derivs, float),
    "is_interior": (is_interior, bool),
}


class TestShapeContract:
    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_broadcast_and_scalar_types(self, ctx3, case, name):
        fn, scalar_type = EVALUATORS[name]
        x, y = SHAPE_CASES[case]
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        got = fn(ctx3, x, y)
        parts = got if isinstance(got, tuple) else (got,)
        xb, yb = np.broadcast_arrays(x, y)
        for i, part in enumerate(parts):
            if shape:
                assert isinstance(part, np.ndarray) and part.shape == shape
                # each entry equals the scalar call at that point
                for j in range(xb.size):
                    one = fn(ctx3, float(xb[j]), float(yb[j]))
                    assert (one[i] if isinstance(one, tuple) else one) == part[j]
            else:
                assert type(part) is scalar_type


class TestIsInterior:
    def test_scalar_boundary_is_false(self, ctx3):
        assert is_interior(ctx3, 0.3, 1.0) is False  # |y| = 1 is the D0 edge

    def test_second_derivs_report_flat_index(self, ctx3):
        x = np.full((2, 3), 0.3)
        y = np.array([[0.1, 0.2, 0.5], [0.55, 1.0, 0.1]])
        with pytest.raises(EvaluationError, match="index 4$"):
            u_second_derivs(ctx3, x, y)

    def test_second_derivs_classify_once(self, ctx3, monkeypatch):
        # the unperturbed points are classified once, for the interior test
        # and the formulas; the other four classifications are the moves,
        # and they see only the points near a region boundary
        sizes = []
        regions = uweak._regions
        monkeypatch.setattr(
            uweak, "_regions", lambda ctx, x, Y: sizes.append(x.size) or regions(ctx, x, Y)
        )
        x, y = _random_points(ctx3, 2000, seed=3)
        inner = is_interior(ctx3, x, y)
        sizes.clear()
        u_second_derivs(ctx3, x[inner], y[inner])
        assert len(sizes) == 5
        assert sizes[0] == np.count_nonzero(inner) > 1900
        assert max(sizes[1:]) <= 5

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    def test_bad_tol_rejected(self, ctx3, tol):
        # no band can be drawn: NaN flags no point, inf every one, and below 0 none
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            is_interior(ctx3, [0.3, 0.5, 1.2], [0.1, 0.9, 0.5], tol=tol)

    def test_zero_tol_is_interior_everywhere(self, ctx3):
        x = np.array([0.3, 0.5, 1.2, 0.3, 0.0])
        y = np.array([0.1, 0.9, 0.5, 1.0, 0.0])
        assert np.all(is_interior(ctx3, x, y, tol=0.0))


def _interior_by_moves(ctx, x, y, tol):
    """The definition: the label survives each of the four moves by tol."""
    base = classify(ctx, x, y)
    ok = np.ones(base.shape, dtype=bool)
    for dx, dy in ((tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol)):
        ok &= classify(ctx, np.maximum(x + dx, 0.0), y + dy) == base
    return ok


class TestInteriorBand:
    # is_interior moves only the points inside a band around the region
    # boundaries; on and around every boundary, the curved D5/D6 and D5/D7
    # edges included, it must agree with moving every point
    OFFSETS = np.array([0, 0.5, -0.5, 1, -1, 2, -2, 4, -4, 8, -8])

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0])
    def test_matches_the_definition(self, p):
        ctx = build_context(p)
        rng = np.random.default_rng(int(4 * p))
        curves = REGION_BOUNDARIES(ctx, 60)
        bx = np.concatenate([c[2] for c in curves])
        by = np.concatenate([c[3] for c in curves])
        for tol in (1e-8, 2e-5, 5e-4, 1e-3):
            d = np.multiply.outer(self.OFFSETS * tol, np.ones_like(bx))
            x = np.concatenate([np.maximum(bx + d, 0).ravel(), np.tile(bx, d.shape[0])])
            y = np.concatenate([np.tile(by, d.shape[0]), (by + d).ravel()])
            y = np.where(rng.random(y.size) < 0.5, y, -y)
            x = np.concatenate([x, rng.uniform(0, 2, 5000)])
            y = np.concatenate([y, rng.uniform(-1.5, 1.5, 5000)])
            want = _interior_by_moves(ctx, x, y, tol)
            assert 0 < np.count_nonzero(~want) < x.size
            assert np.array_equal(is_interior(ctx, x, y, tol=tol), want), (p, tol)

    def test_end_of_table_still_raises(self, ctx3):
        # a point just inside the table whose move by tol leaves it
        s_max = ctx3.g.s_max
        x, y = s_max - 0.5 - 1e-9, 0.5
        assert classify(ctx3, x, y) == 7
        for fn in (is_interior, _interior_by_moves):
            with pytest.raises(EvaluationError, match="beyond tabulated inverse domain"):
                fn(ctx3, np.array([x]), np.array([y]), 1e-8)
        assert is_interior(ctx3, x - 1e-6, y)


class TestBoundarySides:
    @pytest.mark.parametrize("p", [2.1, 2.5, 3.0, 6.0, 10.0, 13.0])
    def test_ulps_off_a_boundary_keep_its_two_labels(self, p):
        # each boundary is one slack, so a point ulps off it lies on one side:
        # two float forms of the D5/D6 curve could both fail at one point,
        # which then fell into D7
        ctx = build_context(p)
        ulps = np.arange(-2, 3)[:, None]
        for ra, rb, bx, by in REGION_BOUNDARIES(ctx, 1000):
            x = np.concatenate([(bx + ulps * np.spacing(bx)).ravel(), np.tile(bx, 5)])
            y = np.concatenate([np.tile(by, 5), (by + ulps * np.spacing(by)).ravel()])
            assert set(np.unique(classify(ctx, x, y))) <= {ra, rb}, (ra, rb)

    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
    def test_each_segment_parts_its_two_regions(self, p):
        # 1e-7 above and below each point of a segment lie one in each of its
        # two regions; the end samples, next to a corner, are left out, and
        # so is p = 13, where D6's strip under y = 1 is thinner than 1e-7
        ctx = build_context(p)
        for ra, rb, bx, by in REGION_BOUNDARIES(ctx, 200):
            bx, by = bx[1:-1], by[1:-1]
            above, below = classify(ctx, bx, by + 1e-7), classify(ctx, bx, by - 1e-7)
            assert np.all(np.minimum(above, below) == ra), (ra, rb)
            assert np.all(np.maximum(above, below) == rb), (ra, rb)


class TestBoundaryContinuity:
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_branch_gaps(self, p):
        ctx = build_context(p)
        worst = 0.0
        for ra, rb, bx, by in REGION_BOUNDARIES(ctx, 1000):
            gap = np.max(np.abs(u_branch(ctx, ra, bx, by) - u_branch(ctx, rb, bx, by)))
            worst = max(worst, float(gap))
        assert worst < 1e-6


class TestGradient:
    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
    def test_matches_finite_differences(self, p):
        ctx = build_context(p)
        x, y = _random_points(ctx, 4000, seed=4)
        inner = is_interior(ctx, x, y, tol=2e-5)
        x, y = x[inner], y[inner]
        e = 1e-6
        phi, psi = u_gradient_ext(ctx, x, y)
        fdx = (u_value(ctx, x + e, y) - u_value(ctx, np.maximum(x - e, 0), y)) / (
            e + np.minimum(x, e)
        )
        fdy = (u_value(ctx, x, y + e) - u_value(ctx, x, y - e)) / (2 * e)
        assert np.allclose(phi, fdx, atol=1e-5, rtol=1e-4)
        assert np.allclose(psi, fdy, atol=1e-5, rtol=1e-4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [2.1, 2.5])
    def test_axis_x_zero_origin_included(self, p):
        # at x = 0, U_y = 0 and U_x is a|y|^{p-1} on D1 (|y| < 1 - 2/p),
        # 2/(1 - |y|) - p^2/(2(p - 1)) on D3 (|y| < 1) and 0 on D0; at the
        # origin D1's (Y - x)^{p-3}, infinite for p < 3, enters only U''
        ctx = build_context(p)
        y = np.array([-1.0, -0.5, -0.01, 0.0, 0.01, 0.5, 1.0])
        a = p**p / (2 * (p - 1) * (p - 2) ** (p - 2))

        def u_x(Y):
            if Y >= 1:
                return 0.0
            return a * Y ** (p - 1) if Y < 1 - 2 / p else 2 / (1 - Y) - p**2 / (2 * (p - 1))

        want = [u_x(abs(v)) for v in y]
        phi, psi = u_gradient_ext(ctx, 0.0, y)
        assert phi == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert np.all(psi == 0)
        assert u_gradient_ext(ctx, 0.0, 0.0) == (0.0, 0.0)
        assert np.all(tangent_check(ctx, np.zeros(3), y[2:5], np.ones(3), np.ones(3)))

    def test_d0_row(self, ctx3):
        p = 3.0
        x = np.array([0.05, 0.2, 0.4])
        y = np.full_like(x, 1.2)
        phi, psi = u_gradient_ext(ctx3, x, y)
        assert np.allclose(psi, 0.0, atol=1e-14)
        assert np.allclose(phi, -(p ** (p + 1)) / (2**p * (p - 1)) * x ** (p - 1))

    def test_psi_nonneg_upper_half(self, ctx3):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, 20000)
        y = rng.uniform(0, 1.5, 20000)
        _, psi = u_gradient_ext(ctx3, x, y)
        assert float(np.min(psi)) >= -1e-12


class TestSecondDerivatives:
    def test_d3_rows(self, ctx3):
        # inside D3: U_xx = -4(1-y)/(1+x-y)^3, U_yy = 4x/(1+x-y)^3
        pts = [(0.05, 0.75), (0.1, 0.8)]
        for x, y in pts:
            assert classify(ctx3, x, y) == 3
            uxx, uxy, uyy = u_second_derivs(ctx3, x, y)
            assert uxx == pytest.approx(-4 * (1 - y) / (1 + x - y) ** 3, rel=1e-12)
            assert uyy == pytest.approx(4 * x / (1 + x - y) ** 3, rel=1e-12)

    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
    def test_matches_finite_differences(self, p):
        ctx = build_context(p)
        x, y = _random_points(ctx, 500, seed=11)
        keep = is_interior(ctx, x, y, tol=5e-4) & (x > 1e-3)
        x, y = x[keep], y[keep]
        e = 1e-4
        uxx, uxy, uyy = u_second_derivs(ctx, x, y)
        f = lambda a, b: u_value(ctx, a, b)
        fd_xx = (f(x + e, y) - 2 * f(x, y) + f(x - e, y)) / e**2
        fd_yy = (f(x, y + e) - 2 * f(x, y) + f(x, y - e)) / e**2
        fd_xy = (f(x + e, y + e) - f(x + e, y - e) - f(x - e, y + e) + f(x - e, y - e)) / (4 * e**2)
        assert np.allclose(uxx, fd_xx, atol=1e-4, rtol=1e-3)
        assert np.allclose(uyy, fd_yy, atol=1e-4, rtol=1e-3)
        assert np.allclose(uxy, fd_xy, atol=1e-4, rtol=1e-3)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_mixed_derivative_per_region(self, p):
        # U_xy against a mixed central difference of U, region by region; and
        # U_xy = s(U_xx+U_yy)/2 with s = +-1, i.e. U is affine along (1, -s)
        ctx = build_context(p)
        x, y = _random_points(ctx, 20000, seed=12)
        keep = is_interior(ctx, x, y, tol=5e-4) & (x > 1e-3)
        x, y = x[keep], y[keep]
        labels = classify(ctx, x, y)
        uxx, uxy, uyy = u_second_derivs(ctx, x, y)
        e = 1e-4
        f = lambda a, b: u_value(ctx, a, b)
        fd_xy = (f(x + e, y + e) - f(x + e, y - e) - f(x - e, y + e) + f(x - e, y - e)) / (4 * e**2)
        s = np.sign(uxy * (uxx + uyy))
        fd_diag = (f(x + e, y - s * e) - 2 * f(x, y) + f(x - e, y + s * e)) / e**2
        scale = np.abs(uxx) + np.abs(uyy)
        for r in range(1, 7):
            m = labels == r
            assert np.count_nonzero(m) >= 20, f"D{r}"
            assert np.allclose(uxy[m], fd_xy[m], atol=1e-4, rtol=1e-3), f"D{r}"
            assert np.all(np.abs(fd_diag[m]) <= 1e-4 + 1e-3 * scale[m]), f"D{r}"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [12.0, 14.0, 16.0, 20.0])
    def test_d6_sliver_is_concave(self, p):
        # D6 is the sliver 1 - |y| < u(t)/2 along t = x - |y| + 1, which a box
        # sample misses at large p; drawn as t and 1 - Y = f u(t)/2, its
        # Hessian form over the slopes |s| <= 1 read 3.0e-8, 5.8e-6, 1.0e-3
        # and 2.2e-3 of max(1, |H|) at p = 12, 14, 16 and 20 when u past t*
        # was a spline with slopes 1 - G', and reads <= 1.2e-14 now
        ctx = build_context(p)
        rng = np.random.default_rng(0)
        t = rng.uniform(2 / p, 10.0, 4000)
        Y = 1 - rng.uniform(0.05, 0.95, t.size) * ctx.g.gap(t) / 2
        x = t + Y - 1
        d6 = classify(ctx, x, Y) == 6
        assert np.count_nonzero(d6) >= 1000
        _, _, _, uxx, uxy, uyy = uweak._jets(ctx, 6, x[d6], Y[d6], None)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.clip(-uxy / uyy, -1.0, 1.0)  # the vertex; NaN where U_xy = U_yy = 0
        sup = np.fmax(uxx + 2 * np.abs(uxy) + uyy, uxx + 2 * uxy * v + uyy * v * v)
        scale = np.maximum(1, np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))))
        assert np.max(sup / scale) <= 1e-12

    def test_diffusion_dominance(self, ctx3):
        x, y = _random_points(ctx3, 20000, seed=6)
        inner = is_interior(ctx3, x, y)
        uxx, uxy, uyy = u_second_derivs(ctx3, x[inner], y[inner])
        assert np.all(uxx <= -np.abs(uyy) + 1e-10)

    def test_quadratic_form_nonpositive(self, ctx3):
        rng = np.random.default_rng(7)
        x, y = _random_points(ctx3, 20000, seed=7)
        inner = is_interior(ctx3, x, y)
        uxx, uxy, uyy = u_second_derivs(ctx3, x[inner], y[inner])
        for _ in range(10):
            h = rng.uniform(-1, 1, uxx.size)
            k = h * rng.uniform(-1, 1, uxx.size)
            form = uxx * h**2 + 2 * uxy * h * k + uyy * k**2
            assert float(np.max(form)) <= 1e-10

    def test_boundary_point_rejected(self, ctx3):
        with pytest.raises(EvaluationError):
            u_second_derivs(ctx3, 0.3, 1.0)


class TestTangent:
    def test_pinned(self, ctx3):
        assert tangent_check(ctx3, 0.0, 0.0, 1.0, 1.0)
        assert tangent_check(ctx3, 0.4, 0.2, 0.0, 0.0)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_randomized(self, p):
        ctx = build_context(p)
        rng = np.random.default_rng(8)
        n = 100_000
        x = rng.uniform(0, 1.8, n)
        y = rng.uniform(-1 + 1e-6, 1 - 1e-6, n)
        h = np.maximum(rng.uniform(-1, 1, n), -x)
        k = h * rng.uniform(-1, 1, n)
        assert np.all(tangent_check(ctx, x, y, h, k))

    def test_oversized_k_rejected(self, ctx3):
        with pytest.raises(ValueError):
            tangent_check(ctx3, 0.2, 0.0, 0.1, 0.2)


def _diagonal_slope_gap(ctx, x, y, t):
    """phi - psi along the diagonal segment (x + t, y + t)."""
    phi, psi = u_gradient_ext(ctx, x + t, y + t)
    return phi - psi


class TestDiagonalMonotone:
    # phi - psi is non-increasing along every diagonal segment in the strip
    def test_deep_region_segment(self, ctx3):
        # far right of the strip psi vanishes and phi decreases in x
        t = np.linspace(0, 0.3, 50)
        assert np.all(np.diff(_diagonal_slope_gap(ctx3, 3.0, 0.1, t)) <= 1e-9)

    def test_random_segments(self, ctx3):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = rng.uniform(0, 1.5)
            y = rng.uniform(-0.9, 0.5)
            span = rng.uniform(0.01, min(0.4, 0.99 - y))
            t = np.linspace(0, span, 20)
            assert np.all(np.diff(_diagonal_slope_gap(ctx3, x, y, t)) <= 1e-9)


class TestMajorization:
    def test_pinned(self, ctx3):
        assert u_value(ctx3, 0.0, 1.5) == pytest.approx(v_value(ctx3, 0.0, 1.5))
        assert u_value(ctx3, 0.2, 0.0) == pytest.approx(v_value(ctx3, 0.2, 0.0))

    def test_randomized(self, ctx3):
        x, y = _random_points(ctx3, 100_000, seed=10, x_hi=2.5)
        assert np.all(majorization_check(ctx3, x, y))
