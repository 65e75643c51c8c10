"""Tests for the capped quadratic special function W and its tangent and
bound inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpmart.wfun import w_bounds_check, w_gradient_ext, w_tangent_check, w_value

COORD = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
SIGNED = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestValues:
    @pytest.mark.parametrize(
        "pt,expected",
        [((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0), ((0.25, 0.25), 0.5), ((2.0, 0.5), 1.0)],
    )
    def test_pinned(self, pt, expected):
        assert w_value(*pt) == pytest.approx(expected, abs=1e-15)

    def test_even_in_y(self):
        x = np.linspace(0, 2, 50)
        y = np.linspace(-1.5, 1.5, 50)
        assert np.array_equal(w_value(x, y), w_value(x, -y))

    def test_continuous_across_cap(self):
        t = np.linspace(0, 1, 200)
        inner = w_value(t, (1 - t) - 1e-12)
        outer = w_value(t, (1 - t) + 1e-12)
        assert float(np.max(np.abs(inner - outer))) < 1e-11

    def test_range_on_domain(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 5000)
        y = rng.uniform(-1, 1, 5000)
        w = w_value(x, y)
        sel = (x + np.abs(y) <= 1) | (x + np.abs(y) >= 1)
        assert np.all(w[sel] >= -1e-15) and np.all(w[sel] <= 1 + 1e-15)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            w_value(-0.1, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fn", [w_value, w_gradient_ext])
    @pytest.mark.parametrize(
        "pt",
        [(0.5, np.nan), (np.nan, 0.1), ([0.2, np.nan], 0.0), (np.inf, 0.1), ([0.2, np.inf], 0.0)],
    )
    def test_nan_rejected(self, fn, pt):
        # NaN fails the inner-triangle test and would read as W = 1; so would
        # an infinite x, after inf - inf in the other branch
        with pytest.raises(ValueError, match="NaN, and x must be finite"):
            fn(*pt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_y_is_outside_the_triangle(self):
        for y in (np.inf, -np.inf):
            assert w_value(0.5, y) == 1.0
            assert w_gradient_ext(0.5, y) == (0.0, 0.0)


class TestGradient:
    @pytest.mark.parametrize(
        "pt,expected",
        [((0.0, 0.0), (2.0, 0.0)), ((2.0, 0.0), (0.0, 0.0)), ((0.5, -0.3), (1.0, -0.6))],
    )
    def test_pinned(self, pt, expected):
        phi, psi = w_gradient_ext(*pt)
        assert (float(phi), float(psi)) == pytest.approx(expected)

    def test_boundary_uses_inner_branch(self):
        phi, psi = w_gradient_ext(0.5, 0.5)
        assert (float(phi), float(psi)) == (1.0, 1.0)


class TestTangent:
    def test_pinned_example(self):
        assert w_tangent_check(0.3, 0.1, 0.1, 0.1)
        assert w_tangent_check(0.0, 0.0, 0.0, 0.0)

    @given(x=COORD, y=SIGNED, h=SIGNED, frac=st.floats(min_value=-1, max_value=1))
    @settings(max_examples=500, deadline=None)
    def test_property(self, x, y, h, frac):
        h = max(h, -x)
        assert w_tangent_check(x, y, h, h * frac)

    def test_randomized_bulk(self):
        rng = np.random.default_rng(1)
        n = 100_000
        x = rng.uniform(0, 2.5, n)
        y = rng.uniform(-2, 2, n)
        h = np.maximum(rng.uniform(-1.5, 1.5, n), -x)
        k = h * rng.uniform(-1, 1, n)
        assert np.all(w_tangent_check(x, y, h, k))

    def test_oversized_second_jump_rejected(self):
        with pytest.raises(ValueError):
            w_tangent_check(0.3, 0.0, 0.0, 0.1)

    def test_misprinted_convention_is_false(self):
        # with the jump roles swapped the inequality genuinely fails,
        # which is why the precondition reads |k| <= |h|
        x, y, h, k = 0.3, 0.0, 0.0, 0.1
        phi, psi = w_gradient_ext(x, y)
        assert w_value(x + h, y + k) > w_value(x, y) + phi * h + psi * k


class TestBounds:
    def test_indicator_bound(self):
        assert w_bounds_check(0.6, 0.5)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 2, 20000)
        y = rng.uniform(-2, 2, 20000)
        assert np.all(w_bounds_check(x, y))

    def test_power_bound_on_cone(self):
        assert w_value(0.4, 0.4) == pytest.approx(0.8)
        assert w_bounds_check(0.4, 0.4, p=0.5)
        x = np.linspace(1e-6, 0.499999, 500)
        for p in np.arange(0.1, 1.0, 0.1):
            assert np.all(w_bounds_check(x, x, p=float(p)))

    def test_power_bound_needs_small_p(self):
        with pytest.raises(ValueError):
            w_bounds_check(0.4, 0.4, p=1.5)
