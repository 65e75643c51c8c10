"""Tests for the monotone Riccati solution G and its inverse h.

Two independent constructions (a Magnus scan and outer series of the gap,
the Bessel linearization) act as mutual oracles; the defining equation
itself is the third.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from sharpmart import gfun
from sharpmart.gfun import (
    ConstructionError,
    GSolution,
    build_g_bessel,
    build_g_rk,
    h_of,
    h_prime,
)

P_VALUES = [2.5, 3.0, 4.0, 6.0, 8.0]


@pytest.fixture(scope="module", params=P_VALUES)
def pair(request):
    p = request.param
    return p, build_g_rk(p), build_g_bessel(p)


class TestInitialConditions:
    def test_start_point(self, pair):
        p, rk, bes = pair
        for sol in (rk, bes):
            assert sol.g(2 / p) == pytest.approx(1.0, abs=1e-12)
            assert sol.gprime(2 / p) == pytest.approx(p / 2, rel=1e-9)


class TestCrossValidation:
    def test_sup_gap_below_tolerance(self, pair):
        p, rk, bes = pair
        t = np.linspace(2 / p, min(rk.t_max, bes.t_max), 20001)
        assert float(np.max(np.abs(rk.g(t) - bes.g(t)))) < 1e-6

    def test_equation_residual_at_random_points(self, pair):
        p, rk, bes = pair
        rng = np.random.default_rng(3)
        t = rng.uniform(2 / p, rk.t_max, 500)
        for sol in (rk, bes):
            g = sol.g(t)
            resid = np.abs(sol.gprime(t) - (p / 2) ** (p + 1) * t ** (p - 2) * (t + 1 - g) ** 2)
            assert float(np.max(resid)) < 1e-8

    @pytest.mark.parametrize(
        "p, spline_tol", [(2.5, 1e-12), (3.0, 1e-12), (4.0, 1e-12), (6.0, 1e-12), (10.0, 1e-10)]
    )
    def test_gap_matches_the_bessel_gap(self, p, spline_tol):
        # relative errors; LSODA's nodes erred by 3.4e-12 to 5.0e-12, and its
        # spline by up to 1.0e-8 at p = 10
        sol = build_g_rk(p)
        assert np.max(np.abs(sol.u_values / gfun._bessel_gap(p, sol.grid) - 1)) <= 1e-12
        t = np.linspace(2 / p, 10.0, 200_000)
        assert np.max(np.abs(sol.gap(t) / gfun._bessel_gap(p, t) - 1)) <= spline_tol

    def test_refinement_stability(self, monkeypatch):
        coarse = build_g_rk(3.0)
        # twice the scan nodes, and twice the series nodes
        monkeypatch.setattr(gfun, "_SCAN_NODES", 2 * gfun._SCAN_NODES)
        monkeypatch.setattr(gfun, "_SERIES_RATIO", 1 + (gfun._SERIES_RATIO - 1) / 2)
        gfun._scan_table.cache_clear()
        fine = build_g_rk(3.0)
        assert fine.grid.size > 2 * coarse.grid.size - 5
        t = np.linspace(2 / 3, coarse.t_max, 2000)
        assert float(np.max(np.abs(coarse.g(t) - fine.g(t)))) < 1e-9


class TestSlopeFromGap:
    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_matches_table_at_nodes(self, build):
        # G' is read from the interpolated gap, so at the nodes it is the
        # tabulated G', bit for bit (verify ode reads gprime_values there);
        # rebuilt from t + 1 - G it is off by 9e-8 at p = 10
        for p in (3.0, 10.0):
            sol = build(p)
            assert np.array_equal(sol.gprime(sol.grid), sol.gprime_values)

    def test_slope_between_nodes_at_p10(self):
        # G' - 1 falls to 5.7e-9 at t = 10; from t + 1 - G it read 1 - 4e-7
        # here, and the LSODA table's spline dipped to 1 - 7.1e-9 between
        # nodes near t = 9.8
        sol = build_g_rk(10.0)
        t = np.linspace(2 / 10, sol.t_max, 200_000)
        assert float(np.min(sol.gprime(t))) >= 1


class TestJets:
    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
    def test_gap_jet_against_differences_of_the_bessel_gap(self, p):
        # 4th-order central differences of the Bessel closed form, step
        # 1e-3 t, read u' to 5.9e-11 and u'' to 1.5e-9 of max(1, |u''|)
        sol = build_g_rk(p)
        t = np.random.default_rng(3).uniform(2 / p + 0.01, 9.9, 500)
        u, du, d2u = sol.gap_jet(t)
        h = 1e-3 * t
        um2, um1, u0, up1, up2 = gfun._bessel_gap(p, t + np.arange(-2.0, 3.0)[:, None] * h)
        fd1 = (8 * (up1 - um1) - (up2 - um2)) / (12 * h)
        fd2 = (16 * (up1 + um1) - (up2 + um2) - 30 * u0) / (12 * h * h)
        assert np.array_equal(u, sol.gap(t))
        assert float(np.max(np.abs(du - fd1))) <= 1e-9
        assert float(np.max(np.abs(d2u - fd2) / np.maximum(1, np.abs(d2u)))) <= 1e-8

    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_at_the_nodes_the_jet_reads_the_table(self, build):
        sol = build(3.0)
        u, du, _ = sol.gap_jet(sol.grid)
        assert np.array_equal(u, sol.u_values)
        assert np.array_equal(du, 1 - sol.gprime_values)

    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
    def test_h_jet_is_h_prime_and_its_slope(self, p):
        # h'' against a central difference of h', step 1e-4: within 3.5e-7
        # of max(1e-3, |h''|)
        sol = build_g_rk(p)
        s = np.random.default_rng(3).uniform(1.05, sol.s_max - 0.05, 500)
        hp, hpp = sol.h_jet(h_of(sol, s))
        assert np.array_equal(hp, h_prime(sol, s))
        fd = (h_prime(sol, s + 1e-4) - h_prime(sol, s - 1e-4)) / 2e-4
        assert float(np.max(np.abs(hpp - fd) / np.maximum(1e-3, np.abs(hpp)))) <= 1e-5


class TestShape:
    def test_slope_at_least_one(self, pair):
        p, rk, _ = pair
        t = np.linspace(2 / p, rk.t_max, 5000)
        assert float(np.min(rk.gprime(t))) >= 1 - 1e-12

    def test_below_diagonal_shift(self, pair):
        p, rk, _ = pair
        t = np.linspace(2 / p, rk.t_max, 5000)
        assert np.all(rk.g(t) < t + 1)

    def test_domain_enforced(self, pair):
        p, rk, _ = pair
        for bad in (2 / p - 0.1, rk.t_max + 1.0, math.inf, math.nan, [1.0, math.nan]):
            for read in (rk.g, rk.gap, rk.gprime):
                with pytest.raises(ValueError, match="outside tabulated range"):
                    read(bad)

    def test_inverse_domain_enforced(self, pair):
        # a NaN sorted last and took the end fix: h_of(nan) read t_max
        p, rk, _ = pair
        for bad in (0.5, rk.s_max + 1.0, math.inf, math.nan, [1.5, math.nan]):
            for read in (h_of, h_prime):
                with pytest.raises(ValueError, match="outside|s > 1"):
                    read(rk, bad)


class TestInverse:
    def test_inversion_identity(self, pair):
        p, rk, _ = pair
        s = np.linspace(1.0, rk.s_max, 1000)
        assert float(np.max(np.abs(rk.g(h_of(rk, s)) - s))) < 1e-9

    def test_start_values(self, pair):
        p, rk, _ = pair
        assert h_of(rk, 1.0) == pytest.approx(2 / p, abs=1e-10)
        # right-slope at s = 1 equals 2/p: h'(s) -> (2/p)^{p+1} (2/p)^{2-p} (2/p)^{-2}
        slope = h_prime(rk, 1 + 1e-9)
        assert slope == pytest.approx(2 / p, rel=1e-6)

    def test_slope_at_most_one(self, pair):
        p, rk, _ = pair
        s = np.linspace(1 + 1e-9, rk.s_max, 1000)
        hp = h_prime(rk, s)
        assert float(np.max(hp)) <= 1 + 1e-9
        assert float(np.min(hp)) > 0

    def test_matches_finite_difference(self):
        rk = build_g_rk(3.0)
        s = np.linspace(1.5, 5.0, 50)
        e = 1e-6
        fd = (h_of(rk, s + e) - h_of(rk, s - e)) / (2 * e)
        assert np.allclose(h_prime(rk, s), fd, rtol=1e-5)


def _h_newton_on_spline(sol, s):
    """Newton on the spline of G, kept inside the interval of the table that
    holds each s and bisected there wherever a step leaves the bracket: the
    reference h_of's three steps from the interval's chord are checked against.
    It stops once no point moves by more than 1e-14."""
    g, x = sol.g_values, sol.grid
    i = np.clip(np.searchsorted(g, s, side="right") - 1, 0, g.size - 2)
    lo, hi = x[i], x[i + 1]
    t = np.interp(s, g, x)
    for _ in range(100):
        f = sol.g(t) - s
        lo = np.where(f < 0, t, lo)
        hi = np.where(f > 0, t, hi)
        step = t - f / sol.gprime(t)
        t_new = np.where((step >= lo) & (step <= hi), step, (lo + hi) / 2)
        if np.max(np.abs(t_new - t)) <= 1e-14:
            return t_new
        t = t_new
    raise AssertionError("the reference did not converge")


class TestInverseLookup:
    def test_equals_scalar_calls_in_any_order_and_shape(self, pair):
        p, rk, bes = pair
        rng = np.random.default_rng(11)
        for sol in (rk, bes):
            s = rng.uniform(1.0, sol.s_max, 1000)
            s = np.concatenate([s, s[:99], sol.g_values[::500], [1.0, sol.s_max]])
            rng.shuffle(s)
            s = s[: s.size // 2 * 2].reshape(2, -1)
            got = h_of(sol, s)
            assert got.shape == s.shape
            want = np.array([h_of(sol, float(v)) for v in s.ravel()]).reshape(s.shape)
            assert np.array_equal(got, want)

    def test_hits_ends_and_nodes_exactly(self, pair):
        p, rk, bes = pair
        for sol in (rk, bes):
            assert h_of(sol, 1.0) == 2 / p
            assert h_of(sol, sol.s_max) == sol.t_max
            assert np.array_equal(h_of(sol, sol.g_values), sol.grid)

    @pytest.mark.parametrize("p", P_VALUES + [20.0, 30.0])
    def test_agrees_with_newton_on_the_spline(self, p):
        # global Newton from linear interpolation, the reference before,
        # left 117 points up to 2.2 off at p = 20 and 75 up to 8.7 at p = 30
        rk = build_g_rk(p)
        s = np.random.default_rng(17).uniform(1.0, rk.s_max, 100_000)
        assert float(np.max(np.abs(h_of(rk, s) - _h_newton_on_spline(rk, s)))) <= 1e-13

    @pytest.mark.parametrize("p", [2.5, 3.0, 10.0, 20.0, 30.0])
    @pytest.mark.parametrize("every", [100, 300])
    def test_agrees_with_newton_on_a_thinned_table(self, p, every):
        # on 13 to 126 nodes, two Newton steps from the interval's chord
        # leave up to 2.0e-9 (33-43 nodes at p = 10-30): the third is needed
        full = build_g_rk(p)
        keep = np.r_[np.arange(0, full.grid.size - 1, every), full.grid.size - 1]
        sol = GSolution(p, full.grid[keep], full.u_values[keep])
        s = np.random.default_rng(17).uniform(1.0, sol.s_max, 100_000)
        assert float(np.max(np.abs(h_of(sol, s) - _h_newton_on_spline(sol, s)))) <= 1e-13


class TestSplineAgainstScipy:
    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    @pytest.mark.parametrize("p", [3.0, 10.0])
    def test_hermite_matches_cubic_hermite_spline(self, build, p):
        # the gap spline is numpy's own; scipy's on the same (t, u, 1 - G')
        # is the reference, on the nodes, both ends and 1e4 points between
        sol = build(p)
        ref = CubicHermiteSpline(sol.grid, sol.u_values, 1 - sol.gprime_values)
        t = np.concatenate([sol.grid, np.random.default_rng(5).uniform(2 / p, 10.0, 10_000)])
        want = ref(t)
        assert np.all(np.abs(sol.gap(t) - want) <= 4 * np.spacing(np.abs(want)))
        assert np.all(np.abs(sol._spline.c - ref.c) <= 4 * np.spacing(np.abs(ref.c)))


class TestErrors:
    def test_failed_integration_is_a_construction_error(self):
        # at p = 160, c t^{p-2} overflows a double from t = 1.03 and u^2
        # underflows from t = 1.3, so G' on the table is inf, then NaN
        with pytest.raises(ConstructionError, match="slope < 1 or not finite at t=1.02"):
            build_g_rk(160.0)

    def test_construction_errors_name_p(self):
        with pytest.raises(ConstructionError, match=r"at t=1\.02\d* \(p = 160\.0\)$"):
            build_g_rk(160.0)
        grid = np.array([2 / 3, 1.0, 2.0])
        with pytest.raises(ConstructionError, match=r"violated at t=2\.0 \(p = 3\.0\)$"):
            GSolution(3.0, grid, np.array([2 / 3, 0.7, 0.0]))

    def test_p_must_exceed_two(self):
        for p in (2.0, 1.5, 0.5):
            with pytest.raises((ValueError, ConstructionError)):
                build_g_rk(p)

    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_p_must_be_finite(self, build):
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match="requires finite p > 2"):
                build(p)

    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_coefficient_overflow_is_a_construction_error(self, build):
        # (p/2)^(p+1) is 2.5e306 at p = 160 and past a double at p = 170
        with pytest.raises(ConstructionError, match="overflows a double at p = 170"):
            build(170.0)

    def test_default_span(self):
        for build in (build_g_rk, build_g_bessel):
            assert build(3.0).t_max == 10.0
            assert build(6.0).t_max == 10.0

    def test_solution_validation(self):
        # at p = 3 the start is t = u = 2/3, and G' = (3/2)^4 t u^2
        grid = np.array([2 / 3, 1.0, 2.0])
        GSolution(3.0, grid, np.array([2 / 3, 0.7, 0.6]))
        cases = [
            ("strictly increasing", np.array([2 / 3, 2.0, 2.0]), [2 / 3, 0.7, 0.6]),
            ("must start", grid, [0.7, 0.7, 0.6]),
            ("G < t\\+1", grid, [2 / 3, 0.7, 0.0]),
            ("G < t\\+1", grid, [2 / 3, np.nan, 0.6]),
            ("not increasing", grid, [2 / 3, 1.5, 0.6]),
            ("slope < 1", grid, [2 / 3, 0.4, 0.6]),
        ]
        for match, t, u in cases:
            with pytest.raises(ConstructionError, match=match):
                GSolution(3.0, t, np.array(u))
        # at p = 160, c t^{p-2} overflows a double at t = 2: G' there is inf,
        # or NaN where u^2 underflows too (a NaN passed the check
        # gp < 1 - 1e-12, and the spline then read NaN between nodes)
        grid = np.array([2 / 160, 0.5, 1.0, 2.0])
        for u_last in (1e-100, 1e-300):
            with pytest.raises(ConstructionError, match="slope < 1 or not finite at t=2.0"):
                GSolution(160.0, grid, np.array([2 / 160, 1e-20, 1e-60, u_last]))

    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_g_is_its_gap(self, build):
        sol = build(3.0)
        t = np.random.default_rng(5).uniform(2 / 3, sol.t_max, 1000)
        assert np.array_equal(sol.g(t), t + 1 - sol.gap(t))
        assert np.array_equal(sol.gap(sol.grid), sol.u_values)


class TestMemo:
    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_a_repeated_build_is_the_same_table(self, build):
        assert build(3.0) is build(3.0)

    @pytest.mark.parametrize("build", [build_g_rk, build_g_bessel])
    def test_shared_arrays_are_read_only(self, build):
        # each write puts back the value it read, so a table left writable
        # fails here without corrupting the tests that share it
        sol = build(3.0)
        for a in (sol.grid, sol.u_values, sol.g_values, sol.gprime_values, sol._spline.c):
            first = (0,) * a.ndim
            with pytest.raises(ValueError, match="read-only"):
                a[first] = a[first]

    def test_at_most_eight_tables_are_kept(self):
        for p in np.linspace(2.5, 7.0, 10):
            build_g_rk(float(p))
            build_g_bessel(float(p))
        assert gfun._scan_table.cache_info().currsize <= 8
        assert gfun._bessel_table.cache_info().currsize <= 8

    @pytest.mark.parametrize("build, refused", [(build_g_rk, 160.0), (build_g_bessel, 12.0)])
    def test_refused_p_raises_on_every_call(self, build, refused):
        # a cache keeps no exception, so each call checks p and builds again
        for _ in range(2):
            with pytest.raises(ValueError, match="requires finite p > 2"):
                build(math.nan)
        for _ in range(2):
            with pytest.raises(ConstructionError, match="slope < 1|non-finite Bessel"):
                build(refused)


class TestBesselRoute:
    def test_builds_where_the_gap_is_tiny(self):
        # G' is tabulated from the gap u itself; recomputing it from
        # t + 1 - G loses u to cancellation at these exponents.
        for p in (8.0, 10.0):
            sol = build_g_bessel(p)
            assert float(np.min(sol.gprime_values)) >= 1 - 1e-12

    def test_non_finite_bessel_values_are_a_construction_error(self):
        # The scaled I_nu and K_nu are NaN from z = 2^30 on, where scipy's
        # ive and kve (their test oracle) read NaN too; p = 12 reaches
        # z ~ 1.9e10, and that must surface as a construction error.
        with pytest.raises(ConstructionError, match="non-finite Bessel value"):
            build_g_bessel(12.0)

    def test_overflowing_scale_is_a_construction_error(self):
        # (p/2)^{p+1} t^{p-1} overflows a double at p = 160; under the
        # RuntimeWarning filter an overflow warning would fail this first
        with pytest.raises(ConstructionError, match=r"non-finite Bessel value.*p = 160"):
            build_g_bessel(160.0)

    def test_import_does_not_load_mpmath(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        code = "import sys, sharpmart; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"
