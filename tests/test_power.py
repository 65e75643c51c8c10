"""Power of the verification suites: each named mutation of what a suite
checks must turn its verdict False (or, for an input it cannot check,
refuse it), so a suite cannot pass having checked nothing."""

from types import SimpleNamespace

import numpy as np
import pytest

from sharpmart import extremal, gfun, orth, uweak, verify, wfun
from sharpmart.verify import run_suite


@pytest.mark.parametrize("factor", [1 - 1e-2, 1 + 1e-2])
def test_u_orth_sees_kp_off_by_one_percent(monkeypatch, factor):
    kp_value = orth.OrthContext.kp_value.fget
    monkeypatch.setattr(
        orth.OrthContext, "kp_value", property(lambda ctx: factor * kp_value(ctx))
    )
    ok, report = run_suite("u-orth", n=5)
    assert not ok
    assert report["center_identity"] > report["pointwise_tol"]


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("p", [1.25, 1.5])
def test_u_orth_sees_kp_off_by_one_in_a_million(monkeypatch, p, factor):
    kp_value = orth.OrthContext.kp_value.fget
    monkeypatch.setattr(
        orth.OrthContext, "kp_value", property(lambda ctx: factor * kp_value(ctx))
    )
    ok, report = run_suite("u-orth", p=p, n=5)
    assert not ok
    assert report["pointwise_tol"] < report["center_identity"]


def test_w_refuses_an_exponent_it_cannot_check():
    # an exponent the bound W <= (2x)^p does not hold for is refused, not
    # replaced by the default
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        run_suite("w", p=7.0, n=100)


def test_w_sees_w_off_by_one_percent(monkeypatch):
    w_value = wfun.w_value
    monkeypatch.setattr(wfun, "w_value", lambda x, y: (1 + 1e-2) * w_value(x, y))
    ok, report = run_suite("w", n=2_000)
    assert not ok
    assert report["equality_gap"] > 1e-3


@pytest.mark.parametrize("region", range(8))
def test_u_weak_sees_one_region_shifted(monkeypatch, region):
    value = uweak._value

    def shifted(ctx, r, x, Y, h):
        return value(ctx, r, x, Y, h) + (1e-6 if r == region else 0.0)

    monkeypatch.setattr(uweak, "_value", shifted)
    ok, report = run_suite("u-weak", n=2_000)
    assert not ok
    assert report["boundary_gap_scaled_max"] > 1e-10


@pytest.mark.parametrize("coord", ["x", "Y"])
@pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
def test_u_weak_sees_a_convex_term_of_1e_8(monkeypatch, p, coord):
    # U + 1e-8 x^2 or U + 1e-8 |y|^2 raises the sup of the Hessian form over
    # the slopes |k/h| <= 1 by 2e-8, against 8.1e-14 at most unperturbed over
    # p = 2.25-112; a form read at one random slope per point read -1.07e-8
    # at p = 3 and let both pass.  The term is smooth, so no other row moves
    value = uweak._value

    def convex(ctx, r, x, Y, h):
        t = x if coord == "x" else Y
        return value(ctx, r, x, Y, h) + 1e-8 * t * t

    monkeypatch.setattr(uweak, "_value", convex)
    ok, report = run_suite("u-weak", p=p, n=2_000)
    assert not ok
    assert report["hessian_form_sup_scaled_max"] > 1e-12
    assert report["boundary_gap_scaled_max"] < 1e-10
    assert report["tangent_ok"] and report["majorization_ok"]
    assert report["n_interior"] > 0
    assert report["diagonal_nonpos_max"] <= 1e-9
    assert report["u_y_min_upper_half"] >= -1e-9


@pytest.mark.parametrize("factor", [1 - 1e-2, 1 + 1e-2])
@pytest.mark.parametrize("p", [3.0, 6.0])
def test_u_weak_sees_the_constant_off_by_one_percent(monkeypatch, p, factor):
    # unscaled, the scaled boundary gap is 1.2e-14 at p = 3 and 4.5e-14 at
    # p = 6; off by 1 %, it is 5.0e-3 and 4.0e-3
    constant = uweak.weak_constant_pth_power
    monkeypatch.setattr(uweak, "weak_constant_pth_power", lambda q: factor * constant(q))
    ok, report = run_suite("u-weak", p=p, n=2_000)
    assert not ok
    assert report["boundary_gap_scaled_max"] > 1e-3


def test_ode_sees_a_wrong_gap(monkeypatch):
    # a relative error of 1e-7 (t - 2/p) in the Bessel gap: the gap equation
    # and the relative cross check at the Bessel nodes now both see it
    bessel_gap = gfun._bessel_gap
    monkeypatch.setattr(
        gfun, "_bessel_gap", lambda p, t: bessel_gap(p, t) * (1 + 1e-7 * (t - 2 / p))
    )
    ok, report = run_suite("ode", p=3.0)
    assert not ok
    assert report["cross_method_rel_max"] > 1e-9
    assert report["ode_residual_max"] > 1e-8


def test_extremal_reports_the_p_lt1_martingales(monkeypatch):
    build = extremal.build_p_lt1_example

    def broken():
        _, g, small_p = build()
        return SimpleNamespace(check_martingale=lambda: False), g, small_p

    monkeypatch.setattr(extremal, "build_p_lt1_example", broken)
    ok, report = run_suite("extremal")
    assert not ok
    assert report["p_lt1_martingales"] is False


def test_extremal_sees_the_constant_halved(monkeypatch):
    # at p = 3 the primed ratio is 0.854 of c_p^p; against half of c_p^p it
    # exceeds the bound the theorem puts on every primed ratio
    constant = verify.weak_constant_pth_power
    monkeypatch.setattr(verify, "weak_constant_pth_power", lambda q: 0.5 * constant(q))
    ok, report = run_suite("extremal", p=3.0)
    assert not ok
    assert report["primed_ratio_over_constant"] > 1.7
    assert report["x_martingale"] and report["ratio_fast_vs_direct"] < 1e-12


@pytest.mark.parametrize("n", [5, 60])
def test_u_orth_sees_the_p2_closed_form(monkeypatch, n):
    # x^2 / 1e4 leaves U(0, 0), and so K_p, alone: the closed form
    # x^2 + 1 - y^2 sees it, and so does the ring mean, x^2 not being harmonic
    u_orth = orth.u_orth
    monkeypatch.setattr(orth, "u_orth", lambda ctx, x, y: u_orth(ctx, x, y) + 1e-4 * x * x)
    ok, report = run_suite("u-orth", p=2.0, n=n)
    assert not ok
    assert report["closed_form_gap"] > report["pointwise_tol"]
    assert report["mean_value_max"] > report["pointwise_tol"]
    assert report["center_identity"] <= report["pointwise_tol"]


@pytest.mark.parametrize("n", [5, 60])
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
def test_u_orth_sees_x_squared(monkeypatch, p, n):
    # x^2 / 1e6 raises U_xx, leaves U_xy and U(0, 0) as they were, and
    # away from p = 2 only the ring's mean sees it: on a ring of radius r
    # the mean exceeds U by r^2 / 2e6
    u_orth = orth.u_orth
    monkeypatch.setattr(orth, "u_orth", lambda ctx, x, y: u_orth(ctx, x, y) + 1e-6 * x * x)
    ok, report = run_suite("u-orth", p=p, n=n)
    assert not ok
    assert report["mean_value_max"] > report["pointwise_tol"]


def test_u_weak_fails_with_no_interior_point(monkeypatch):
    # with every point flagged a boundary point the Hessian form is read
    # nowhere: the verdict is False, not a numpy error on an empty array
    monkeypatch.setattr(uweak, "_stable", lambda ctx, x, *_: np.zeros(x.shape, dtype=bool))
    ok, report = run_suite("u-weak", n=2_000)
    assert not ok
    assert report["n_interior"] == 0
    assert report["hessian_form_sup_scaled_max"] is None
    assert report["tangent_ok"] and report["majorization_ok"]


def test_harmonic_sees_the_1d_sup_short_of_two(monkeypatch):
    # the 1-d example's supremum, 1.999999 on its grid, is gated at 2 - 1e-5;
    # cut by 1e-5 it reads 1.99998, which the older gate of 1.99 let through
    one_dim = extremal.harmonic_1d_example

    def short(p, grid):
        out = one_dim(p, grid)
        return {**out, "sup": out["sup"] * (1 - 1e-5)}

    monkeypatch.setattr(extremal, "harmonic_1d_example", short)
    monkeypatch.setattr(verify.mc, "harmonic_rectangle_check", lambda *_: {"passed": True})
    ok, report = run_suite("harmonic")
    assert not ok
    assert 1.99 < report["one_dim_sup"] < 2 - 1e-5
