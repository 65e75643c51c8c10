"""Acceptance gate: the eleven headline criteria at their stated
tolerances and runtime budgets.  Each test emits exactly one pass/fail
line on the real stdout so the gate is readable from the test log.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from sharpmart import constants, gfun, mc, orth, uweak
from sharpmart.extremal import (
    build_p_lt1_example,
    build_section_example,
    evaluate_ratio,
    harmonic_1d_example,
    resolve_params,
    section_ratio,
)


def _line(capsys, num: int, desc: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        sys.stdout.write(f"[{status}] criterion {num:2d}: {desc}\n")
        sys.stdout.flush()


def test_criterion_01_k2_is_one(capsys):
    t0 = time.perf_counter()
    err = abs(constants.kp(2.0).value - 1.0)
    elapsed = time.perf_counter() - t0
    # the p = 2 denominator series also has the closed form pi^3/32
    series = sum((-1) ** k / (2 * k + 1) ** 3 for k in range(200_000))
    closed = abs(series - math.pi**3 / 32)
    ok = err < 1e-9 and closed < 1e-10 and elapsed < 1.0
    _line(capsys, 1, f"kp(2) = 1 within 1e-9 (err {err:.2e}, {elapsed:.2f}s)", ok)
    assert ok


def test_criterion_02_k1_brute_summation(capsys):
    # independent 10^7-term summation of the p = 1 alternating series
    k = np.arange(10_000_000, dtype=np.float64)
    terms = (-1.0) ** (k % 2) / (2 * k + 1) ** 2
    catalan = float(np.sum(terms.reshape(-1, 2).sum(axis=1)))  # paired for accuracy
    brute_k1 = math.pi**2 / (8 * catalan)
    err = abs(constants.kp(1.0).value - brute_k1)
    ok = err < 1e-6
    _line(capsys, 2, f"kp(1) matches 1e7-term brute sum within 1e-6 (err {err:.2e})", ok)
    assert ok


def test_criterion_03_ode_cross_validation(capsys):
    t0 = time.perf_counter()
    worst_gap = worst_resid = 0.0
    slopes_ok = True
    for p in [2.5, 3.0, 4.0, 6.0]:
        rk = gfun.build_g_rk(p)
        bessel = gfun.build_g_bessel(p)
        t = np.linspace(2 / p, 10.0, 20_001)
        worst_gap = max(worst_gap, float(np.max(np.abs(rk.g(t) - bessel.g(t)))))
        for sol in (rk, bessel):
            resid = sol.gprime_values - gfun.g_rhs(p, sol.grid, sol.g_values)
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
            slopes_ok &= bool(np.min(sol.gprime_values) >= 1.0 - 1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and worst_resid < 1e-8 and slopes_ok and elapsed < 10.0
    _line(capsys, 3,
        f"ODE two-route gap {worst_gap:.2e} < 1e-6, residual {worst_resid:.2e} "
        f"< 1e-8, slope >= 1, {elapsed:.1f}s < 10s",
        ok,
    )
    assert ok


def test_criterion_04_u_branch_continuity(capsys):
    worst = 0.0
    for p in [2.5, 3.0, 4.0]:
        ctx = uweak.build_context(p)
        for ra, rb, bx, by in uweak.REGION_BOUNDARIES(ctx, 10_000):
            gap = np.abs(uweak.u_branch(ctx, ra, bx, by) - uweak.u_branch(ctx, rb, bx, by))
            worst = max(worst, float(np.max(gap)))
    ok = worst < 1e-6
    _line(capsys, 4, f"region-pair branch gap {worst:.2e} < 1e-6 at 1e4 pts/pair", ok)
    assert ok


def test_criterion_05_u_concavity_majorization(capsys):
    n = 100_000
    ctx = uweak.build_context(3.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0, n)
    y = rng.uniform(-1 + 1e-6, 1 - 1e-6, n)
    h = rng.uniform(-1.0, 1.0, n)
    h = np.maximum(h, -x)
    k = h * rng.uniform(-1.0, 1.0, n)  # |k| <= |h|

    tangent = bool(np.all(uweak.tangent_check(ctx, x, y, h, k, slack=1e-9)))

    inter = uweak.is_interior(ctx, x, y)
    uxx, uxy, uyy = uweak.u_second_derivs(ctx, x[inter], y[inter])
    hh, kk = h[inter], k[inter]
    hessian = float(np.max(hh**2 * uxx + 2 * hh * kk * uxy + kk**2 * uyy)) <= 1e-9
    dominance = float(np.max(uxx + np.abs(uyy))) <= 1e-9  # U_xx <= -|U_yy|

    major = bool(np.all(uweak.majorization_check(ctx, x, y, slack=1e-9)))
    xd = rng.uniform(0.0, 1.5, n)
    sgn = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    diagonal = float(np.max(uweak.u_value(ctx, xd, sgn * xd))) <= 1e-9
    _, psi = uweak.u_gradient_ext(ctx, x, np.abs(y))
    upper_mono = float(np.min(psi)) >= -1e-9

    ok = tangent and hessian and dominance and major and diagonal and upper_mono
    _line(capsys, 5,
        "1e5 checks each: tangency, Hessian form, U_xx <= -|U_yy|, U >= V, "
        f"U(x,+-x) <= 0, U_y >= 0 -- all within 1e-9 slack: {ok}",
        ok,
    )
    assert ok


def test_criterion_06_orthogonal_function(capsys):
    t0 = time.perf_counter()
    worst_origin = 0.0
    for p in [1.0, 1.25, 1.5, 1.75, 2.0]:
        ctx = orth.OrthContext(p)
        worst_origin = max(
            worst_origin, abs(orth.u_orth(ctx, 0.0, 0.0) * constants.kp(p).value ** p - 1.0)
        )
    ctx2 = orth.OrthContext(2.0)
    rng = np.random.default_rng(3)
    worst_grid = 0.0
    for _ in range(40):
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(-0.999, 0.999))
        worst_grid = max(worst_grid, abs(orth.u_orth(ctx2, x, y) - (x * x + 1 - y * y)))
    elapsed = time.perf_counter() - t0
    ok = worst_origin < 1e-6 and worst_grid < 1e-6 and elapsed < 30.0
    _line(capsys, 6,
        f"u_orth origin identity err {worst_origin:.2e}, p=2 closed-form err "
        f"{worst_grid:.2e}, both < 1e-6, {elapsed:.1f}s < 30s",
        ok,
    )
    assert ok


def test_criterion_07_sharpness_ratio(capsys):
    t0 = time.perf_counter()
    params = resolve_params(3.0, 1 / 24, 1.5)
    X, Y = build_section_example(params)
    direct = evaluate_ratio(X, Y, 3.0)
    fig_ok = (
        params.n_steps == 3
        and abs(params.delta - 1.5) < 1e-13
        and abs(direct.prob - 27 / 2000) < 1e-14
        and abs(direct.moment - float(Fraction(89, 10800))) < 1e-15
    )
    target = 27 / 16
    sweep_ok = True
    for hint in [1e-3, 5e-4]:
        par = resolve_params(3.0, 1e-2, hint)
        assert par.delta <= 1e-3
        r = section_ratio(3.0, 1e-2, par.delta, par.n_steps).primed_ratio
        sweep_ok &= abs(r - target) / target < 0.02
    elapsed = time.perf_counter() - t0
    ok = fig_ok and sweep_ok and elapsed < 5.0
    _line(capsys, 7,
        f"figure parameter set exact, primed ratio within 2% of 27/16 for "
        f"step <= 1e-3, {elapsed:.1f}s < 5s",
        ok,
    )
    assert ok


def test_criterion_08_two_step_exact_identity(capsys):
    """||g||_{p,inf} = 1 = 2 ||f||_p with zero tolerance.

    Exactness is checked on p-th powers, where every quantity is an exact
    float: the weak norm is exactly 1, the time-0 moment is exactly
    (1/2)^p, and the dominance of the time-0 moment over the final one
    reduces to the integer inequality 2^{2k} <= 2^{20} for p = k/10.
    """
    f, g, _ = build_p_lt1_example()
    ok = True
    for k in range(1, 10):
        p = k / 10
        half_p = float((np.asarray([0.5]) ** p)[0])  # elementwise pow pathway
        two_p = float((np.asarray([2.0]) ** p)[0])
        ok &= g.weak_pth_norm(p) == 1.0
        ok &= f.steps[0].abs_pth_moment(p) == half_p
        # moment at the final time: (3/4) * 0 + (1/4) * 2^p, dominated by
        # (1/2)^p iff 2^{2p} <= 4, i.e. 2^{2k} <= 2^{20} -- exact integers
        ok &= f.steps[1].abs_pth_moment(p) == 0.25 * two_p
        ok &= 2 ** (2 * k) <= 2**20
    _line(capsys, 8, f"two-step identity weak norm = 1 = 2 strong norm, exact: {ok}", ok)
    assert ok


def test_criterion_09_monte_carlo_strip(capsys):
    t0 = time.perf_counter()
    cfg = mc.SimConfig(master_seed=42, n_samples=1_000_000)
    e2, e1 = mc.strip_exit_moments((2.0, 1.0), (0.0, 0.0), cfg)
    m2 = abs(e2.mean - 1.0) / e2.std_error
    target1 = 1.0 / constants.kp(1.0).value
    m1 = abs(e1.mean - target1) / e1.std_error
    elapsed = time.perf_counter() - t0
    ok = m2 <= 3.0 and m1 <= 3.0 and elapsed < 60.0
    _line(capsys, 9,
        f"strip exit n=1e6: p=2 margin {m2:.2f} sigma, p=1 margin {m1:.2f} "
        f"sigma, both <= 3, {elapsed:.1f}s < 60s",
        ok,
    )
    assert ok


def test_criterion_10_random_pair_weak_type(capsys):
    cfg = mc.SimConfig(master_seed=2024, n_samples=10_000)
    reports = mc.random_subordinate_pair_checks((0.5, 3.0), cfg, n_pairs=1_000)
    ok = all(r["passed"] for r in reports)
    worst = max(r["margin_sigma"] for r in reports)
    _line(capsys, 10,
        f"1e3 random pairs x 1e4 paths at p=0.5, 3: worst margin "
        f"{worst:.2f} sigma <= 4: {ok}",
        ok,
    )
    assert ok


def test_criterion_11_harmonic_sup(capsys):
    ok = True
    for p in [0.25, 0.5, 0.75]:
        out = harmonic_1d_example(p, [2 - 1e-7])
        ok &= abs(out["sup"] - 2.0) < 1e-6
    _line(capsys, 11, f"harmonic 1-d sup approaches 2 within 1e-6 as the level tends to 2: {ok}", ok)
    assert ok
