"""Named verification suites tying the analytic and stochastic modules
together.  Each suite returns ``(ok, report)`` where the report lists every
property with its worst observed margin."""

from __future__ import annotations

import numpy as np

from . import extremal, gfun, mc, orth, uweak, wfun
from .constants import kp, weak_constant_pth_power

__all__ = ["SUITES", "run_suite"]


def _sample_strip(rng, n, x_hi=2.5):
    """n strip points (x, y), each with a jump (h, k): x + h >= 0, |k| <= |h|."""
    x = rng.uniform(0.0, x_hi, n)
    y = rng.uniform(-1 + 1e-6, 1 - 1e-6, n)
    h = np.maximum(rng.uniform(-1.0, 1.0, n), -x)
    return x, y, h, h * rng.uniform(-1.0, 1.0, n)


def suite_w(p=0.5, seed=0, n=20_000, **_):
    rng = np.random.default_rng(seed)
    x, y, h, k = _sample_strip(rng, n)
    tangent_ok = np.all(wfun.w_tangent_check(x, y, h, k))
    bounds_ok = np.all(wfun.w_bounds_check(x, y, p=p))
    # at (1/2, 1/2) the indicator, W and (2x)^p all equal 1: no constant
    # below 2 bounds W there, which makes 2 sharp
    w_half = wfun.w_value(0.5, 0.5)
    equality_gap = max(abs(w_half - 1.0), abs(w_half - (2 * 0.5) ** p))
    report = {
        "suite": "w",
        "p": p,
        "n": n,
        "tangent_ok": bool(tangent_ok),
        "bounds_ok": bool(bounds_ok),
        "equality_gap": equality_gap,
    }
    return bool(tangent_ok and bounds_ok and equality_gap <= 1e-12), report


def suite_u_weak(p=3.0, seed=0, n=20_000, **_):
    ctx = uweak.build_context(p)
    rng = np.random.default_rng(seed)
    report = {"suite": "u-weak", "p": p, "n": n}

    # the verdict reads the gap relative to max(1, |U|): |U| reaches 1e9 at p = 10
    gaps, scaled = [], []
    for ra, rb, bx, by in uweak.REGION_BOUNDARIES(ctx, max(200, n // 50)):
        va = uweak.u_branch(ctx, ra, bx, by)
        vb = uweak.u_branch(ctx, rb, bx, by)
        gap = np.abs(va - vb)
        gaps.append(float(np.max(gap)))
        scaled.append(float(np.max(gap / np.maximum(1, np.maximum(np.abs(va), np.abs(vb))))))
    report["boundary_gap_max"] = max(gaps)
    report["boundary_gap_scaled_max"] = max(scaled)

    x, y, h, k = _sample_strip(rng, n, x_hi=1.8)
    # the sample is classified once, for every check below but the diagonal
    tangent, majorized, inter, (uxx, uxy, uyy), u_y = uweak._sample_checks(ctx, x, y, h, k)
    report["tangent_ok"] = bool(np.all(tangent))

    # sup over the slopes |s| <= 1 of U_xx + 2U_xy s + U_yy s^2: at s = +-1 or the vertex
    # v (NaN, passed over, where U_xy = U_yy = 0), per max(1, |H|); None with no interior point
    report["n_interior"] = int(np.count_nonzero(inter))
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.clip(-uxy / uyy, -1.0, 1.0)
    sup = np.fmax(uxx + 2 * np.abs(uxy) + uyy, uxx + 2 * uxy * v + uyy * v * v)
    sup /= np.maximum(1, np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))))
    report["hessian_form_sup_scaled_max"] = float(np.max(sup)) if sup.size else None

    report["majorization_ok"] = bool(np.all(majorized))
    xd = rng.uniform(0.0, 0.99, max(1, n // 10))
    report["diagonal_nonpos_max"] = float(np.max(uweak.u_value(ctx, xd, xd)))
    report["u_y_min_upper_half"] = float(np.min(u_y))

    ok = (
        report["boundary_gap_scaled_max"] < 1e-10
        and report["tangent_ok"]
        and report["n_interior"] > 0
        and report["hessian_form_sup_scaled_max"] <= 1e-12
        and report["majorization_ok"]
        and report["diagonal_nonpos_max"] <= 1e-9
        and report["u_y_min_upper_half"] >= -1e-9
    )
    return bool(ok), report


def suite_u_orth(p=1.5, seed=7, n=60, **_):
    ctx = orth.OrthContext(p)
    report = orth.orth_property_suite(ctx, n_samples=n, seed=seed)
    report["suite"] = "u-orth"
    return bool(report["passed"]), report


def suite_ode(p=3.0, **_):
    rk = gfun.build_g_rk(p)
    bes = gfun.build_g_bessel(p)
    # the table's gap, relative to the Bessel closed form at that table's nodes
    cross = float(np.max(np.abs(rk.gap(bes.grid) / bes.u_values - 1)))
    # the gap u = t + 1 - G solves u' = 1 - (p/2)^{p+1} t^{p-2} u^2; at the
    # Bessel table's interior nodes u' is a 4th-order central difference
    # of its closed form, whose step 3e-4 t balances truncation and rounding
    tb, ub = bes.grid[1:-1], bes.u_values[1:-1]
    h = 3e-4 * tb
    um2, um1, up1, up2 = gfun._bessel_gap(p, tb + np.array([[-2.0], [-1.0], [1.0], [2.0]]) * h)
    du = (8 * (up1 - um1) - (up2 - um2)) / (12 * h)
    resid = float(np.max(np.abs(du - 1 + (p / 2) ** (p + 1) * tb ** (p - 2) * ub**2)))
    # G' at every table node, where the spline reads the table's own slopes,
    # and at every interval midpoint, where it strays most
    mids = (rk.grid[1:] + rk.grid[:-1]) / 2
    gp_min = float(min(np.min(rk.gprime_values), np.min(rk.gprime(mids))))
    s = np.linspace(1 + 1e-9, rk.s_max - 1e-9, 500)
    hs = gfun.h_of(rk, s)
    inv = float(np.max(np.abs(rk.g(hs) - s)))
    hp = gfun.h_prime(rk, s)
    report = {
        "suite": "ode",
        "p": p,
        "cross_method_rel_max": cross,
        "ode_residual_max": resid,
        "gprime_min": gp_min,
        "inversion_residual_max": inv,
        "h_prime_max": float(np.max(hp)),
    }
    ok = (
        cross < 1e-9
        and resid < 1e-8
        and gp_min >= 1 - 1e-9
        and inv < 1e-9
        and report["h_prime_max"] <= 1 + 1e-9
    )
    return bool(ok), report


def suite_extremal(p=3.0, **_):
    params = extremal.resolve_params(p, 1 / (8 * p), extremal.ladder_delta_hint(p))
    X, Y = extremal.build_section_example(params)
    rep_eval = extremal.evaluate_ratio(X, Y, p)
    fast = extremal.section_ratio(p, params.x0, params.delta, params.n_steps)
    f, g, small_p = extremal.build_p_lt1_example()
    report = {
        "suite": "extremal",
        "p": p,
        "x_martingale": X.check_martingale(),
        "y_martingale": Y.check_martingale(),
        # relative to max(1, ratio): the ratio is 1e2 at p = 6 and 7e5 at p = 10
        "ratio_fast_vs_direct": abs(rep_eval.ratio - fast.ratio) / max(1.0, abs(fast.ratio)),
        # the theorem bounds every primed ratio by c_p^p
        "primed_ratio_over_constant": rep_eval.primed_ratio / weak_constant_pth_power(p),
        "p_lt1_identity": all(v["identity_holds"] for v in small_p.values()),
        "p_lt1_martingales": f.check_martingale() and g.check_martingale(),
    }
    ok = (
        report["x_martingale"]
        and report["y_martingale"]
        and report["ratio_fast_vs_direct"] < 1e-12
        and report["primed_ratio_over_constant"] <= 1 + 1e-12
        and report["p_lt1_identity"]
        and report["p_lt1_martingales"]
    )
    return bool(ok), report


def suite_mc_weak_type(p=None, seed=0, n=10_000, workers=1, **_):
    cfg = mc.SimConfig(master_seed=seed, n_samples=n, workers=workers)
    ps = (p,) if p is not None else (0.5, 3.0)
    reports = mc.random_subordinate_pair_checks(ps, cfg, n_pairs=50)
    ok = all(r["passed"] for r in reports)
    return bool(ok), {"suite": "mc-weak-type", "checks": reports}


def suite_mc_strip(p=2.0, seed=42, n=200_000, workers=1, **_):
    if not 1 <= p <= 2:
        raise ValueError(f"requires 1 <= p <= 2, got {p}")
    cfg = mc.SimConfig(master_seed=seed, n_samples=n, workers=workers)
    est = mc.strip_exit_moment(p, (0.0, 0.0), cfg)
    target = 1.0 / kp(p).value ** p
    report = {
        "suite": "mc-strip",
        "p": p,
        "n": n,
        "estimate": est.mean,
        "std_error": est.std_error,
        "seed": seed,
        "bound": target,
        "margin_sigma": est.margin_sigma(target),
        "walk_steps": est.walk_steps,
        "shell_eps": est.shell_eps,
        "censored": est.censored,
    }
    return bool(report["margin_sigma"] <= 4.0), report


def suite_harmonic(p=2.0, seed=13, n=100_000, workers=1, **_):
    cfg = mc.SimConfig(master_seed=seed, n_samples=n, workers=workers)
    rect = mc.harmonic_rectangle_check(p, 20.0, cfg)
    oned = extremal.harmonic_1d_example(0.5, [0.5, 1.0, 1.5, 1.9, 1.999, 1.999999])
    report = {"suite": "harmonic", "rectangle": rect, "one_dim_sup": oned["sup"]}
    ok = rect["passed"] and oned["sup"] > 2 - 1e-5
    return bool(ok), report


SUITES = {
    "w": suite_w,
    "u-weak": suite_u_weak,
    "u-orth": suite_u_orth,
    "ode": suite_ode,
    "extremal": suite_extremal,
    "mc-weak-type": suite_mc_weak_type,
    "mc-strip": suite_mc_strip,
    "harmonic": suite_harmonic,
}


def run_suite(name: str, **kwargs):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if kwargs.get("n", 1) < 1:
        raise ValueError(f"n must be at least 1, got {kwargs['n']}")
    if kwargs.get("workers", 1) < 1:
        raise ValueError(f"workers must be at least 1, got {kwargs['workers']}")
    return SUITES[name](**kwargs)
