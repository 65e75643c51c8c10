"""Named verification suites tying the analytic and stochastic modules
together.  Each suite returns its report and its rows, one row
(key, value, sense, bound) per gated property; `run_suite` gates the rows
and returns ``(ok, report)``."""

from __future__ import annotations

import operator

import numpy as np

from . import extremal, gfun, mc, orth, uweak, wfun
from .constants import kp, weak_constant_pth_power

__all__ = ["SUITES", "run_suite"]

# a row passes when `value sense bound`; "is" gates a Python bool at True
_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
           "is": operator.is_}


def _sample_strip(rng, n, x_hi=2.5):
    """n strip points (x, y), each with a jump (h, k): x + h >= 0, |k| <= |h|."""
    x = rng.uniform(0.0, x_hi, n)
    y = rng.uniform(-1 + 1e-6, 1 - 1e-6, n)
    h = np.maximum(rng.uniform(-1.0, 1.0, n), -x)
    return x, y, h, h * rng.uniform(-1.0, 1.0, n)


def suite_w(p=0.5, seed=0, n=20_000, **_):
    rng = np.random.default_rng(seed)
    x, y, h, k = _sample_strip(rng, n)
    # at (1/2, 1/2) the indicator, W and (2x)^p all equal 1: no constant
    # below 2 bounds W there, which makes 2 sharp
    w_half = wfun.w_value(0.5, 0.5)
    return {"suite": "w", "p": p, "n": n}, [
        ("tangent_ok", bool(np.all(wfun.w_tangent_check(x, y, h, k))), "is", True),
        ("bounds_ok", bool(np.all(wfun.w_bounds_check(x, y, p=p))), "is", True),
        ("equality_gap", max(abs(w_half - 1.0), abs(w_half - (2 * 0.5) ** p)), "<=", 1e-12),
    ]


def suite_u_weak(p=3.0, seed=0, n=20_000, **_):
    ctx = uweak.build_context(p)
    # the tangent check reads U = -c x^p up to x + h = 2.8, the sample's reach;
    # where that is past a double (from p = 136.13), U = -inf passes every row
    if not np.isfinite(ctx.coef * 2.8**p):
        raise uweak.EvaluationError(f"c x^p overflows a double at x = 2.8 (p = {p})")
    rng = np.random.default_rng(seed)

    # the verdict reads the gap relative to max(1, |U|): |U| reaches 1e9 at p = 10
    gaps, scaled = [], []
    for ra, rb, bx, by in uweak.REGION_BOUNDARIES(ctx, max(200, n // 50)):
        va = uweak.u_branch(ctx, ra, bx, by)
        vb = uweak.u_branch(ctx, rb, bx, by)
        gap = np.abs(va - vb)
        gaps.append(float(np.max(gap)))
        scaled.append(float(np.max(gap / np.maximum(1, np.maximum(np.abs(va), np.abs(vb))))))

    x, y, h, k = _sample_strip(rng, n, x_hi=1.8)
    # the sample is classified once, for every check below but the diagonal
    tangent, majorized, inter, (uxx, uxy, uyy), u_y = uweak._sample_checks(ctx, x, y, h, k)

    # sup over the slopes |s| <= 1 of U_xx + 2U_xy s + U_yy s^2: at s = +-1 or the vertex
    # v (NaN, passed over, where U_xy = U_yy = 0), per max(1, |H|); None with no interior point
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.clip(-uxy / uyy, -1.0, 1.0)
    sup = np.fmax(uxx + 2 * np.abs(uxy) + uyy, uxx + 2 * uxy * v + uyy * v * v)
    sup /= np.maximum(1, np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))))

    # U(x, x) <= 0 holds with equality at x = 0, and every region on the
    # diagonal gives its sign exactly: the gate is that supremum, 0, and the
    # point x = 0 (D1, where U is exactly 0) is appended after the draw
    xd = np.append(rng.uniform(0.0, 0.99, max(1, n // 10)), 0.0)
    return {"suite": "u-weak", "p": p, "n": n, "boundary_gap_max": max(gaps)}, [
        ("boundary_gap_scaled_max", max(scaled), "<", 1e-10),
        ("tangent_ok", bool(np.all(tangent)), "is", True),
        ("n_interior", int(np.count_nonzero(inter)), ">", 0),
        ("hessian_form_sup_scaled_max", float(np.max(sup)) if sup.size else None, "<=", 1e-12),
        ("majorization_ok", bool(np.all(majorized)), "is", True),
        ("diagonal_nonpos_max", float(np.max(uweak.u_value(ctx, xd, xd))), "<=", 0.0),
        ("u_y_min_upper_half", float(np.min(u_y)), ">=", -1e-9),
    ]


def suite_u_orth(p=1.5, seed=7, n=60, **_):
    """U's shape on rings, K_p through U(0, 0) and two pointwise bounds, on
    random samples.

    Around each of n centres (x, y) U is taken at 16 points
    (x + r cos t_j, y + r sin t_j), t_j = 2 pi (j + 1/2)/16, r = (1 - |y|)/8.
    The ring's mean a0 and its cos 2t and sin 2t coefficients a2 and b2 give
    three rows, each relative to max(1, |U|) at the centre: `mean_value_max`,
    the largest |a0 - U|, which is 0 for harmonic U; `convex_in_x_min`, the
    smallest a0 - U + a2 = r^2 U_xx / 2; and `mixed_min`, the smallest
    sign(xy) b2 = sign(xy) r^2 U_xy / 2, the quadrant condition (U_xy is odd
    in x and in y).  The trapezoid rule on a circle converges geometrically
    for a harmonic function (Trefethen and Weideman 2014), so no difference
    step enters: on 1,000 centres at p = 1 the ring's mean differs from U
    by at most 6e-16 of max(1, |U|), against 1e-12 at r = (1 - |y|)/4 and
    1.2e-13 with 12 points.  Then the two pointwise bounds U >= U(0,0) on |y| <= |x|
    and U <= |x|^p + K_p^{-p} in the strip, and U(0,0) K_p^p = 1
    (`center_identity` is its error; this is what ties the suite to K_p).
    At p = 2 it also reports `closed_form_gap`, the largest
    |U - (x^2 + 1 - y^2)| over the centres and the bound points.  Every row
    is gated at U's own precision, `pointwise_tol`.  `rule_levels` counts
    how many of the 19 n + 1 points U was taken at took each geometric
    level count of its quadrature rule.
    """
    ctx = orth.OrthContext(p)
    rng = np.random.default_rng(seed)
    kinvp = ctx.kp_value ** (-ctx.p)
    # U's own error is about 2e-15 of max(1, |U|)
    tol = 1e-12
    report = {"suite": "u-orth", "p": ctx.p, "n_samples": n, "pointwise_tol": tol}

    xs = rng.uniform(-1.5, 1.5, n)
    # centres 2e-3 or more from the edges, so the rings stay 1.75e-3 off
    ys = rng.uniform(-0.998, 0.998, n)
    # one call for every ring: row 0 the centres, rows 1-16 the ring points
    theta = 2 * np.pi * (np.arange(16) + 0.5) / 16
    r = (1 - np.abs(ys)) / 8
    xr = np.vstack([xs, xs + r * np.cos(theta)[:, None]])
    yr = np.vstack([ys, ys + r * np.sin(theta)[:, None]])
    ring = orth.u_orth(ctx, xr, yr)
    uc, scale = ring[0], np.maximum(1, np.abs(ring[0]))
    a0 = np.mean(ring[1:], axis=0)
    a2 = np.cos(2 * theta) @ ring[1:] / 8
    b2 = np.sin(2 * theta) @ ring[1:] / 8

    u00 = orth.u_orth(ctx, 0.0, 0.0)
    # n rounds of uniform(-2, 2), uniform(-|x|, |x|), uniform(-2, 2),
    # uniform(-0.999, 0.999), drawn in that order
    draws = rng.random((n, 4)).T
    x = 4 * draws[0] - 2
    y = np.clip(2 * np.abs(x) * draws[1] - np.abs(x), -0.999, 0.999)
    x2 = 4 * draws[2] - 2
    y2 = 1.998 * draws[3] - 0.999
    u, uval = orth.u_orth(ctx, np.stack([x, x2]), np.stack([y, y2]))
    # every point of the three calls lies inside the strip
    xall = np.concatenate([xr.ravel(), [0.0], x, x2])
    _, levels = orth._rule_levels(np.abs(xall), np.concatenate([yr.ravel(), [0.0], y, y2]))
    counts = np.bincount(levels)
    report["rule_levels"] = {int(k): int(counts[k]) for k in np.flatnonzero(counts)}
    rows = [
        ("mean_value_max", float(np.max(np.abs(a0 - uc) / scale)), "<=", tol),
        ("convex_in_x_min", float(np.min((a0 - uc + a2) / scale)), ">=", -tol),
        ("mixed_min", float(np.min(np.sign(xs * ys) * b2 / scale)), ">=", -tol),
        ("lower_bound_min", float(np.min(u - u00)), ">=", -tol),
        ("upper_bound_min", float(np.min(np.abs(x2) ** ctx.p + kinvp - uval)), ">=", -tol),
        ("center_identity", abs(u00 * ctx.kp_value**ctx.p - 1.0), "<=", tol),
    ]
    if ctx.p == 2:
        xa, ya = np.concatenate([xs, x, x2]), np.concatenate([ys, y, y2])
        ua = np.concatenate([uc, u, uval])
        gap = float(np.max(np.abs(ua - (xa * xa + 1 - ya * ya))))
        rows.append(("closed_form_gap", gap, "<=", tol))
    return report, rows


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
    # G' at every table node (the table's own slopes), at every interval
    # midpoint, where the spline strays most, and at 500 h(s), past t* too
    mids = (rk.grid[1:] + rk.grid[:-1]) / 2
    s = np.linspace(1 + 1e-9, rk.s_max - 1e-9, 500)
    hs = gfun.h_of(rk, s)
    gp_min = float(min(np.min(rk.gprime_values), np.min(rk.gprime(mids)), np.min(rk.gprime(hs))))
    inv = float(np.max(np.abs(rk.g(hs) - s)))
    hp = rk.h_jet(hs)[0]  # h'(s) = 1/G'(h(s)), at the points already inverted
    return {"suite": "ode", "p": p}, [
        ("cross_method_rel_max", cross, "<", 1e-9),
        ("ode_residual_max", resid, "<", 1e-8),
        ("gprime_min", gp_min, ">=", 1 - 1e-9),
        ("inversion_residual_max", inv, "<", 1e-9),
        ("h_prime_max", float(np.max(hp)), "<=", 1 + 1e-9),
    ]


def suite_extremal(p=3.0, **_):
    params = extremal.resolve_params(p, 1 / (8 * p), extremal.ladder_delta_hint(p))
    X, Y = extremal.build_section_example(params)
    rep_eval = extremal.evaluate_ratio(X, Y, p)
    fast = extremal.section_ratio(p, params.x0, params.delta, params.n_steps)
    f, g, small_p = extremal.build_p_lt1_example()
    # relative to max(1, ratio): the ratio is 1e2 at p = 6 and 7e5 at p = 10
    ratio_gap = abs(rep_eval.ratio - fast.ratio) / max(1.0, abs(fast.ratio))
    return {"suite": "extremal", "p": p}, [
        ("x_martingale", X.check_martingale(), "is", True),
        ("y_martingale", Y.check_martingale(), "is", True),
        ("ratio_fast_vs_direct", ratio_gap, "<", 1e-12),
        # the theorem bounds every primed ratio by c_p^p
        ("primed_ratio_over_constant", rep_eval.primed_ratio / weak_constant_pth_power(p),
         "<=", 1 + 1e-12),
        ("p_lt1_identity", all(v["identity_holds"] for v in small_p.values()), "is", True),
        ("p_lt1_martingales", f.check_martingale() and g.check_martingale(), "is", True),
    ]


def suite_mc_weak_type(p=None, seed=0, n=10_000, **_):
    cfg = mc.SimConfig(master_seed=seed, n_samples=n)
    ps = (p,) if p is not None else (0.5, 3.0)
    reports = mc.random_subordinate_pair_checks(ps, cfg, n_pairs=50)
    return {"suite": "mc-weak-type", "checks": reports}, [
        ("checks_passed", all(r["passed"] for r in reports), "is", True),
    ]


def suite_mc_strip(p=2.0, seed=42, n=200_000, workers=1, **_):
    target = 1.0 / kp(p).value ** p  # kp refuses p outside [1, 2] before any path is drawn
    cfg = mc.SimConfig(master_seed=seed, n_samples=n, workers=workers)
    est = mc.strip_exit_moment(p, (0.0, 0.0), cfg)
    report = {
        "suite": "mc-strip",
        "p": p,
        "n": n,
        "estimate": est.mean,
        "std_error": est.std_error,
        "seed": seed,
        "bound": target,
        "walk_steps": est.walk_steps,
        "shell_eps": est.shell_eps,
        "censored": est.censored,
    }
    return report, [("margin_sigma", est.margin_sigma(target), "<=", mc._SIGMA_GATE)]


def suite_harmonic(p=2.0, seed=13, n=100_000, workers=1, **_):
    cfg = mc.SimConfig(master_seed=seed, n_samples=n, workers=workers)
    rect = mc.harmonic_rectangle_check(p, 20.0, cfg)
    oned = extremal.harmonic_1d_example(0.5, [0.5, 1.0, 1.5, 1.9, 1.999, 1.999999])
    return {"suite": "harmonic", "rectangle": rect}, [
        ("rectangle_passed", rect["passed"], "is", True),
        ("one_dim_sup", oned["sup"], ">", 2 - 1e-5),
    ]


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
    """Run suite `name`; ``(ok, report)``.  ok is True when every row passes,
    and a row whose value is None fails.  The report holds each row's value
    under its key, and `gates` maps each key to its sense, bound and margin:
    the signed distance of the value from the bound, positive on the passing
    side, in the row's own units (None for a bool or a None value)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if not (isinstance(n := kwargs.get("n", 1), (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be {'an integer' if n >= 1 else 'at least 1'}, got {n}")
    if not kwargs.get("workers", 1) >= 1:
        raise ValueError(f"workers must be at least 1, got {kwargs['workers']}")
    report, rows = SUITES[name](**kwargs)
    ok, gates = True, {}
    for key, value, sense, bound in rows:
        report[key] = value
        ok = ok and value is not None and _SENSES[sense](value, bound)
        margin = None
        if sense != "is" and value is not None:
            margin = bound - value if sense[0] == "<" else value - bound
        gates[key] = {"sense": sense, "bound": bound, "margin": margin}
    report["gates"] = gates
    return bool(ok), report
