"""Harmonic special function for the orthogonal case, 1 <= p <= 2.

Inside the strip |y| < 1 the function is the harmonic extension of the
boundary data (2/pi)^p |log|t||^p on the real line, pulled back through
the conformal map z -> i e^{pi z / 2}; outside it equals |x|^p.  The
half-plane Poisson integral is evaluated by adaptive quadrature after the
substitution t = +-e^s, which turns the logarithmic weight into |s|^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .constants import _exponent, kp

__all__ = [
    "QuadratureError",
    "OrthContext",
    "conformal_strip_to_half",
    "poisson_w",
    "u_orth",
    "v_orth",
    "scalar_inequality_check",
    "orth_property_suite",
]


_QUAD_TOL = 1e-8


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class OrthContext:
    p: float

    def __post_init__(self):
        if not 1 <= self.p <= 2:
            raise ValueError(f"requires 1 <= p <= 2, got {self.p}")

    @property
    def kp_value(self) -> float:
        return kp(self.p).value


def conformal_strip_to_half(x: float, y: float) -> tuple[float, float]:
    """Image of the strip point x + iy under z -> i e^{pi z/2}."""
    if not abs(y) < 1:
        raise ValueError(f"requires |y| < 1, got y={y}")
    r = math.exp(math.pi * x / 2)
    return -r * math.sin(math.pi * y / 2), r * math.cos(math.pi * y / 2)


def _half_line_integral(p: float, a: float, beta: float) -> float:
    """integral over s of |s|^p e^s / ((a - e^s)^2 + beta^2) ds, truncated
    to [-S1, S2] with tails below _QUAD_TOL/4.

    When beta << a the kernel has a Lorentzian spike of width ~beta/a at
    s = log(a).  That window is handled by the substitution e^s = a + beta*u,
    under which the spike flattens into the arctan weight 1/(1+u^2); the log
    substitution covers the remainder, where the integrand is tame.
    """
    # right tail: integrand ~ s^p e^{-s} once e^s dominates |a| and beta
    s_hi = 60.0 + max(0.0, math.log(max(abs(a), beta, 1.0)))
    # left tail: integrand ~ |s|^p e^s / (a^2 + beta^2)
    s_lo = -(60.0 + max(0.0, -math.log(a * a + beta * beta)))

    beta2 = beta**2

    def fs(s):
        es = math.exp(s)
        return abs(s) ** p * es / ((a - es) ** 2 + beta2)

    total, err_total = 0.0, 0.0
    half_width = 50.0
    if a > 0 and beta < a / (2 * half_width):
        s_left = math.log(a - half_width * beta)
        s_right = math.log(a + half_width * beta)

        def fu(u):
            return abs(math.log(a + beta * u)) ** p / (1 + u * u)

        u_kink = (1 - a) / beta  # image of t = 1, where |log t|^p has a kink
        u_pts = [u_kink] if -half_width < u_kink < half_width else []
        val, err = quad(
            fu,
            -half_width,
            half_width,
            points=u_pts,
            limit=200,
            epsabs=beta * _QUAD_TOL / 8,
            epsrel=1e-11,
        )
        total += val / beta
        err_total += err / beta
        segments = [(s_lo, s_left), (s_right, s_hi)]
        # geometrically graded breakpoints approaching the spike, so each
        # quadpack panel spans a bounded dynamic range
        pts = [0.0]
        w = 2 * half_width * beta
        while w < a / 2:
            pts.extend([math.log(a - w), math.log(a + w)])
            w *= 4
    else:
        segments = [(s_lo, s_hi)]
        pts = [0.0]
        if a > 0:
            pts.append(math.log(a))  # kernel peak
    for lo, hi in segments:
        seg_pts = sorted({s for s in pts if lo + 1e-12 < s < hi - 1e-12})
        val, err = quad(
            fs, lo, hi, points=seg_pts, limit=500, epsabs=_QUAD_TOL / 8, epsrel=1e-11
        )
        total += val
        err_total += err

    if err_total > max(100 * _QUAD_TOL, 1e-6 * abs(total)):
        raise QuadratureError(
            f"quadrature failed for (a={a}, beta={beta}): error estimate {err_total}"
        )
    return total


def poisson_w(ctx: OrthContext, alpha: float, beta: float) -> float:
    """Half-plane harmonic extension of (2/pi)^p |log|t||^p at (alpha, beta)."""
    if not beta > 0:
        raise ValueError(f"requires beta > 0, got {beta}")
    p = ctx.p
    total = _half_line_integral(p, alpha, beta) + _half_line_integral(p, -alpha, beta)
    return 2**p / math.pi ** (p + 1) * beta * total


def u_orth(ctx: OrthContext, x: float, y: float) -> float:
    if abs(y) >= 1:
        return abs(x) ** ctx.p
    return poisson_w(ctx, *conformal_strip_to_half(x, y))


def v_orth(ctx: OrthContext, x: float, y: float) -> float:
    """Majorized payoff: indicator of |y| >= 1 minus K_p^p |x|^p."""
    return float(abs(y) >= 1) - ctx.kp_value**ctx.p * abs(x) ** ctx.p


def scalar_inequality_check(p, x: float, h: float, slack: float = 1e-12) -> bool:
    """|x+h|^p + |x-h|^p <= 2|x|^p + 2|h|^p for 1 <= p <= 2."""
    pv = _exponent(p)
    if not 1 <= pv <= 2:
        raise ValueError(f"requires 1 <= p <= 2, got {pv}")
    return abs(x + h) ** pv + abs(x - h) ** pv <= 2 * abs(x) ** pv + 2 * abs(h) ** pv + slack


def orth_property_suite(ctx: OrthContext, n_samples: int = 60, seed: int = 7) -> dict:
    """Finite-difference shape checks and pointwise bounds on random samples.

    Verifies concavity in y, convexity in x, non-negative mixed second
    difference on the open quadrant, the two pointwise bounds
    U >= U(0,0) on |y| <= |x| and U <= |x|^p + K_p^{-p} in the strip, and
    the majorization U >= V, and U(0,0) K_p^p = 1 (`center_identity` is
    its error; this is what ties the suite to K_p).  Returns worst margins
    per property.
    """
    rng = np.random.default_rng(seed)
    kinvp = ctx.kp_value ** (-ctx.p)
    e = 1e-3
    tol = 200 * _QUAD_TOL + 10 * e**2
    report = {"p": ctx.p, "n_samples": n_samples, "tol": tol}

    xs = rng.uniform(-1.5, 1.5, n_samples)
    ys = rng.uniform(-1 + 2 * e, 1 - 2 * e, n_samples)
    d2y, d2x, mixed = [], [], []
    for x, y in zip(xs, ys):
        row = [u_orth(ctx, x, y + d) for d in (-e, 0.0, e)]
        d2y.append((row[0] - 2 * row[1] + row[2]) / e**2)
        col = [u_orth(ctx, x - e, y), row[1], u_orth(ctx, x + e, y)]
        d2x.append((col[0] - 2 * col[1] + col[2]) / e**2)
        xq, yq = abs(x) + 0.2, abs(y) * 0.5 + 0.1
        mm = (
            u_orth(ctx, xq + e, yq + e)
            - u_orth(ctx, xq + e, yq - e)
            - u_orth(ctx, xq - e, yq + e)
            + u_orth(ctx, xq - e, yq - e)
        ) / (4 * e**2)
        mixed.append(mm)
    report["concave_in_y_max"] = float(np.max(d2y))
    report["convex_in_x_min"] = float(np.min(d2x))
    report["mixed_min"] = float(np.min(mixed))

    u00 = u_orth(ctx, 0.0, 0.0)
    lower, upper, major = [], [], []
    for _ in range(n_samples):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-abs(x), abs(x)) if x else 0.0
        y = float(np.clip(y, -0.999, 0.999))
        lower.append(u_orth(ctx, x, y) - u00)
        x2, y2 = rng.uniform(-2, 2), rng.uniform(-0.999, 0.999)
        uval = u_orth(ctx, x2, y2)
        upper.append(abs(x2) ** ctx.p + kinvp - uval)
        major.append(uval - v_orth(ctx, x2, y2))
    report["lower_bound_min"] = float(np.min(lower))
    report["upper_bound_min"] = float(np.min(upper))
    report["majorization_min"] = float(np.min(major))
    report["center_identity"] = abs(u00 * ctx.kp_value**ctx.p - 1.0)
    report["passed"] = bool(
        report["concave_in_y_max"] <= tol
        and report["convex_in_x_min"] >= -tol
        and report["mixed_min"] >= -tol
        and report["lower_bound_min"] >= -tol
        and report["upper_bound_min"] >= -tol
        and report["majorization_min"] >= -tol
        and report["center_identity"] <= tol
    )
    return report
