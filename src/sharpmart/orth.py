"""Harmonic special function for the orthogonal case, 1 <= p <= 2.

Inside the strip |y| < 1 the function is the harmonic extension of |t|^p
from both edges y = +-1; outside it equals |x|^p.  It is one adaptive
quadrature of |x + d|^p against the strip's own Poisson kernel, folded
to d >= 0.  At p = 2 it is x^2 + 1 - y^2.
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


def u_orth(ctx: OrthContext, x: float, y: float) -> float:
    """Harmonic extension of |t|^p from the edges y = +-1 of the strip.

    The strip's Poisson kernel for both edges together (Widder 1961) is
    P(d) = (c/2) cosh(pi d/2) / (sinh^2(pi d/2) + c^2), c = cos(pi y/2).
    It is even in d with mass 1, so with a = |x|

        U = a^p + int_0^inf [(a+d)^p + |a-d|^p - 2a^p] P(d) dd.

    The bracket vanishes to second order at d = 0, which tames the spike
    of width ~c that P has there near the edge.  Its kink |a - d|^p is
    |s|^{2p} under d = a + s|s|, smooth on either side of the one
    breakpoint s = 0.  Past d = a + 30, P < c e^{-pi d/2} < c e^{-47}:
    the dropped tail is below 1e-17 c.
    """
    p, a = ctx.p, abs(x)
    ap = a**p
    if abs(y) >= 1:
        return ap
    if math.isnan(y) or not math.isfinite(x):
        raise ValueError(f"requires a point (x, y) with finite x, got ({x}, {y})")
    c = math.sin(math.pi * (1 - abs(y)) / 2)  # cos(pi y/2), exact as |y| -> 1

    def f(s):
        d = a + s * abs(s)
        # P/(c/2) in e^{-pi d/2}: no overflow at large d, no cancellation at 0
        e = math.exp(-math.pi / 2 * d)
        kernel = 2 * e * (1 + e * e) / (math.expm1(-math.pi * d) ** 2 + (2 * c * e) ** 2)
        return ((a + d) ** p + (s * s) ** p - 2 * ap) * kernel * 2 * abs(s)

    val, err = quad(f, -math.sqrt(a), math.sqrt(30.0), points=[0.0] if a else None,
                    limit=200, epsabs=_QUAD_TOL / 100, epsrel=1e-12)
    u, err = ap + c / 2 * val, c / 2 * err
    if err > max(100 * _QUAD_TOL, 1e-6 * abs(u)):
        raise QuadratureError(f"quadrature failed for (x={x}, y={y}): error estimate {err}")
    return u


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
    its error; this is what ties the suite to K_p).  At p = 2 it also
    reports `closed_form_gap`, the largest |U - (x^2 + 1 - y^2)| over the
    sample points.  Returns worst margins per property.
    """
    rng = np.random.default_rng(seed)
    kinvp = ctx.kp_value ** (-ctx.p)
    e = 1e-3
    tol = 200 * _QUAD_TOL + 10 * e**2
    report = {"p": ctx.p, "n_samples": n_samples, "tol": tol}

    xs = rng.uniform(-1.5, 1.5, n_samples)
    ys = rng.uniform(-1 + 2 * e, 1 - 2 * e, n_samples)
    d2y, d2x, mixed, samples = [], [], [], []  # samples: (x, y, U) in the strip
    for x, y in zip(xs, ys):
        row = [u_orth(ctx, x, y + d) for d in (-e, 0.0, e)]
        samples.append((x, y, row[1]))
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
        u = u_orth(ctx, x, y)
        lower.append(u - u00)
        x2, y2 = rng.uniform(-2, 2), rng.uniform(-0.999, 0.999)
        uval = u_orth(ctx, x2, y2)
        samples += [(x, y, u), (x2, y2, uval)]
        upper.append(abs(x2) ** ctx.p + kinvp - uval)
        major.append(uval - v_orth(ctx, x2, y2))
    report["lower_bound_min"] = float(np.min(lower))
    report["upper_bound_min"] = float(np.min(upper))
    report["majorization_min"] = float(np.min(major))
    report["center_identity"] = abs(u00 * ctx.kp_value**ctx.p - 1.0)
    if ctx.p == 2:
        x, y, u = np.array(samples).T
        report["closed_form_gap"] = float(np.max(np.abs(u - (x * x + 1 - y * y))))
    report["passed"] = bool(
        report["concave_in_y_max"] <= tol
        and report["convex_in_x_min"] >= -tol
        and report["mixed_min"] >= -tol
        and report["lower_bound_min"] >= -tol
        and report["upper_bound_min"] >= -tol
        and report["majorization_min"] >= -tol
        and report["center_identity"] <= tol
        and report.get("closed_form_gap", 0.0) <= tol
    )
    return report
