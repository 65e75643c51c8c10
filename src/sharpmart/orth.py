"""Harmonic special function for the orthogonal case, 1 <= p <= 2.

Inside the strip |y| < 1 the function is the harmonic extension of |t|^p
from both edges y = +-1; outside it equals |x|^p.  It is one integral of
|x + d|^p against the strip's own Poisson kernel, folded to d >= 0 and
taken by one fixed composite Gauss-Legendre rule at every point at once.
At p = 2 it is x^2 + 1 - y^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import kp

__all__ = [
    "OrthContext",
    "u_orth",
    "v_orth",
    "orth_property_suite",
]


@functools.cache
def _rule():
    """Nodes (panels, 16) and weights (panels, 16, 1) of 16-point Gauss-Legendre
    panels on [0, 1]: four of width 1/4, the first split geometrically by 3
    toward 0 down to [0, 3^-20 / 4].  Built on first use, not on import."""
    edges = np.concatenate([[0.0], 3.0 ** np.arange(-20, 0) / 4, np.arange(1, 5) / 4])
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
    t, w = np.polynomial.legendre.leggauss(16)
    return mid + half * t, (half * w)[:, :, None]


@dataclass(frozen=True)
class OrthContext:
    p: float

    def __post_init__(self):
        if not 1 <= self.p <= 2:
            raise ValueError(f"requires 1 <= p <= 2, got {self.p}")

    @property
    def kp_value(self) -> float:
        return kp(self.p).value


def u_orth(ctx: OrthContext, x, y):
    """Harmonic extension of |t|^p from the edges y = +-1 of the strip.

    x and y broadcast; a float for scalar input.  x must be finite and y
    not NaN; an infinite y lies outside the strip.

    The strip's Poisson kernel for both edges together (Widder 1961) is
    P(d) = (c/2) cosh(pi d/2) / (sinh^2(pi d/2) + c^2), c = cos(pi y/2).
    It is even in d with mass 1, so with a = |x|

        U = a^p + int_0^inf [(a+d)^p + |a-d|^p - 2a^p] P(d) dd.

    The bracket vanishes to second order at d = 0, which tames the spike
    of width ~c that P has there near the edge.  Its kink |a - d|^p is
    |s|^{2p} under d = a + s|s|, smooth on either side of s = 0.  Past
    d = a + 30, P < c e^{-pi d/2} < c e^{-47}: the dropped tail is below
    1e-17 c.

    s runs over three pieces, each the affine image of the fixed nodes on
    [0, 1] from its singular end: [-sqrt(a), -sqrt(a)/2] from the spike at
    d = 0, [-sqrt(a)/2, 0] and [0, sqrt(30)] from the kink.  The grading is
    by 3, not 8: P's poles at d = +-i (2/pi) asin(c) can lie 45 degrees off
    it, and a panel much longer than its distance to them loses digits (by
    8, up to 9e-10 at x ~ 0, 1 - |y| ~ 0.02).  Summing panel by panel keeps
    temporaries at (points x 16).
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not np.isfinite(x).all() or np.isnan(y).any():
        raise ValueError("requires points (x, y) with finite x and y not NaN")
    p = ctx.p
    u = np.asarray(np.abs(x) ** p)
    inside = np.abs(y) < 1
    a = np.abs(x[inside])[:, None]
    ap = u[inside][:, None]
    c = np.sin(np.pi / 2 * (1 - np.abs(y[inside])))[:, None]  # cos(pi y/2), exact as |y| -> 1
    r = np.sqrt(a)
    total = np.zeros_like(a)
    for s0, h in ((-r, r / 2), (0.0, -r / 2), (0.0, math.sqrt(30.0))):
        for t, w in zip(*_rule()):
            s = s0 + h * t
            d = a + s * np.abs(s)
            # P/(c/2) in e^{-pi d/2}: no overflow at large d, no cancellation at 0
            e = np.exp(-np.pi / 2 * d)
            kernel = 2 * e * (1 + e * e) / (np.expm1(-np.pi * d) ** 2 + (2 * c * e) ** 2)
            f = ((a + d) ** p + (s * s) ** p - 2 * ap) * kernel * 2 * np.abs(s)
            total += np.abs(h) * (f @ w)
    u[inside] = (ap + c / 2 * total)[:, 0]
    return u if u.ndim else float(u)


def v_orth(ctx: OrthContext, x, y):
    """Majorized payoff: indicator of |y| >= 1 minus K_p^p |x|^p; x and y
    broadcast, a float for scalar input."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    val = (np.abs(y) >= 1).astype(float) - ctx.kp_value**ctx.p * np.abs(x) ** ctx.p
    return val if val.ndim else float(val)


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
    # a second difference amplifies U's error by 4/e^2: 2e-6 allows an
    # error of U up to 5e-13; 10 e^2 bounds the truncation
    tol = 2e-6 + 10 * e**2
    report = {"p": ctx.p, "n_samples": n_samples, "tol": tol}

    xs = rng.uniform(-1.5, 1.5, n_samples)
    ys = rng.uniform(-1 + 2 * e, 1 - 2 * e, n_samples)
    # one call for every stencil: U at (xs, ys) offset by (-e..e) in y and
    # x, and at the four corners of (xq, yq) +- e on the open quadrant
    xq, yq = np.abs(xs) + 0.2, np.abs(ys) * 0.5 + 0.1
    ex, ey = np.array([[0, 0, 0, -e, e], [-e, 0, e, 0, 0]])[:, :, None]
    qx, qy = np.array([[e, e, -e, -e], [e, -e, e, -e]])[:, :, None]
    st = u_orth(ctx, np.vstack([xs + ex, xq + qx]), np.vstack([ys + ey, yq + qy]))
    report["concave_in_y_max"] = float(np.max((st[0] - 2 * st[1] + st[2]) / e**2))
    report["convex_in_x_min"] = float(np.min((st[3] - 2 * st[1] + st[4]) / e**2))
    report["mixed_min"] = float(np.min((st[5] - st[6] - st[7] + st[8]) / (4 * e**2)))

    u00 = u_orth(ctx, 0.0, 0.0)
    # n rounds of uniform(-2, 2), uniform(-|x|, |x|), uniform(-2, 2),
    # uniform(-0.999, 0.999), drawn in that order
    draws = rng.random((n_samples, 4)).T
    x = 4 * draws[0] - 2
    y = np.clip(2 * np.abs(x) * draws[1] - np.abs(x), -0.999, 0.999)
    x2 = 4 * draws[2] - 2
    y2 = 1.998 * draws[3] - 0.999
    u, uval = u_orth(ctx, np.stack([x, x2]), np.stack([y, y2]))
    report["lower_bound_min"] = float(np.min(u - u00))
    report["upper_bound_min"] = float(np.min(np.abs(x2) ** ctx.p + kinvp - uval))
    report["majorization_min"] = float(np.min(uval - v_orth(ctx, x2, y2)))
    report["center_identity"] = abs(u00 * ctx.kp_value**ctx.p - 1.0)
    if ctx.p == 2:
        xa, ya = np.concatenate([xs, x, x2]), np.concatenate([ys, y, y2])
        ua = np.concatenate([st[1], u, uval])
        report["closed_form_gap"] = float(np.max(np.abs(ua - (xa * xa + 1 - ya * ya))))
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
