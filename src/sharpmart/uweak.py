"""Piecewise special function U and majorant V on the right half-plane, p > 2.

The half-plane splits into eight regions D0..D7 (first match wins, in index
order, with |y| throughout); U is defined by a separate closed form on each
region, two of which involve the auxiliary function G and its inverse h.
The gradient and all three second derivatives are closed forms per region
as well.  All evaluators are vectorized over numpy arrays and reflect
through y -> -y: values, U_x, U_xx and U_yy are even in y, U_y and U_xy odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gfun import GSolution, build_g_rk, h_of

__all__ = [
    "EvaluationError",
    "UWContext",
    "build_context",
    "classify",
    "u_value",
    "v_value",
    "u_branch",
    "u_gradient_ext",
    "u_second_derivs",
    "is_interior",
    "tangent_check",
    "diagonal_monotone_check",
    "majorization_check",
    "REGION_BOUNDARIES",
]

N_REGIONS = 8


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class UWContext:
    p: float
    g: GSolution

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError("requires p > 2")
        if self.g.p != self.p:
            raise ValueError("g must be built for the same exponent")

    @property
    def coef(self) -> float:
        """p^p / (2^p (p-1)), the scale of the majorant."""
        return self.p**self.p / (2**self.p * (self.p - 1))


def build_context(p: float) -> UWContext:
    return UWContext(p, build_g_rk(p))


def _prep(ctx, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0):
        raise ValueError("first coordinate must be non-negative")
    return np.broadcast_arrays(x, np.abs(y))


def _h_where(ctx, s, need):
    """h(x+|y|) where needed; errors if a needed argument leaves the table."""
    hs = np.full_like(s, np.nan)
    mask = need & (s >= 1)
    if np.any(mask & (s > ctx.g.s_max + 1e-12)):
        bad = s[mask & (s > ctx.g.s_max)]
        raise EvaluationError(
            f"x+|y|={bad.flat[0]} beyond tabulated inverse domain [1, {ctx.g.s_max}]"
        )
    if np.any(mask):
        hs[mask] = h_of(ctx.g, s[mask])
    return hs


def classify(ctx: UWContext, x, y):
    """Region index 0..7 per point; predicates tested in index order."""
    x, Y = _prep(ctx, x, y)
    p = ctx.p
    s = x + Y
    d04 = (
        (Y >= 1),
        ((p - 1) * x <= Y) & (Y < x + 1 - 2 / p),
        ((p - 2) / 2 * x <= Y) & (Y < np.minimum(1 - x, (p - 1) * x)),
        (x + 1 - 2 / p <= Y) & (Y < 1 - x),
        (np.maximum(1 - x, x + 1 - 2 / p) <= Y) & (Y < 1),
    )
    settled = np.zeros_like(x, dtype=bool)
    for m in d04:
        settled |= m
    hs = _h_where(ctx, s, ~settled)
    with np.errstate(invalid="ignore"):
        d5 = (s >= 1) & (hs >= x) & (x > (-1 + hs + s) / 2)
        d6 = (s >= 1) & ((1 - hs + s) / 2 <= Y) & (Y < np.minimum(x + 1 - 2 / p, 1.0))
    labels = np.select(list(d04) + [d5, d6], [0, 1, 2, 3, 4, 5, 6], default=7)
    return labels if labels.ndim else int(labels)


def u_branch(ctx: UWContext, region: int, x, y):
    """The closed form of region `region`, evaluated at (x, |y|) as given
    (no membership test) -- the tool behind the boundary-continuity checks."""
    x, Y = _prep(ctx, x, y)
    p, c = ctx.p, ctx.coef
    if region in (0,):
        return 1 - c * x**p
    if region == 1:
        a = p**p / (2 * (p - 1) * (p - 2) ** (p - 2))
        return a * x * (Y - x) ** (p - 1)
    if region == 2:
        return (x + Y) ** (p - 1) / (p - 1) * ((p - 1) * Y - (p**2 - 2 * p + 2) / 2 * x)
    if region == 3:
        return x / (2 * (p - 1) * (1 + x - Y)) * (-((p - 2) ** 2) + p**2 * (Y - x))
    if region == 4:
        return (
            1
            - p**2 / (2 * (p - 1)) * (1 - Y)
            - c * (x + Y - 1) * (x + 1 - Y) ** (p - 1)
        )
    if region == 5:
        hs = _h_where(ctx, x + Y, np.ones_like(x, dtype=bool))
        return c * hs ** (p - 1) * ((p - 1) * hs - p * x)
    if region == 6:
        t = x - Y + 1
        G = ctx.g.g(t)
        return (
            1
            - 2 * (1 - Y) / (2 + x - Y - G)
            - c * t ** (p - 1) * (x - (p - 1) * (1 - Y))
        )
    if region == 7:
        return -c * x**p
    raise ValueError(f"unknown region {region}")


def u_value(ctx: UWContext, x, y):
    x_arr, Y = _prep(ctx, x, y)
    labels = np.atleast_1d(np.asarray(classify(ctx, x_arr, Y)))
    xf, Yf = np.atleast_1d(x_arr), np.atleast_1d(Y)
    out = np.empty_like(xf)
    for r in range(N_REGIONS):
        m = labels == r
        if np.any(m):
            out[m] = np.atleast_1d(u_branch(ctx, r, xf[m], Yf[m]))
    return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])


def v_value(ctx: UWContext, x, y):
    x_arr, Y = _prep(ctx, x, y)
    val = (Y >= 1).astype(float) - ctx.coef * x_arr**ctx.p
    return val if x_arr.ndim else float(val)


def _grad_pos(ctx, labels, x, Y):
    """(U_x, U_y) for y = |y| >= 0, by region formulas."""
    p, c = ctx.p, ctx.coef
    ux = np.empty_like(x)
    uy = np.empty_like(x)
    for r in range(N_REGIONS):
        m = labels == r
        if not np.any(m):
            continue
        xm, Ym = x[m], Y[m]
        if r == 0 or r == 7:
            ux[m] = -p * c * xm ** (p - 1)
            uy[m] = 0.0
        elif r == 1:
            a = p**p / (2 * (p - 1) * (p - 2) ** (p - 2))
            ux[m] = a * (Ym - xm) ** (p - 2) * (Ym - p * xm)
            uy[m] = a * (p - 1) * xm * (Ym - xm) ** (p - 2)
        elif r == 2:
            ux[m] = (
                p
                / (2 * (p - 1))
                * (xm + Ym) ** (p - 2)
                * ((p - 2) * Ym - (p**2 - 2 * p + 2) * xm)
            )
            uy[m] = p / 2 * (xm + Ym) ** (p - 2) * (2 * Ym - (p - 2) * xm)
        elif r == 3:
            ux[m] = -(p**2) / (2 * (p - 1)) + 2 * (1 - Ym) / (1 + xm - Ym) ** 2
            uy[m] = 2 * xm / (1 + xm - Ym) ** 2
        elif r == 4:
            ux[m] = -c * (xm + 1 - Ym) ** (p - 2) * (p * xm - (p - 2) * (1 - Ym))
            uy[m] = p**2 / (2 * (p - 1)) + c * (xm + 1 - Ym) ** (p - 2) * (
                (p - 2) * xm - p * (1 - Ym)
            )
        elif r == 5:
            s = xm + Ym
            hs = _h_where(ctx, s, np.ones_like(s, dtype=bool))
            core = 2 * (hs - xm) / (hs - s + 1) ** 2
            ux[m] = core - p * c * hs ** (p - 1)
            uy[m] = core
        elif r == 6:
            t = xm - Ym + 1
            G = ctx.g.g(t)
            den = 2 + xm - Ym - G
            ux[m] = 2 * (1 - Ym) / den**2 - p * c * t ** (p - 1)
            uy[m] = 2 * (1 + xm - G) / den**2
    return ux, uy


def u_gradient_ext(ctx: UWContext, x, y):
    """Extended gradient (phi, psi); odd reflection of psi through the axis.

    One-sided conventions on the exceptional boundaries fall out of the
    first-match classification: on |y| = 1 the D0 branch applies (psi = 0),
    and on the shared edge of D3 and D4 the D4 formulas apply.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    _, Y = _prep(ctx, x_arr, y_arr)
    labels = np.atleast_1d(np.asarray(classify(ctx, x_arr, y_arr)))
    xf, Yf = np.atleast_1d(np.broadcast_arrays(x_arr, Y)[0]), np.atleast_1d(Y)
    ux, uy = _grad_pos(ctx, labels, xf, Yf)
    sign = np.where(np.atleast_1d(np.broadcast_to(y_arr, Yf.shape)) < 0, -1.0, 1.0)
    uy = uy * sign
    if x_arr.ndim or y_arr.ndim:
        shape = np.broadcast_shapes(x_arr.shape, y_arr.shape)
        return ux.reshape(shape), uy.reshape(shape)
    return float(ux[0]), float(uy[0])


def _second_pos(ctx, labels, x, Y):
    """(U_xx, U_xy, U_yy) for y >= 0 on region interiors."""
    p, c = ctx.p, ctx.coef
    uxx = np.empty_like(x)
    uxy = np.empty_like(x)
    uyy = np.empty_like(x)
    for r in range(N_REGIONS):
        m = labels == r
        if not np.any(m):
            continue
        xm, Ym = x[m], Y[m]
        if r == 0 or r == 7:
            uxx[m] = -p * (p - 1) * c * xm ** (p - 2)
            uxy[m] = 0.0
            uyy[m] = 0.0
        elif r == 1:
            b = p**p / (2 * (p - 2) ** (p - 2))
            uxx[m] = b * (Ym - xm) ** (p - 3) * (p * xm - 2 * Ym)
            uxy[m] = b * (Ym - xm) ** (p - 3) * (Ym - (p - 1) * xm)
            uyy[m] = b * (Ym - xm) ** (p - 3) * (p - 2) * xm
        elif r == 2:
            uxx[m] = -p * (xm + Ym) ** (p - 3) * ((p**2 - 2 * p + 2) / 2 * xm + Ym)
            uxy[m] = p * (p - 2) / 2 * (xm + Ym) ** (p - 3) * (Ym - (p - 1) * xm)
            uyy[m] = -p * (xm + Ym) ** (p - 3) * (
                (p**2 - 4 * p + 2) / 2 * xm - (p - 1) * Ym
            )
        elif r == 3:
            uxx[m] = -4 * (1 - Ym) / (1 + xm - Ym) ** 3
            uxy[m] = 2 * (1 - xm - Ym) / (1 + xm - Ym) ** 3
            uyy[m] = 4 * xm / (1 + xm - Ym) ** 3
        elif r == 4:
            b = p**p / 2**p
            uxx[m] = -b * (xm + 1 - Ym) ** (p - 3) * (p * xm + (p - 4) * (Ym - 1))
            uxy[m] = b * (p - 2) * (xm + 1 - Ym) ** (p - 3) * (xm + Ym - 1)
            uyy[m] = b * (xm + 1 - Ym) ** (p - 3) * (-(p - 4) * xm + p * (1 - Ym))
        elif r == 5:
            s = xm + Ym
            hs = _h_where(ctx, s, np.ones_like(s, dtype=bool))
            hp = 1 / ctx.g.gprime(hs)
            den = hs - s + 1
            # d/ds of 2(h-x)/(h-s+1)^2 at fixed x: the h' term enters with
            # a plus sign (the printed table has a sign slip here; the
            # finite-difference oracle and the U_xx chain rule both agree)
            shared = 2 * (hs - xm) * (hp - 1) / den
            uxx[m] = 2 / den**2 * (-2 + hp - shared)
            uxy[m] = 2 / den**2 * (hp - 1 - shared)
            uyy[m] = 2 / den**2 * (hp - shared)
        elif r == 6:
            t = xm - Ym + 1
            G = ctx.g.g(t)
            Gp = ctx.g.gprime(t)
            den = 2 + xm - Ym - G
            common = -4 * (1 - Ym) * (1 - Gp) / den**3
            uxx[m] = common - p ** (p + 1) / 2**p * t ** (p - 2)
            uxy[m] = 2 * (1 - Gp) * (G - xm - Ym) / den**3
            uyy[m] = common + 2 * (2 - Gp) / den**2
    return uxx, uxy, uyy


def is_interior(ctx: UWContext, x, y, tol: float = 1e-8):
    """True where the classification is stable under tol-sized perturbations."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    base = classify(ctx, x, y)
    ok = np.ones_like(x, dtype=bool)
    for dx, dy in ((tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol)):
        ok &= classify(ctx, np.maximum(x + dx, 0.0), y + dy) == base
    return ok


def u_second_derivs(ctx: UWContext, x, y):
    """(U_xx, U_xy, U_yy) on region interiors; errors on boundary points."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    xb, Y = _prep(ctx, x_arr, y_arr)
    xf, Yf = np.atleast_1d(xb), np.atleast_1d(Y)
    inter = is_interior(ctx, xf, np.atleast_1d(np.broadcast_to(y_arr, Yf.shape)))
    if not np.all(inter):
        bad = np.nonzero(~inter)[0][0]
        raise EvaluationError(
            f"second derivatives undefined at region boundary point index {bad}"
        )
    labels = np.atleast_1d(np.asarray(classify(ctx, xf, Yf)))
    uxx, uxy, uyy = _second_pos(ctx, labels, xf, Yf)
    uxy *= np.where(np.atleast_1d(np.broadcast_to(y_arr, Yf.shape)) < 0, -1.0, 1.0)
    if x_arr.ndim or y_arr.ndim:
        shape = np.broadcast_shapes(x_arr.shape, y_arr.shape)
        return uxx.reshape(shape), uxy.reshape(shape), uyy.reshape(shape)
    return float(uxx[0]), float(uxy[0]), float(uyy[0])


def tangent_check(ctx: UWContext, x, y, h, k, slack: float = 1e-9):
    """U(x+h, y+k) <= U(x,y) + phi*h + psi*k, for jumps with |k| <= |h|."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(x < 0) or np.any(x + h < 0):
        raise ValueError("requires x >= 0 and x + h >= 0")
    if np.any(np.abs(k) > np.abs(h) + 1e-15):
        raise ValueError("requires |k| <= |h|")
    phi, psi = u_gradient_ext(ctx, x, y)
    lhs = u_value(ctx, x + h, y + k)
    rhs = u_value(ctx, x, y) + phi * h + psi * k + slack
    ok = lhs <= rhs
    return ok if np.ndim(ok) else bool(ok)


def diagonal_monotone_check(ctx: UWContext, x, y, t_grid, slack: float = 1e-9):
    """phi - psi sampled along the diagonal (x+t, y+t) is non-increasing."""
    t = np.sort(np.asarray(t_grid, dtype=float))
    xs, ys = x + t, y + t
    if np.any(xs < 0) or np.any(np.abs(ys) >= 1):
        raise ValueError("diagonal segment must satisfy x+t >= 0, |y+t| < 1")
    phi, psi = u_gradient_ext(ctx, xs, ys)
    H = phi - psi
    return bool(np.all(np.diff(H) <= slack))


def majorization_check(ctx: UWContext, x, y, slack: float = 1e-10):
    ok = u_value(ctx, x, y) >= v_value(ctx, x, y) - slack
    return ok if np.ndim(ok) else bool(ok)


def _boundary_curves(ctx, n: int):
    """Sample points on each pairwise region boundary, with the two adjacent
    region labels.  Yields (region_a, region_b, x, y)."""
    p = ctx.p
    eps = 1e-9
    u = (np.arange(n) + 0.5) / n

    def seg(x0, x1):
        return x0 + (x1 - x0) * u

    out = []
    # straight edges
    x = seg(eps, 2 / p)
    out.append((0, 4, x, np.ones_like(x)))
    x = seg(2 / p, min(2.0, ctx.g.s_max - 1.2))
    out.append((0, 6, x, np.ones_like(x)))
    x = seg(eps, 1 / p)
    out.append((1, 2, x, (p - 1) * x))
    out.append((1, 3, x, x + 1 - 2 / p))
    out.append((3, 4, x, 1 - x))
    x = seg(1 / p, 2 / p)
    out.append((1, 4, x, x + 1 - 2 / p))
    out.append((2, 5, x, 1 - x))
    out.append((4, 6, x, x + 1 - 2 / p))
    x = seg(eps, 2 / p)
    out.append((2, 7, x, (p - 2) / 2 * x))
    # curved edges through the inverse function, parametrized by s = x+|y|
    s_hi = min(ctx.g.s_max, 3.0)
    s = seg(1 + 1e-9, s_hi)
    hs = h_of(ctx.g, s)
    xc = (s - 1 + hs) / 2
    keep = (s - xc > 0) & (s - xc < 1)
    out.append((5, 6, xc[keep], (s - xc)[keep]))
    keep = (s - hs > 0) & (s - hs < 1)
    out.append((5, 7, hs[keep], (s - hs)[keep]))
    return out


REGION_BOUNDARIES = _boundary_curves
