"""Piecewise special function U and majorant V on the right half-plane, p > 2.

The half-plane splits into eight regions D0..D7 (first match wins, in index
order, with |y| throughout); U is written once per region, in `_value`, by a
closed form, two of which involve the auxiliary function G (D6 reads it only
through its gap u = t + 1 - G, never as a difference) and its inverse h.
The gradient and the three second derivatives are not written out: `_value`
runs on second-order jets in (x, |y|), which carry them by the chain rule,
with the derivatives of u and h taken from G' = c t^{p-2} u^2.  One helper,
`_classified`, prepares and classifies a point set once and keeps the
h(x+|y|) that classification computed; every evaluator reads its result, and
the dispatcher `_dispatch` runs each region's formula, on arrays or on jets,
on that region's points.  Values, U_x, U_xx and U_yy are even in y, U_y and
U_xy odd.  Every public evaluator broadcasts x against y and returns arrays
of the broadcast shape, or Python scalars (int labels, float values, bool
verdicts) when both are scalars.  `verify u-weak` reads all of its checks on
one sample from one classification and one jet pass, through `_sample_checks`.

A point is interior when its label survives the four moves of x or y by
tol.  A move shifts the slack of each region inequality by at most tol times
a bound (h' in (0, 1] bounds those that read h), so `is_interior` moves and
classifies again only the points whose slack over bound lies in a band of
2 tol + 1e-12; every other point keeps its label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import weak_constant_pth_power
from .gfun import GSolution, _slope_from_gap, build_g_rk, h_of

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
    "majorization_check",
    "REGION_BOUNDARIES",
]

N_REGIONS = 8

# the tolerances of the property checks, each set once for the public checks
# and for `_sample_checks`
_INTERIOR_TOL = 1e-8
_TANGENT_SLACK = 1e-9
_MAJORIZATION_SLACK = 1e-10


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class UWContext:
    p: float
    g: GSolution

    def __post_init__(self):
        if not (self.p > 2 and np.isfinite(self.p)):
            raise ValueError(f"requires finite p > 2, got {self.p}")
        if self.g.p != self.p:
            raise ValueError("g must be built for the same exponent")

    @property
    def coef(self) -> float:
        """p^p / (2^p (p-1)), the scale of the majorant."""
        return weak_constant_pth_power(self.p)


def build_context(p: float) -> UWContext:
    return UWContext(p, build_g_rk(p))


def _prep(x, y):
    """x, y and |y| as broadcast float arrays; x finite and non-negative, y not NaN."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not np.isfinite(x).all() or np.isnan(y).any():
        raise ValueError("coordinates must not be NaN, and x must be finite")
    if np.any(x < 0):
        raise ValueError("first coordinate must be non-negative")
    return x, y, np.abs(y)


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


def _regions(ctx, x, Y):
    """Region labels at (x, Y = |y|), and the h(x+Y) the D5/D6 predicates
    need: NaN where D0..D4 settled the point or x+Y < 1, so every D5 point
    has its h."""
    p = ctx.p
    s = x + Y
    d04 = (
        (Y >= 1),
        ((p - 1) * x <= Y) & (Y < x + 1 - 2 / p),
        ((p - 2) / 2 * x <= Y) & (Y < np.minimum(1 - x, (p - 1) * x)),
        (x + 1 - 2 / p <= Y) & (Y < 1 - x),
        (np.maximum(1 - x, x + 1 - 2 / p) <= Y) & (Y < 1),
    )
    hs = _h_where(ctx, s, ~np.logical_or.reduce(d04))
    with np.errstate(invalid="ignore"):
        d5 = (s >= 1) & (hs >= x) & (x > (-1 + hs + s) / 2)
        d6 = (s >= 1) & ((1 - hs + s) / 2 <= Y) & (Y < np.minimum(x + 1 - 2 / p, 1.0))
    return np.select(list(d04) + [d5, d6], [0, 1, 2, 3, 4, 5, 6], default=7), hs


def _classified(ctx, x, y):
    """(x, y, |y|, labels, h): the points prepared by `_prep` and classified
    once by `_regions`, for every evaluator that reads them to share."""
    x, y, Y = _prep(x, y)
    return (x, y, Y, *_regions(ctx, x, Y))


def classify(ctx: UWContext, x, y):
    """Region index 0..7 per point; predicates tested in index order."""
    labels = _classified(ctx, x, y)[3]
    return labels if labels.ndim else int(labels)


def _by_region(ctx, x, y, formula, odd):
    """`formula(ctx, r, x, |y|, h)` on each region r's points, each point
    classified once.  `odd` flags, per component of the result, those that
    change sign where y < 0.  One array per component, floats for scalars."""
    return _dispatch(ctx, *_classified(ctx, x, y), formula, odd)


def _dispatch(ctx, x, y, Y, labels, hs, formula, odd):
    """`_by_region` on points already prepared and classified.  Each region's
    points are read and written through one flat index array."""
    out = [np.empty(x.size) for _ in odd]
    xf, Yf, hf, lf = (a.ravel() for a in (x, Y, hs, labels))
    for r in range(N_REGIONS):
        i = np.flatnonzero(lf == r)
        if i.size:
            parts = formula(ctx, r, xf[i], Yf[i], hf[i])
            for o, part in zip(out, parts if isinstance(parts, tuple) else (parts,)):
                o[i] = part
    sign = np.where(y < 0, -1.0, 1.0)
    out = [o.reshape(x.shape) for o in out]
    out = [o * sign if flip else o for o, flip in zip(out, odd)]
    return tuple(out) if x.ndim else tuple(float(o) for o in out)


class _Jet:
    """A quantity with its derivatives in (x, Y = |y|): the tuple
    d = (v, d_x, d_Y, d_xx, d_xY, d_YY).  +, -, * and / (with jets or
    scalars, either side), real powers and `lift` carry d by the chain rule,
    so `_value` run on jets returns U's gradient and Hessian with U: forward
    differentiation (Griewank and Walther 2008, Evaluating Derivatives, ch. 13)."""

    __array_ufunc__ = None  # ndarray op jet falls to the jet's reflected op

    def __init__(self, *d):
        self.d = d

    def lift(self, f, f1, f2):
        """phi(self), given phi, phi' and phi'' at its value."""
        _, a, b, aa, ab, bb = self.d
        return _Jet(f, f1 * a, f1 * b, f1 * aa + f2 * a * a, f1 * ab + f2 * a * b,
                    f1 * bb + f2 * b * b)

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(*(s + t for s, t in zip(self.d, o.d)))
        return _Jet(self.d[0] + o, *self.d[1:])

    __radd__ = __add__

    def __sub__(self, o):
        return self + o * -1

    def __rsub__(self, o):
        return self * -1 + o

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(*(s * o for s in self.d))
        v, a, b, aa, ab, bb = self.d
        w, c, e, cc, ce, ee = o.d
        return _Jet(v * w, a * w + v * c, b * w + v * e, aa * w + 2 * a * c + v * cc,
                    ab * w + a * e + b * c + v * ce, bb * w + 2 * b * e + v * ee)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(*(s / o for s in self.d))
        return self * (1 / o)

    def __rtruediv__(self, o):
        v = self.d[0]
        return o * self.lift(1 / v, -1 / v**2, 2 / v**3)

    def __pow__(self, a):
        v = self.d[0]
        return self.lift(v**a, a * v ** (a - 1), a * (a - 1) * v ** (a - 2))


# which of the six jet components change sign where y < 0: U_Y and U_xY
_ODD = (False, False, True, False, True, False)


def _value(ctx, r, x, Y, h):
    """U on region r at (x, Y = |y|), on arrays or on `_Jet`s; h = h(x+Y)
    is read only by D5."""
    p, c = ctx.p, ctx.coef
    if r == 0:
        return 1 - c * x**p
    if r == 1:
        a = p**p / (2 * (p - 1) * (p - 2) ** (p - 2))
        return a * x * (Y - x) ** (p - 1)
    if r == 2:
        return (x + Y) ** (p - 1) / (p - 1) * ((p - 1) * Y - (p**2 - 2 * p + 2) / 2 * x)
    if r == 3:
        return x / (2 * (p - 1) * (1 + x - Y)) * (-((p - 2) ** 2) + p**2 * (Y - x))
    if r == 4:
        return (
            1
            - p**2 / (2 * (p - 1)) * (1 - Y)
            - c * (x + Y - 1) * (x + 1 - Y) ** (p - 1)
        )
    if r == 5:
        return c * h ** (p - 1) * ((p - 1) * h - p * x)
    if r == 6:
        t = x - Y + 1
        return (
            1
            - 2 * (1 - Y) / _gap(ctx.g, t)
            - c * t ** (p - 1) * (x - (p - 1) * (1 - Y))
        )
    if r == 7:
        return -c * x**p
    raise ValueError(f"unknown region {r}")


def _gap_derivs(g, t):
    """u, u' and u'' at t for the gap u = t + 1 - G: u from the table, then
    u' = 1 - G' and u'' = -G'((p - 2)/t + 2u'/u), with G' = c t^{p-2} u^2."""
    u = g.gap(t)
    gp = _slope_from_gap(g.p, t, u)
    return u, 1 - gp, -gp * ((g.p - 2) / t + 2 * (1 - gp) / u)


def _gap(g, t):
    """The gap u(t), lifted by its derivatives where t is a jet."""
    return t.lift(*_gap_derivs(g, t.d[0])) if isinstance(t, _Jet) else g.gap(t)


def _jets(ctx, r, x, Y, h):
    """(U, U_x, U_Y, U_xx, U_xY, U_YY) on region r: `_value` on jets seeded
    at x and Y; on D5, h = h(x + Y) is lifted by h' = 1/G'(h) and
    h'' = -G''(h) h'^3 = u''(h) h'^3.  U'' is read only on region interiors,
    so the origin's infinite (Y - x)^{p-3} at p < 3 passes silently."""
    X, Y = _Jet(x, 1.0, 0.0, 0.0, 0.0, 0.0), _Jet(Y, 0.0, 1.0, 0.0, 0.0, 0.0)
    if r == 5:
        _, du, d2u = _gap_derivs(ctx.g, h)
        hp = 1 / (1 - du)
        h = (X + Y).lift(h, hp, d2u * hp**3)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _value(ctx, r, X, Y, h).d


def u_branch(ctx: UWContext, region: int, x, y):
    """The closed form of region `region`, evaluated at (x, |y|) as given
    (no membership test) -- the tool behind the boundary-continuity checks."""
    x, _, Y = _prep(x, y)
    h = _h_where(ctx, x + Y, np.ones_like(x, dtype=bool)) if region == 5 else None
    return _value(ctx, region, x, Y, h)


def u_value(ctx: UWContext, x, y):
    return _by_region(ctx, x, y, _value, (False,))[0]


def v_value(ctx: UWContext, x, y):
    x, _, Y = _prep(x, y)
    val = (Y >= 1).astype(float) - ctx.coef * x**ctx.p
    return val if x.ndim else float(val)


def u_gradient_ext(ctx: UWContext, x, y):
    """Extended gradient (phi, psi); odd reflection of psi through the axis.

    One-sided conventions on the exceptional boundaries fall out of the
    first-match classification: on |y| = 1 the D0 branch applies (psi = 0),
    and on the shared edge of D3 and D4 the D4 formula applies.
    """
    return _by_region(ctx, x, y, _jets, _ODD)[1:3]


def _stable(ctx, x, y, Y, base, hs, tol):
    """True where the labels `base` of (x, y) survive the four moves by tol.
    Only the points where some inequality `_regions` tests has a slack over
    bound within the band are moved; a NaN h, read by no predicate, flags none.
    s - 1 is also the slack of Y < 1 - x, and s_max - s keeps the table-end
    error of a move."""
    p, s = ctx.p, x + Y
    band = 2 * tol + 1e-12
    near = np.zeros(x.shape, dtype=bool)
    for slack, bound in (
        (Y - 1, 1),
        (Y - (p - 1) * x, p - 1),
        (x + 1 - 2 / p - Y, 1),
        (Y - (p - 2) / 2 * x, max(1, (p - 2) / 2)),
        (s - 1, 1),
        (ctx.g.s_max - s, 1),
        (hs - x, 2),
        (x - (hs + s - 1) / 2, 2),
        (Y - (1 - hs + s) / 2, 2),
    ):
        near |= np.abs(slack) <= band * bound
    xn, yn, bn = x[near], y[near], base[near]
    ok = np.ones(x.shape, dtype=bool)
    ok[near] = np.logical_and.reduce(
        [
            _regions(ctx, np.maximum(xn + dx, 0.0), np.abs(yn + dy))[0] == bn
            for dx, dy in ((tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol))
        ]
    )
    return ok


def is_interior(ctx: UWContext, x, y, tol: float = _INTERIOR_TOL):
    """True where the classification is stable under the four moves of x or
    y by tol.

    A move shifts each region inequality's slack by at most tol times its
    bound: 1, p - 1, max(1, (p - 2)/2), or 2 where it reads h = h(x+|y|),
    as h' lies in (0, 1].  A point whose every slack over its bound exceeds
    the band 2 tol + 1e-12 (the floor lies above h's 1e-13 Newton tolerance
    and the predicates' rounding) keeps its label; only the points inside
    the band are moved and classified again, so the verdict is the one
    moving every point gives, table-end `EvaluationError` included.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    ok = _stable(ctx, *_classified(ctx, x, y), tol)
    return ok if ok.ndim else bool(ok)


def u_second_derivs(ctx: UWContext, x, y):
    """(U_xx, U_xy, U_yy) on region interiors; errors on boundary points.
    The points are classified once, for the interior test and the jets."""
    pts = _classified(ctx, x, y)
    bad = np.flatnonzero(np.logical_not(_stable(ctx, *pts, _INTERIOR_TOL)))
    if bad.size:
        raise EvaluationError(
            f"second derivatives undefined at region boundary point index {bad[0]}"
        )
    return _dispatch(ctx, *pts, _jets, _ODD)[3:]


def _tangent(ctx, x, y, h, k, u, phi, psi, slack):
    """U(x+h, y+k) <= u + phi*h + psi*k + slack, given U and its extended
    gradient (phi, psi) at (x, y)."""
    return u_value(ctx, x + h, y + k) <= u + phi * h + psi * k + slack


def _majorized(ctx, x, y, u, slack):
    """u >= V(x, y) - slack, given u = U(x, y)."""
    return u >= v_value(ctx, x, y) - slack


def tangent_check(ctx: UWContext, x, y, h, k, slack: float = _TANGENT_SLACK):
    """U(x+h, y+k) <= U(x,y) + phi*h + psi*k, for jumps with |k| <= |h|."""
    x, y, h, k = (np.asarray(a, dtype=float) for a in (x, y, h, k))
    if np.any(x < 0) or np.any(x + h < 0):
        raise ValueError("requires x >= 0 and x + h >= 0")
    if np.any(np.abs(k) > np.abs(h) + 1e-15):
        raise ValueError("requires |k| <= |h|")
    u, phi, psi = _by_region(ctx, x, y, _jets, _ODD)[:3]
    ok = _tangent(ctx, x, y, h, k, u, phi, psi, slack)
    return ok if np.ndim(ok) else bool(ok)


def majorization_check(ctx: UWContext, x, y, slack: float = _MAJORIZATION_SLACK):
    ok = _majorized(ctx, x, y, u_value(ctx, x, y), slack)
    return ok if np.ndim(ok) else bool(ok)


def _sample_checks(ctx, x, y, h, k):
    """The checks of `verify u-weak` on one sample of points (x, y), float
    arrays, with jumps (h, k) that keep x + h >= 0 and |k| <= |h|, from one
    classification and one jet pass of the sample: the tangent and
    majorization verdicts per point, the interior mask, (U_xx, U_xy, U_yy) on
    the interior points, and U_y at (x, |y|).  The tolerances and slacks are
    the public checks' defaults."""
    pts = _classified(ctx, x, y)
    u, phi, psi, *hess = _dispatch(ctx, *pts, _jets, _ODD)
    inter = _stable(ctx, *pts, _INTERIOR_TOL)
    return (
        _tangent(ctx, x, y, h, k, u, phi, psi, _TANGENT_SLACK),
        _majorized(ctx, x, y, u, _MAJORIZATION_SLACK),
        inter,
        tuple(d[inter] for d in hess),
        psi * np.where(y < 0, -1.0, 1.0),  # psi is odd in y: exact
    )


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
