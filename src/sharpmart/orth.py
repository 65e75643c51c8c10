"""Harmonic special function for the orthogonal case, 1 <= p <= 2.

Inside the strip |y| < 1 the function is the harmonic extension of |t|^p
from both edges y = +-1; outside it equals |x|^p.  It is one integral of
|x + d|^p against the strip's own Poisson kernel, folded to d >= 0 and
taken by a composite Gauss-Legendre rule graded toward the kernel's spike
in as many levels as the spike's width on the rule needs, which each
point's distance to the edge and |x| give in closed form; the points that
share a rule are summed together.  At p = 2 it is x^2 + 1 - y^2.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import kp

__all__ = ["OrthContext", "u_orth"]


# the 16-point Gauss-Legendre rule on [-1, 1]: its 8 positive nodes and their
# weights, ascending, as np.polynomial.legendre.leggauss(16) returns them,
# which is symmetric to the last bit
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)


@functools.cache
def _rule(levels):
    """Nodes and weights, both (16 (levels + 4),), of 16-point Gauss-Legendre
    panels on [0, 1]: four of width 1/4, the first split geometrically by 3
    toward 0 in `levels` levels, down to [0, 3^-levels / 4].  The rule on
    [-1, 1] is `_GL16_NODES` and `_GL16_WEIGHTS` mirrored, the doubles
    `np.polynomial.legendre.leggauss(16)` returns, so no call loads
    `numpy.polynomial`.  Built on first use, not on import."""
    edges = np.concatenate([[0.0], 3.0 ** np.arange(-levels, 0) / 4, np.arange(1, 5) / 4])
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
    t = np.concatenate([-np.array(_GL16_NODES[::-1]), _GL16_NODES])
    w = np.concatenate([_GL16_WEIGHTS[::-1], _GL16_WEIGHTS])
    return (mid + half * t).ravel(), (half * w).ravel()


def _rule_levels(a, y):
    """c = cos(pi y/2), exact as |y| -> 1, and each point's level count
    clip(ceil(log_3(max(a, sqrt(30 c)) / (4 c))), 4, 20), for a = |x| and
    y inside the strip: the innermost level, 3^-L / 4 wide, is no wider
    than the kernel's spike on the rule's unit interval (see `u_orth`)."""
    c = np.sin(np.pi / 2 * (1 - np.abs(y)))
    need = np.ceil(np.log(np.maximum(a, np.sqrt(30 * c)) / (4 * c)) / np.log(3))
    return c, np.clip(need, 4, 20).astype(int)


def _integral(p, a, c, levels):
    """int_0^inf [(a+d)^p + |a-d|^p - 2a^p] P(d)/(c/2) dd at 1-D a = |x| and
    c, each point on the rule of its level count.  Points of one count are
    summed together, the three pieces' nodes on one axis, in chunks whose
    temporaries stay near 2^16 elements."""
    total = np.empty_like(a)
    # the level counts that occur, ascending; np.unique would load numpy.ma
    for n in np.flatnonzero(np.bincount(levels)):
        t, w = _rule(n)
        (group,) = np.nonzero(levels == n)
        for idx in np.array_split(group, math.ceil(3 * t.size * group.size / 2**16)):
            ai, ci = a[idx, None, None], c[idx, None, None]
            r = np.sqrt(ai)
            # piece k is s = s0 + h t: [-r, -r/2] and [-r/2, 0] from their
            # singular ends d = 0 and the kink, then [0, sqrt(30)]
            s0 = np.concatenate([-r, np.zeros_like(r), np.zeros_like(r)], axis=1)
            h = np.concatenate([r / 2, -r / 2, np.full_like(r, math.sqrt(30.0))], axis=1)
            s = s0 + h * t
            d = ai + s * np.abs(s)
            # P/(c/2) in e^{-pi d/2}: no overflow at large d, no cancellation at 0
            e = np.exp(-np.pi / 2 * d)
            kernel = 2 * e * (1 + e * e) / (np.expm1(-np.pi * d) ** 2 + (2 * ci * e) ** 2)
            f = ((ai + d) ** p + (s * s) ** p - 2 * ai**p) * kernel * 2 * np.abs(s)
            total[idx] = np.sum(np.abs(h[:, :, 0]) * (f @ w), axis=1)
    return total


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
    not NaN; an infinite y lies outside the strip.  Inside the strip the
    integrand reaches (2|x| + 30)^p, so a point where that is not a finite
    double (|x| > 6.7e153 at p = 2) is refused, not answered NaN.

    The strip's Poisson kernel for both edges together (Widder 1961) is
    P(d) = (c/2) cosh(pi d/2) / (sinh^2(pi d/2) + c^2), c = cos(pi y/2).
    It is even in d with mass 1, so with a = |x|

        U = a^p + int_0^inf [(a+d)^p + |a-d|^p - 2a^p] P(d) dd.

    The bracket vanishes to second order at d = 0, which tames the spike
    of width ~c that P has there near the edge.  Its kink |a - d|^p is
    |s|^{2p} under d = a + s|s|, smooth on either side of s = 0.  Past
    d = a + 30, P < c e^{-pi d/2} < c e^{-47}: the dropped tail is below
    1e-17 c.

    s runs over three pieces, each the affine image of one rule's nodes on
    [0, 1] from its singular end: [-sqrt(a), -sqrt(a)/2] from the spike at
    d = 0, [-sqrt(a)/2, 0] and [0, sqrt(30)] from the kink.  The grading is
    by 3, not 8: P's poles at d = +-i (2/pi) asin(c) can lie 45 degrees off
    it, and a panel much longer than its distance to them loses digits (by
    8, up to 9e-10 at x ~ 0, 1 - |y| ~ 0.02).

    The spike is about c wide in d, and the levels need only reach its
    width on the rule's unit interval tau.  On the first piece d ~ a tau
    near tau = 0, so it is c/a wide; on the third at a = 0, d = 30 tau^2,
    so sqrt(c/30) wide.  The innermost of L levels is 3^-L / 4 wide, so a
    point takes L = clip(ceil(log_3(max(a, sqrt(30 c)) / (4 c))), 4, 20)
    levels.  Against 20 levels at every point this errs by at most 4.9e-16
    of max(1, |U|) on 15,000 points with a <= 1e4 and c >= 1e-15, at
    every p; at p = 2 it is within 2e-16 of x^2 + 1 - y^2, relative, for a
    up to 1e4 and c down to 1e-12.  One level fewer at every point errs by 4.5e-14
    (p = 2) to 2.7e-10 (p = 1).
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not np.isfinite(x).all() or np.isnan(y).any():
        raise ValueError("requires points (x, y) with finite x and y not NaN")
    p = ctx.p
    # |x|^p by numpy's array loop at every shape: its power of a 0-d array
    # rounds differently, so a scalar call would differ from the same point
    # in an array by an ulp
    u = (np.abs(x.reshape(-1)) ** p).reshape(x.shape)
    inside = np.abs(y) < 1
    a = np.abs(x[inside])
    limit = (sys.float_info.max ** (1 / p) - 30) / 2  # (2 limit + 30)^p is finite
    if np.max(a, initial=0.0) > limit:
        raise ValueError(
            f"requires (2|x| + 30)^p finite inside the strip: |x| <= {limit:.4g} at p = {p}"
        )
    c, levels = _rule_levels(a, y[inside])
    u[inside] += c / 2 * _integral(p, a, c, levels)
    return u if u.ndim else float(u)
