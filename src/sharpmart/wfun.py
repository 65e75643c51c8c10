"""Special function for the weak-type bound with exponent below one.

W(x, y) = 2x - x^2 + y^2 inside the triangle x + |y| <= 1 of the right
half-plane, capped at 1 outside; (phi, psi) is its extended gradient,
with the inner branch applying on the boundary x + |y| = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["w_value", "w_gradient_ext", "w_tangent_check", "w_bounds_check"]


def _prep(x, y):
    """x and y as float arrays; x must be finite and non-negative, y not NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(x).all() or np.isnan(y).any():
        raise ValueError("coordinates must not be NaN, and x must be finite")
    if np.any(x < 0):
        raise ValueError("first coordinate must be non-negative")
    return x, y


def w_value(x, y):
    x, y = _prep(x, y)
    inner = x + np.abs(y) <= 1
    val = np.where(inner, 2 * x - x**2 + y**2, 1.0)
    return val if val.ndim else float(val)


def w_gradient_ext(x, y):
    x, y = _prep(x, y)
    inner = x + np.abs(y) <= 1
    phi = np.where(inner, 2 - 2 * x, 0.0)
    psi = np.where(inner, 2 * y, 0.0)
    if phi.ndim:
        return phi, psi
    return float(phi), float(psi)


def w_tangent_check(x, y, h, k, slack: float = 1e-12):
    """W(x+h, y+k) <= W(x,y) + phi*h + psi*k, for jumps with |k| <= |h|.

    The jump of the dominated second coordinate may not exceed the jump of
    the first: on the inner branch the excess is exactly -h^2 + k^2, so the
    inequality characterizes |k| <= |h|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(x < 0) or np.any(x + h < 0):
        raise ValueError("requires x >= 0 and x + h >= 0")
    if np.any(np.abs(k) > np.abs(h) + 1e-15):
        raise ValueError("requires |k| <= |h|")
    phi, psi = w_gradient_ext(x, y)
    ok = w_value(x + h, y + k) <= w_value(x, y) + phi * h + psi * k + slack
    return ok if np.ndim(ok) else bool(ok)


def w_bounds_check(x, y, p=None, slack: float = 1e-12):
    """W >= indicator of {x+|y| >= 1}; and W <= (2x)^p when |y| <= x, p < 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = w_value(x, y)
    ok = w >= (x + np.abs(y) >= 1).astype(float) - slack
    if p is not None:
        if not 0 < p < 1:
            raise ValueError("upper bound needs an exponent in (0, 1)")
        on_cone = np.abs(y) <= x
        ok = ok & (~on_cone | (w <= (2 * x) ** p + slack))
    return ok if np.ndim(ok) else bool(ok)
