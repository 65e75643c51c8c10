"""Construction of the monotone auxiliary function G and its inverse h.

G solves the Riccati-type initial value problem

    G'(t) = (p/2)^{p+1} t^{p-2} (t + 1 - G(t))^2,   G(2/p) = 1,

for a fixed p > 2.  Two independent constructions are provided: an LSODA
integration of the gap u = t + 1 - G (the primary path) and a closed form
through modified Bessel functions, which linearize the equation.  The
closed form is a ratio of the exponentially scaled I_nu and K_nu, so it
runs in double precision without the overflow of the unscaled basis.
The inverse h = G^{-1} is obtained from a tabulated solution by monotone
inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ive, kve

__all__ = [
    "ConstructionError",
    "GSolution",
    "g_rhs",
    "build_g_rk",
    "build_g_bessel",
    "h_of",
    "h_prime",
    "default_t_max",
]


class ConstructionError(RuntimeError):
    pass


def default_t_max(p: float) -> float:
    return max(10.0, 20.0 / p)


def g_rhs(p: float, t, g):
    return (p / 2) ** (p + 1) * t ** (p - 2) * (t + 1 - g) ** 2


@dataclass(frozen=True)
class GSolution:
    """Tabulated increasing solution with a C1 cubic interpolant."""

    p: float
    grid: np.ndarray
    g_values: np.ndarray
    gprime_values: np.ndarray
    method: str
    _spline: CubicHermiteSpline = field(repr=False, default=None)

    def __post_init__(self):
        t, g, gp = self.grid, self.g_values, self.gprime_values
        if np.any(np.diff(t) <= 0):
            raise ConstructionError("grid must be strictly increasing")
        if abs(t[0] - 2 / self.p) > 1e-12 or abs(g[0] - 1.0) > 1e-12:
            raise ConstructionError("solution must start at (2/p, 1)")
        if abs(gp[0] - self.p / 2) > 1e-9:
            raise ConstructionError(f"initial slope {gp[0]} != p/2")
        bad = np.nonzero(np.diff(g) <= 0)[0]
        if bad.size:
            raise ConstructionError(f"solution not increasing at t={t[bad[0]]}")
        bad = np.nonzero(g >= t + 1)[0]
        if bad.size:
            raise ConstructionError(f"bound G < t+1 violated at t={t[bad[0]]}")
        bad = np.nonzero(gp < 1.0 - 1e-12)[0]
        if bad.size:
            raise ConstructionError(f"slope < 1 at t={t[bad[0]]}")
        object.__setattr__(self, "_spline", CubicHermiteSpline(t, g, gp))

    @property
    def t_max(self) -> float:
        return float(self.grid[-1])

    @property
    def s_max(self) -> float:
        return float(self.g_values[-1])

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 2 / self.p - 1e-12) or np.any(t > self.t_max + 1e-12):
            raise ValueError(
                f"argument outside tabulated range [{2 / self.p}, {self.t_max}]"
            )
        return np.clip(t, 2 / self.p, self.t_max)

    def g(self, t):
        return self._spline(self._check_domain(t))

    def gprime(self, t):
        return g_rhs(self.p, self._check_domain(t), self.g(t))


def build_g_rk(p: float, t_max: float | None = None, step: float = 1e-3) -> GSolution:
    """Integrate the gap u = t + 1 - G with LSODA; tabulate G on a uniform
    grid of spacing at most `step`.

    u solves u' = 1 - c t^{p-2} u^2, u(2/p) = 2/p, c = (p/2)^{p+1}.  LSODA
    switches between Adams and BDF as the problem stiffens for large t.
    The tolerance is purely relative because u falls to 2e-6 at p = 8 and
    1e-8 at p = 10; G' is tabulated from u, since t + 1 - G would lose u
    to cancellation.
    """
    if not p > 2:
        raise ValueError(f"requires p > 2, got {p}")
    if t_max is None:
        t_max = default_t_max(p)
    t0 = 2 / p
    if not t_max > t0:
        raise ValueError("t_max must exceed 2/p")
    if step > 1e-3:
        raise ValueError("step must be <= 1e-3")
    ts = np.linspace(t0, t_max, int(math.ceil((t_max - t0) / step)) + 1)
    c = (p / 2) ** (p + 1)
    sol = solve_ivp(
        lambda t, u: 1 - c * t ** (p - 2) * u**2,
        (t0, t_max),
        [t0],
        method="LSODA",
        t_eval=ts,
        rtol=1e-12,
        atol=1e-30,
    )
    if not sol.success:
        raise ConstructionError(f"LSODA failed: {sol.message}")
    u = sol.y[0]
    return GSolution(p, ts, ts + 1 - u, c * ts ** (p - 2) * u**2, "lsoda")


_BESSEL_NODES = 300


def _bessel_log_derivative(nu: float, z, e):
    """w'/w for w = I_nu(z) + c K_nu(z), with the scaled weight e = c e^{-2z}."""
    return nu / z + (ive(nu + 1, z) - e * kve(nu + 1, z)) / (ive(nu, z) + e * kve(nu, z))


def _bessel_gap(p: float, t):
    """The gap u = t + 1 - G(t) from the Bessel linearization.

    G = t + 1 - (2/p)^{p+1} k'/(k t^{p-2}) turns the Riccati equation into
    a linear one solved by k = t^{(p-1)/2} (A I_nu(z) + B K_nu(z)) with
    nu = (p-1)/p and z = beta t^{p/2}.  Only k'/k enters, so with the
    exponentially scaled ive/kve (DLMF 10.25, 10.29(i)) the factors e^{+-z}
    cancel and double precision suffices.  The weight r = (B/A) e^{-2 z0} of
    the scaled K part at z0 = z(2/p) is fixed by u(2/p) = 2/p, which is
    k'/k = p^2/4 there.
    """
    t = np.asarray(t, dtype=float)
    nu = (p - 1) / p
    beta = (p / 2) ** ((p - 1) / 2)
    z = beta * t ** (p / 2)
    z0 = beta * (2 / p) ** (p / 2)
    q = (2 - p) / (p * z0)  # required value of R - nu/z at z0
    r = (ive(nu + 1, z0) - q * ive(nu, z0)) / (kve(nu + 1, z0) + q * kve(nu, z0))
    R = _bessel_log_derivative(nu, z, r * np.exp(-2 * (z - z0)))
    return ((p - 1) / 2 + (p / 2) * z * R) / ((p / 2) ** (p + 1) * t ** (p - 1))


def build_g_bessel(p: float, t_max: float | None = None) -> GSolution:
    """Evaluate G through the Bessel linearization of the Riccati equation.

    Nodes are cubically graded towards the left endpoint, where the
    solution's curvature concentrates; interpolation error there dominates
    the uniform-grid budget by orders of magnitude.  G' is tabulated from
    the gap u directly, not from t + 1 - G, which would lose u to
    cancellation once u is far below t.
    """
    if not p > 2:
        raise ValueError(f"requires p > 2, got {p}")
    if t_max is None:
        t_max = default_t_max(p)
    s = np.linspace(0.0, 1.0, _BESSEL_NODES)
    ts = 2 / p + (t_max - 2 / p) * s**3
    ts[0] = 2 / p
    u = _bessel_gap(p, ts)
    bad = np.nonzero(~np.isfinite(u))[0]
    if bad.size:
        raise ConstructionError(f"non-finite Bessel value at t={ts[bad[0]]}")
    gp = (p / 2) ** (p + 1) * ts ** (p - 2) * u**2
    return GSolution(p, ts, ts + 1 - u, gp, "bessel")


def h_of(sol: GSolution, s):
    """h(s) = t with G(t) = s on [1, s_max], by monotone inversion refined
    with Newton steps."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 1 - 1e-12) or np.any(s_arr > sol.s_max + 1e-12):
        raise ValueError(f"argument outside [1, {sol.s_max}]")
    s_arr = np.clip(s_arr, 1.0, sol.s_max)
    t = np.interp(s_arr, sol.g_values, sol.grid)
    lo, hi = 2 / sol.p, sol.t_max
    for _ in range(60):
        resid = sol.g(t) - s_arr
        t_new = np.clip(t - resid / sol.gprime(t), lo, hi)
        if np.max(np.abs(t_new - t)) < 1e-13:
            t = t_new
            break
        t = t_new
    return t if np.ndim(s) else float(t)


def h_prime(sol: GSolution, s):
    """h'(s) = 1 / G'(h(s)); lies in (0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 1):
        raise ValueError("h' is defined for s > 1")
    val = 1 / g_rhs(sol.p, h_of(sol, s_arr), s_arr)
    return val if np.ndim(s) else float(val)
