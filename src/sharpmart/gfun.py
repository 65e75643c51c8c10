"""Construction of the monotone auxiliary function G and its inverse h.

G solves the Riccati-type initial value problem

    G'(t) = (p/2)^{p+1} t^{p-2} (t + 1 - G(t))^2,   G(2/p) = 1,

for a fixed p > 2.  Two independent constructions are provided: a Magnus
scan of the linearized equation joined to G's own outer series (the primary
path, in numpy) and a closed form through modified Bessel functions, a ratio
of the exponentially scaled I_nu and K_nu, which runs in double precision.
Both tabulate the gap u alone, and G is carried by it: G = t + 1 - u and
G' = (p/2)^{p+1} t^{p-2} u^2.  A value rebuilt as t + 1 - G would lose u to
cancellation once u is far below t, so nothing is.  The inverse h = G^{-1}
is obtained by Newton steps on the cubic of G, read from the gap's
interpolant, on the interval that holds each argument.

Only the Bessel route imports scipy (`scipy.special`), when it is called,
so importing this module, or building the primary table, loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstructionError",
    "GSolution",
    "g_rhs",
    "build_g_rk",
    "build_g_bessel",
    "h_of",
    "h_prime",
]


class ConstructionError(RuntimeError):
    pass


_T_MAX = 10.0  # right end of every table; p > 2 puts its left end 2/p below 1


def g_rhs(p: float, t, g):
    return _slope_from_gap(p, t, t + 1 - g)


def _slope_from_gap(p: float, t, u):
    """G' = (p/2)^{p+1} t^{p-2} u^2 from the gap u = t + 1 - G."""
    return (p / 2) ** (p + 1) * t ** (p - 2) * u**2


def _check_exponent(p: float) -> None:
    """ValueError unless p is a finite real above 2; ConstructionError where
    the coefficient (p/2)^{p+1} of G' is not a finite double (from p ~ 160.8)."""
    if not (p > 2 and math.isfinite(p)):
        raise ValueError(f"requires finite p > 2, got {p}")
    try:
        (p / 2) ** (p + 1)
    except OverflowError:
        raise ConstructionError(f"(p/2)^(p+1) overflows a double at p = {p}") from None


class _Hermite:
    """C1 piecewise cubic through (x_i, y_i) with slopes m_i.

    c[k, i] is the coefficient of (t - x_i)^{3-k} on [x_i, x_{i+1}], and
    both the coefficients and the evaluation follow the arithmetic of
    scipy's CubicHermiteSpline, so the values are the same floats.
    """

    def __init__(self, x, y, m):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]))

    def __call__(self, t):
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        s = t - self.x[i]
        c3, c2, c1, c0 = self.c[:, i]
        return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)


@dataclass(frozen=True)
class GSolution:
    """The increasing solution G, tabulated by its gap u = t + 1 - G on
    `grid` and interpolated by one C1 cubic Hermite spline of u with slopes
    1 - G'.

    `g_values` (with G(2/p) = 1 exactly) and `gprime_values` are derived
    from `u_values`; `g`, `gap` and `gprime` evaluate the same spline, so
    G = t + 1 - u holds exactly between nodes as well.
    """

    p: float
    grid: np.ndarray
    u_values: np.ndarray = field(repr=False)
    method: str
    g_values: np.ndarray = field(init=False, repr=False)
    gprime_values: np.ndarray = field(init=False, repr=False)
    _spline: _Hermite = field(init=False, repr=False)

    def __post_init__(self):
        p, t, u = self.p, self.grid, self.u_values
        if np.any(np.diff(t) <= 0):
            raise ConstructionError("grid must be strictly increasing")
        if abs(t[0] - 2 / p) > 1e-12 or abs(u[0] - 2 / p) > 1e-12:
            raise ConstructionError("table must start at t = 2/p with u = 2/p")
        g = t + 1 - u
        g[0] = 1.0  # the initial condition; t + 1 - u may round it by an ulp
        # where c t^{p-2} overflows, G' is inf, or NaN once u^2 underflows
        with np.errstate(over="ignore", invalid="ignore"):
            gp = _slope_from_gap(p, t, u)
        for bad, what in ((~(u > 0), "bound G < t+1 violated"),  # NaN included
                          (np.diff(g) <= 0, "solution not increasing"),
                          (~((gp >= 1.0 - 1e-12) & (gp < np.inf)), "slope < 1 or not finite")):
            i = np.flatnonzero(bad)
            if i.size:
                raise ConstructionError(f"{what} at t={t[i[0]]}")
        object.__setattr__(self, "g_values", g)
        object.__setattr__(self, "gprime_values", gp)
        object.__setattr__(self, "_spline", _Hermite(t, u, 1 - gp))

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

    def gap(self, t):
        """u(t) = t + 1 - G(t), interpolated with its relative accuracy."""
        return self._spline(self._check_domain(t))

    def g(self, t):
        t = self._check_domain(t)
        return t + 1 - self._spline(t)

    def gprime(self, t):
        """G'(t) from the interpolated gap, free of the cancellation in
        t + 1 - G."""
        t = self._check_domain(t)
        return _slope_from_gap(self.p, t, self._spline(t))


_SCAN_NODES = 3000  # uniform nodes of the Magnus scan on [2/p, min(t*, 10)]
_SERIES_RATIO = 1 + 5e-4  # ratio of successive outer-series nodes past t*


def build_g_rk(p: float) -> GSolution:
    """Tabulate the gap u = t + 1 - G on [2/p, 10]: a Magnus scan up to t*,
    G's outer series past it.

    With c = (p/2)^{p+1}, r = (c t^{p-2})^{-1/2}, d = r/t and the fast time
    tau = int dt/r = 2/(p d), w = u/r is z'/z for z'' = z + m d z', where
    m = (p - 2)/2.  Past t*, w = sum b_n d^n with b_0 = 1 and b_n =
    [(m + (m + 1)(n - 1)) b_{n-1} - sum_{i=1}^{n-1} b_i b_{n-i}]/2, cut at
    its smallest term, which is below 1e-16 from t* on.  Up to t*, each
    step of (z, z') is one fourth-order Magnus step (Blanes, Casas, Oteo and
    Ros 2009, Phys. Rep. 470) whose normalized exponential has positive
    entries, so one doubling prefix scan composes them with no cancellation.
    p is checked by `_check_exponent`; a refused table is a `ConstructionError`.
    """
    _check_exponent(p)
    m = (p - 2) / 2
    b = np.ones(60)
    for n in range(1, b.size):
        b[n] = ((m + (m + 1) * (n - 1)) * b[n - 1] - b[1:n] @ b[n - 1 : 0 : -1]) / 2
    # term n falls to 1e-16 at d_n; t* is where the first of them is reached
    d_n = (1e-16 / np.abs(b[1:])) ** (1 / np.arange(1, b.size))
    n = int(np.argmax(d_n)) + 1
    sqrt_c = (p / 2) ** ((p + 1) / 2)
    t_star = (sqrt_c * d_n[n - 1]) ** (-2 / p)
    ts = np.linspace(2 / p, min(t_star, _T_MAX), _SCAN_NODES)
    if t_star < _T_MAX:
        n_tail = math.ceil(math.log(_T_MAX / t_star) / math.log(_SERIES_RATIO))
        ts = np.concatenate((ts, np.geomspace(t_star, _T_MAX, n_tail + 1)[1:]))
    tau = sqrt_c * ts ** (p / 2) / (p / 2)
    d = 2 / (p * tau)  # underflows past t* at large p, but never overflows
    # (z, z')' = [[0, 1], [1, m d]] (z, z'), read at the two Gauss points, is
    # stepped by exp(a I + [[-a, h + k], [h - k, a]]) / (e^a cosh s); z grows
    # by less than e^30 over the scan, so no prefix product overflows
    ta = tau[:_SCAN_NODES]
    h = np.diff(ta)
    e1, e2 = ((p - 2) / (p * (ta[:-1] + h / 2 + x * h / 12**0.5)) for x in (-1, 1))
    k = 3**0.5 / 12 * h * h * (e1 - e2)
    a = h * (e1 + e2) / 4
    s = np.sqrt(a * a + h * h - k * k)
    th = np.tanh(s) / s
    M = np.stack((1 - a * th, (h + k) * th, (h - k) * th, 1 + a * th))
    for j in (1 << i for i in range(h.size.bit_length())):
        (m00, m01, m10, m11), (n00, n01, n10, n11) = M[:, j:], M[:, :-j]
        M[:, j:] = (m00 * n00 + m01 * n10, m00 * n01 + m01 * n11,
                    m10 * n00 + m11 * n10, m10 * n01 + m11 * n11)
    w0 = p * ta[0] / 2  # u/r at t = 2/p, where u = 2/p
    tail = np.polyval(b[n::-1], d[_SCAN_NODES:])
    w = np.concatenate(([w0], (M[2] + M[3] * w0) / (M[0] + M[1] * w0), tail))
    return GSolution(p, ts, ts * d * w, "magnus")


_BESSEL_NODES = 300


def _bessel_log_derivative(nu: float, z, e):
    """w'/w for w = I_nu(z) + c K_nu(z), with the scaled weight e = c e^{-2z}."""
    from scipy.special import ive, kve

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
    from scipy.special import ive, kve

    t = np.asarray(t, dtype=float)
    nu = (p - 1) / p
    beta = (p / 2) ** ((p - 1) / 2)
    z = beta * t ** (p / 2)
    z0 = beta * (2 / p) ** (p / 2)
    q = (2 - p) / (p * z0)  # required value of R - nu/z at z0
    r = (ive(nu + 1, z0) - q * ive(nu, z0)) / (kve(nu + 1, z0) + q * kve(nu, z0))
    R = _bessel_log_derivative(nu, z, r * np.exp(-2 * (z - z0)))
    return ((p - 1) / 2 + (p / 2) * z * R) / ((p / 2) ** (p + 1) * t ** (p - 1))


def build_g_bessel(p: float) -> GSolution:
    """Evaluate the gap of G on [2/p, 10] through the Bessel linearization
    of the Riccati equation.

    Nodes are cubically graded towards the left endpoint, where the
    solution's curvature concentrates; interpolation error there dominates
    the uniform-grid budget by orders of magnitude.

    p is checked as by `build_g_rk`.  From p = 10.84 a Bessel value on the
    table is not finite and the build raises `ConstructionError`.
    """
    _check_exponent(p)
    s = np.linspace(0.0, 1.0, _BESSEL_NODES)
    ts = 2 / p + (_T_MAX - 2 / p) * s**3
    ts[0] = 2 / p
    u = _bessel_gap(p, ts)
    bad = np.nonzero(~np.isfinite(u))[0]
    if bad.size:
        raise ConstructionError(f"non-finite Bessel value at t={ts[bad[0]]}")
    return GSolution(p, ts, u, "bessel")


def h_of(sol: GSolution, s):
    """h(s) = t with G(t) = s on [1, s_max], for a scalar or an array of any
    shape.

    The arguments are sorted and located in `g_values` by one
    `searchsorted`; each is then solved by Newton steps, started from linear
    interpolation, on the cubic of G = t + 1 - u on its interval, read from
    the gap spline's coefficients, until a step falls below 1e-13.  Each
    value equals that of a scalar call, and node values map to their nodes
    exactly.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 1 - 1e-12) or np.any(s_arr > sol.s_max + 1e-12):
        raise ValueError(f"argument outside [1, {sol.s_max}]")
    flat = np.clip(s_arr, 1.0, sol.s_max).ravel()
    order = np.argsort(flat)
    ss = flat[order]
    g, x = sol.g_values, sol.grid
    i = np.clip(np.searchsorted(g, ss, side="right") - 1, 0, g.size - 2)
    # G = t + 1 - u, so its cubic on an interval is -u3, -u2, 1 - u1, g_i
    c3, c2, c1 = np.negative(sol._spline.c[:3, i])
    c1 += 1
    c0 = g[i]
    w = x[i + 1] - x[i]
    d = (ss - c0) / (g[i + 1] - c0) * w
    # each point stops at its own first step below 1e-13, so its value does
    # not depend on the other arguments of the call
    act = np.arange(ss.size)
    for _ in range(60):
        da, a3, a2, a1 = d[act], c3[act], c2[act], c1[act]
        f = ((a3 * da + a2) * da + a1) * da + c0[act] - ss[act]
        fp = (3 * a3 * da + 2 * a2) * da + a1
        d_new = np.clip(da - f / fp, 0.0, w[act])
        d[act] = d_new
        act = act[np.abs(d_new - da) >= 1e-13]
        if not act.size:
            break
    t_sorted = x[i] + d
    # the last cubic may miss s_max at d = w by an ulp; sorted, those
    # arguments come last
    t_sorted[np.searchsorted(ss, sol.s_max) :] = sol.t_max
    t = np.empty_like(flat)
    t[order] = t_sorted
    t = t.reshape(s_arr.shape)
    return t if np.ndim(s) else float(t)


def h_prime(sol: GSolution, s):
    """h'(s) = 1 / G'(h(s)), with G' read from the gap; lies in (0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 1):
        raise ValueError("h' is defined for s > 1")
    val = 1 / sol.gprime(h_of(sol, s_arr))
    return val if np.ndim(s) else float(val)
