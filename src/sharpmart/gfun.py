"""Construction of the monotone auxiliary function G and its inverse h.

G solves the Riccati-type initial value problem

    G'(t) = (p/2)^{p+1} t^{p-2} (t + 1 - G(t))^2,   G(2/p) = 1,

for a fixed p > 2.  Two independent constructions are provided: a Magnus
scan of the linearized equation up to t*, then G's own outer series read per
point (the primary path, in numpy), and a closed form through modified Bessel
functions, a ratio of the exponentially scaled I_nu and K_nu, which runs in
double precision.  Both carry G by the gap u alone: G = t + 1 - u, and
G' = (p/2)^{p+1} t^{p-2} u^2 (w^2 on the series).  A value rebuilt as
t + 1 - G would lose u to cancellation once u is far below t, so nothing is.
The inverse h = G^{-1} starts at the chord of the table interval that holds
each argument; three Newton steps on that interval's cubic of G, or on the
series past the table, make it the inverse.  `GSolution.gap_jet` and `h_jet`
form every derivative of u and of h.

Both routes run on numpy alone: the Bessel route evaluates its I_nu and
K_nu by their power series and trapezoid sums of their integrals
(`_scaled_bessel`), so no scipy module is loaded by either.

Each route's table is built once per process for each p (at most 8 of
each are kept), and every array it holds is read-only, so a table shared by
several callers cannot be changed by one of them.  Code that changes what a
build reads (a node setting, `_bessel_gap`) clears `_scan_table` and
`_bessel_table` first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstructionError",
    "GSolution",
    "build_g_rk",
    "build_g_bessel",
    "h_of",
    "h_prime",
]


class ConstructionError(RuntimeError):
    pass


_T_MAX = 10.0  # right end of G's domain; p > 2 puts its left end 2/p below 1


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


def _locate(nodes, q):
    """The interval [nodes_i, nodes_{i+1}] of the table that holds each q, as
    i, found by one search of the sorted query and read back in its shape."""
    flat = np.ravel(q)
    order = np.argsort(flat)
    i = np.empty(flat.size, dtype=np.intp)
    i[order] = np.searchsorted(nodes, flat[order], side="right") - 1
    return np.clip(i, 0, nodes.size - 2).reshape(np.shape(q))


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
        self.y_end = y[-1]
        self.c = np.stack((t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]))

    def __call__(self, t):
        """The cubic at t.  The last node reads its own value, which the last
        cubic may miss by an ulp; each other node is its cubic's constant term."""
        i = _locate(self.x, t)
        s = t - self.x[i]
        c3, c2, c1, c0 = self.c[:, i]
        v = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        return np.where(t == self.x[-1], self.y_end, v)[()]


@dataclass(frozen=True)
class GSolution:
    """The increasing solution G, tabulated by its gap u = t + 1 - G on
    `grid` and interpolated there by one C1 cubic Hermite spline of u with
    slopes 1 - G'.  A table that reaches t*, where G's outer series holds to
    rounding (`build_g_rk`), is continued to t = 10 by that series, read per
    point; any other table ends at its last node.

    `g_values` (with G(2/p) = 1 exactly) and `gprime_values` are derived
    from `u_values`; `g`, `gap`, `gprime`, `gap_jet` and `h_jet` read the
    same spline and series, so G = t + 1 - u holds exactly everywhere.
    """

    p: float
    grid: np.ndarray
    u_values: np.ndarray = field(repr=False)
    g_values: np.ndarray = field(init=False, repr=False)
    gprime_values: np.ndarray = field(init=False, repr=False)
    t_max: float = field(init=False)
    s_max: float = field(init=False)
    _spline: _Hermite = field(init=False, repr=False)
    _b: np.ndarray = field(init=False, repr=False)  # b_1..b_n of the outer series

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
                raise ConstructionError(f"{what} at t={t[i[0]]} (p = {p})")
        b, t_star = _outer_series(p)
        end = float(t[-1])  # a table that reaches t* is continued by the series to 10
        object.__setattr__(self, "g_values", g)
        object.__setattr__(self, "gprime_values", gp)
        object.__setattr__(self, "_spline", _Hermite(t, u, 1 - gp))
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "t_max", max(end, _T_MAX) if end >= t_star else end)
        object.__setattr__(self, "s_max", float(self.g(self.t_max)))

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 2 / self.p - 1e-12) & (t <= self.t_max + 1e-12)):  # NaN too
            raise ValueError(
                f"argument outside tabulated range [{2 / self.p}, {self.t_max}]"
            )
        return np.clip(t, 2 / self.p, self.t_max)

    def gap(self, t):
        """u(t) = t + 1 - G(t), with its relative accuracy."""
        return self._jet(t)[0]

    def g(self, t):
        t = self._check_domain(t)
        return t + 1 - self.gap(t)

    def gprime(self, t):
        """G'(t) from the gap, free of the cancellation in t + 1 - G."""
        return self._jet(t)[3]

    def _outer(self, t):
        """d = 1/(sqrt(c) t^{p/2}) and w - 1 = sum_n b_n d^n past t*, by Horner's
        rule point by point (np.power: a float64 scalar's ** may differ by an ulp)."""
        d = 1 / ((self.p / 2) ** ((self.p + 1) / 2) * np.power(t, self.p / 2))
        wm1 = 0.0
        for b in self._b[::-1]:
            wm1 = (wm1 + b) * d
        return d, wm1

    def _jet(self, t):
        """u, u', u'' and G' at t: on the table u' = 1 - G' and u'' = -G'((p - 2)/t
        + 2u'/u); past it, from the series, u = t d w, u' = -(w - 1)(w + 1),
        u'' = p w d (dw/dd)/t and G' = w^2, none of which cancels."""
        t = self._check_domain(t)
        end = self.grid[-1]
        tt = np.minimum(t, end)
        u = self._spline(tt)
        gp = _slope_from_gap(self.p, tt, u)
        du = 1 - gp
        jet = u, du, -gp * ((self.p - 2) / tt + 2 * du / u), gp
        past = t > end
        if not np.any(past):
            return jet
        tp = t[past] if np.ndim(t) else t  # a scalar stays one, for scalar arithmetic
        d, wm1 = self._outer(tp)
        w = 1 + wm1
        dw = np.polyval(self._b[::-1] * np.arange(self._b.size, 0, -1), d)
        jet = [np.array(a) for a in jet]  # writable, and 0-d for a scalar
        for a, v in zip(jet, (tp * d * w, -wm1 * (w + 1), self.p * w * d * dw / tp, w * w)):
            a[past] = v
        return tuple(a[()] for a in jet)

    def gap_jet(self, t):
        """(u, u', u'') at t."""
        return self._jet(t)[:3]

    def h_jet(self, t):
        """(h', h'') = (1/G', -G'' h'^3 = u'' h'^3) at s = G(t), given t = h(s)."""
        _, _, d2u, gp = self._jet(t)
        return 1 / gp, d2u / gp**3


_SCAN_NODES = 3000  # uniform nodes of the Magnus scan on [2/p, min(t*, 10)]


def _frozen(sol: GSolution) -> GSolution:
    """`sol` with every array it holds made read-only, to be shared."""
    for a in (sol.grid, sol.u_values, sol.g_values, sol.gprime_values, sol._spline.c):
        a.setflags(write=False)
    return sol


@functools.lru_cache(maxsize=8)
def _outer_series(p):
    """(b_1..b_n, t*): G's outer series w = 1 + sum b_n d^n, cut at its
    smallest term, and the t from which that term is below 1e-16 (see
    `build_g_rk`).  The array is read-only, to be shared."""
    m = (p - 2) / 2
    b = np.ones(60)
    for n in range(1, b.size):
        b[n] = ((m + (m + 1) * (n - 1)) * b[n - 1] - b[1:n] @ b[n - 1 : 0 : -1]) / 2
    # term n falls to 1e-16 at d_n; t* is where the first of them is reached
    d_n = (1e-16 / np.abs(b[1:])) ** (1 / np.arange(1, b.size))
    n = int(np.argmax(d_n)) + 1
    b = b[1 : n + 1]
    b.setflags(write=False)
    return b, ((p / 2) ** ((p + 1) / 2) * d_n[n - 1]) ** (-2 / p)


def build_g_rk(p: float) -> GSolution:
    """Tabulate the gap u = t + 1 - G by a Magnus scan on [2/p, min(t*, 10)];
    past t*, up to t = 10, the table reads G's outer series per point.

    With c = (p/2)^{p+1}, r = (c t^{p-2})^{-1/2}, d = r/t and the fast time
    tau = int dt/r = 2/(p d), w = u/r is z'/z for z'' = z + m d z', where
    m = (p - 2)/2.  Past t*, w = sum b_n d^n with b_0 = 1 and b_n =
    [(m + (m + 1)(n - 1)) b_{n-1} - sum_{i=1}^{n-1} b_i b_{n-i}]/2, cut at
    its smallest term, which is below 1e-16 from t* on.  Up to t*, each
    step of (z, z') is one fourth-order Magnus step (Blanes, Casas, Oteo and
    Ros 2009, Phys. Rep. 470) whose normalized exponential has positive
    entries, so one doubling prefix scan composes them with no cancellation.
    p is checked by `_check_exponent`; a refused table is a `ConstructionError`.
    The table is built once per p, and shared read-only.
    """
    return _scan_table(p)


@functools.lru_cache(maxsize=8)
def _scan_table(p):
    _check_exponent(p)
    ts = np.linspace(2 / p, min(_outer_series(p)[1], _T_MAX), _SCAN_NODES)
    tau = (p / 2) ** ((p + 1) / 2) * ts ** (p / 2) / (p / 2)
    d = 2 / (p * tau)
    # (z, z')' = [[0, 1], [1, m d]] (z, z'), read at the two Gauss points, is
    # stepped by exp(a I + [[-a, h + k], [h - k, a]]) / (e^a cosh s); z grows
    # by less than e^30 over the scan, so no prefix product overflows
    h = np.diff(tau)
    e1, e2 = ((p - 2) / (p * (tau[:-1] + h / 2 + x * h / 12**0.5)) for x in (-1, 1))
    k = 3**0.5 / 12 * h * h * (e1 - e2)
    a = h * (e1 + e2) / 4
    s = np.sqrt(a * a + h * h - k * k)
    th = np.tanh(s) / s
    M = np.stack((1 - a * th, (h + k) * th, (h - k) * th, 1 + a * th))
    for j in (1 << i for i in range(h.size.bit_length())):
        (m00, m01, m10, m11), (n00, n01, n10, n11) = M[:, j:], M[:, :-j]
        M[:, j:] = (m00 * n00 + m01 * n10, m00 * n01 + m01 * n11,
                    m10 * n00 + m11 * n10, m10 * n01 + m11 * n11)
    w0 = p * tau[0] / 2  # u/r at t = 2/p, where u = 2/p
    w = np.concatenate(([w0], (M[2] + M[3] * w0) / (M[0] + M[1] * w0)))
    return _frozen(GSolution(p, ts, ts * d * w))


_BESSEL_NODES = 300
_SERIES_Z = 25.0  # I from its power series below this z, from Poisson's integral above
_SERIES_TERMS = 42  # at z = 25 term 41 is below 1e-18 of the sum, and each next < 1/10 of it
_POISSON_NODES = 20
_Z_MAX = 2.0**30  # scipy's ive and kve, the tests' oracle, read NaN from here on


def _scaled_bessel(nu: float, z, with_k=True):
    """e^{-z} I_nu, e^{-z} I_{nu+1}, e^z K_nu and e^z K_{nu+1} at 0 < z < 2^30,
    for nu > -1, with K only where `with_k` holds; every other value is NaN.

    I is its power series (DLMF 10.25.2) below z = 25: positive terms, each
    the last times (z/2)^2/(k(k + nu)).  From z = 25 it is the trapezoid rule
    on Poisson's integral (DLMF 10.32.4) without its second term, below
    e^{-2z} of the first: (1/pi) int_0^pi exp(-2z sin^2(s/2)) cos(nu s) ds.
    K is the trapezoid rule on int_0^inf exp(-2z sinh^2(s/2)) cosh(nu s) ds
    (DLMF 10.32.9), cut where the exponent has fallen by about 40.  Both
    integrands are analytic and decay on the real line, so the rules converge
    geometrically in the step (Trefethen and Weideman 2014, SIAM Rev. 56),
    which scales with the integrands' width 1/sqrt(z).
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    orders = np.array([[nu], [nu + 1]])
    out = np.full((4, flat.size), np.nan)
    ok = (flat > 0) & (flat < _Z_MAX)
    series = ok & (flat < _SERIES_Z)
    x = flat[series]
    k = np.arange(1.0, _SERIES_TERMS)[:, None, None]
    terms = (x / 2) ** 2 * (1 / (k * (k + orders)))
    for j in range(1, _SERIES_TERMS - 1):  # a running product, 5x np.cumprod's speed here
        terms[j] *= terms[j - 1]
    lgam = np.array([[math.lgamma(nu + 1)], [math.lgamma(nu + 2)]])
    out[:2, series] = (1 + terms.sum(axis=0)) * np.exp(orders * np.log(x / 2) - x - lgam)
    poisson = ok & ~series
    x = flat[poisson]
    h = np.minimum(0.55 / np.sqrt(x), math.pi / (_POISSON_NODES - 1))
    out[:2, poisson] = _trapezoid(np.sin, np.cos, orders, x, h, _POISSON_NODES) / math.pi
    with_k = ok & np.broadcast_to(with_k, z.shape).ravel()
    x = flat[with_k]
    if x.size:
        h = np.minimum(0.2, 0.55 / np.sqrt(x))
        # the nodes reach where 2x sinh^2(s/2) - (nu + 1) s, the integrand's
        # decay, is about 40 (>= 38.5 for nu <= 1), by two fixed-point steps
        top = 2 * np.arcsinh(np.sqrt(20 / x))
        top = 2 * np.arcsinh(np.sqrt((40 + (nu + 1) * top) / (2 * x)))
        out[2:, with_k] = _trapezoid(np.sinh, np.cosh, orders, x, h, int(np.max(top / h)) + 2)
    return out.reshape((4,) + z.shape)


def _trapezoid(sq, even, orders, x, h, n):
    """h (f_0/2 + f_1 + ... + f_{n-1}) with f_j = exp(-2x sq(s/2)^2) even(o s)
    at s = j h, for each order o."""
    s = np.arange(n)[:, None] * h
    f = np.exp(-2 * x * sq(s / 2) ** 2)
    f[0] /= 2
    return h * np.einsum("jn,ojn->on", f, even(orders[:, None] * s))


def _bessel_log_derivative(nu: float, z, e):
    """w'/w for w = I_nu(z) + c K_nu(z), with the scaled weight e = c e^{-2z}.

    K's share e K/I is left out where e < 1e-18 and z >= 1, where K/I is
    below 90 (nu <= 2), so it is below 1e-16.
    """
    z, e = np.broadcast_arrays(np.asarray(z, dtype=float), e)
    with_k = (e >= 1e-18) | (z < 1)
    i0, i1, k0, k1 = _scaled_bessel(nu, z, with_k)
    ek0, ek1 = (np.where(with_k, e * k, 0.0) for k in (k0, k1))
    return nu / z + (i1 - ek1) / (i0 + ek0)


def _bessel_gap(p: float, t):
    """The gap u = t + 1 - G(t) from the Bessel linearization.

    G = t + 1 - (2/p)^{p+1} k'/(k t^{p-2}) turns the Riccati equation into
    a linear one solved by k = t^{(p-1)/2} (A I_nu(z) + B K_nu(z)) with
    nu = (p-1)/p and z = beta t^{p/2}.  Only k'/k enters, so with the
    exponentially scaled e^{-z} I and e^z K of `_scaled_bessel` the factors
    e^{+-z} cancel and double precision suffices.  The weight
    r = (B/A) e^{-2 z0} of the scaled K part at z0 = z(2/p) is fixed by
    u(2/p) = 2/p, which is k'/k = p^2/4 there.
    """
    t = np.asarray(t, dtype=float)
    nu = (p - 1) / p
    beta = (p / 2) ** ((p - 1) / 2)
    z = beta * t ** (p / 2)
    z0 = beta * (2 / p) ** (p / 2)
    q = (2 - p) / (p * z0)  # required value of R - nu/z at z0
    i0, i1, k0, k1 = _scaled_bessel(nu, z0)
    r = (i1 - q * i0) / (k1 + q * k0)
    R = _bessel_log_derivative(nu, z, r * np.exp(-2 * (z - z0)))
    # (p/2)^{p+1} t^{p-1} overflows a double near t = 10 from p ~ 111.9; a
    # gap of NaN or 0 there is refused by the table's checks
    with np.errstate(over="ignore"):
        scale = (p / 2) ** (p + 1) * t ** (p - 1)
    return ((p - 1) / 2 + (p / 2) * z * R) / scale


def build_g_bessel(p: float) -> GSolution:
    """Evaluate the gap of G on [2/p, 10] through the Bessel linearization
    of the Riccati equation.

    Nodes are cubically graded towards the left endpoint, where the
    solution's curvature concentrates; interpolation error there dominates
    the uniform-grid budget by orders of magnitude.

    p is checked as by `build_g_rk`.  The Bessel values are NaN from
    z = 2^30 on, where scipy's ive and kve, against which the tests hold
    them, read NaN too; so the route's domain is the one those oracles
    check.  z reaches 2^30 on the table from p = 10.84, where the build
    raises `ConstructionError` naming p.  The table is shared as
    `build_g_rk`'s is.
    """
    return _bessel_table(p)


@functools.lru_cache(maxsize=8)
def _bessel_table(p):
    _check_exponent(p)
    s = np.linspace(0.0, 1.0, _BESSEL_NODES)
    ts = 2 / p + (_T_MAX - 2 / p) * s**3
    ts[0] = 2 / p
    u = _bessel_gap(p, ts)
    bad = np.nonzero(~np.isfinite(u))[0]
    if bad.size:
        raise ConstructionError(f"non-finite Bessel value at t={ts[bad[0]]} (p = {p})")
    return _frozen(GSolution(p, ts, u))


def h_of(sol: GSolution, s):
    """h(s) = t with G(t) = s on [1, s_max], for a scalar or an array of any
    shape.

    On the table each argument is located once in `g_values` and starts at
    that interval's chord; three Newton steps on the interval's cubic of
    G = t + 1 - u, read from the gap spline, make t that cubic's inverse to
    rounding (two leave up to 2e-9 on a 40-node table).  Past the table,
    three Newton steps on G's outer series start at t = s - 1 + u(t*), above
    h(s) as u falls (two leave up to 3.5e-14).  Values equal those of scalar
    calls, and nodes map to their nodes exactly.
    """
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr >= 1 - 1e-12) & (s_arr <= sol.s_max + 1e-12)):  # NaN too
        raise ValueError(f"argument outside [1, {sol.s_max}]")
    ss = np.clip(s_arr, 1.0, sol.s_max)
    g, x = sol.g_values, sol.grid
    i = _locate(g, ss)
    w = x[i + 1] - x[i]
    d = (ss - g[i]) / (g[i + 1] - g[i]) * w
    # G = t + 1 - u, so its cubic on an interval is -u3, -u2, 1 - u1, g_i
    c3, c2, c1 = np.negative(sol._spline.c[:3, i])
    c1 += 1
    for _ in range(3):
        f = ((c3 * d + c2) * d + c1) * d + g[i] - ss
        d = np.clip(d - f / ((3 * c3 * d + 2 * c2) * d + c1), 0.0, w)
    # the last cubic may miss its end at d = w by an ulp
    t = np.where(ss == g[-1], x[-1], x[i] + d)
    past = ss > g[-1]
    if np.any(past):
        # G = t + 1 - t d w and G' = w^2 on the series
        sp = ss[past] if np.ndim(ss) else ss
        tp = sp - 1 + sol.u_values[-1]
        for _ in range(3):
            dp, wm1 = sol._outer(tp)
            w1 = 1 + wm1
            tp = tp - (tp + 1 - tp * dp * w1 - sp) / (w1 * w1)
        # the series' steps may miss s_max by an ulp
        t[past] = np.where(sp == sol.s_max, sol.t_max, tp)
    return t if np.ndim(s) else float(t)


def h_prime(sol: GSolution, s):
    """h'(s) = 1 / G'(h(s)), with G' read from the gap; lies in (0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 1):
        raise ValueError("h' is defined for s > 1")
    val = sol.h_jet(h_of(sol, s_arr))[0]
    return val if np.ndim(s) else float(val)
