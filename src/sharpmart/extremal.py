"""Exact extremal examples as atomic measures on the unit interval.

The processes live on [0, 1] with Lebesgue measure: every step is a
piecewise-constant function on a partition into intervals, the partitions
refine each other, and conditional averages can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AtomicMartingale",
    "ExtremalParams",
    "resolve_params",
    "ladder_delta_hint",
    "build_section_example",
    "section_ratio",
    "RatioReport",
    "evaluate_ratio",
    "build_p_lt1_example",
    "harmonic_1d_example",
]

_MARTINGALE_REL_TOL = 1e-12  # slack for the rounding of conditional averages


@dataclass(frozen=True)
class Step:
    """Piecewise-constant function: value[i] on (bounds[i], bounds[i+1]],
    with the first interval closed at 0."""

    bounds: tuple
    values: tuple

    def __post_init__(self):
        b = np.asarray(self.bounds)
        if b[0] != 0.0 or abs(b[-1] - 1.0) > 1e-12 or np.any(np.diff(b) <= 0):
            raise ValueError("atom bounds must increase from 0 to 1")
        if len(self.values) != len(self.bounds) - 1:
            raise ValueError("one value per interval required")

    def index(self, omega: float) -> int:
        """The i with omega in (bounds[i], bounds[i+1]], or 0 for omega <= 0."""
        return max(int(np.searchsorted(self.bounds, omega, side="left")) - 1, 0)

    def at(self, omega: float) -> float:
        return self.values[self.index(omega)]

    def lengths(self):
        return np.diff(np.asarray(self.bounds))

    def integral(self) -> float:
        return float(np.dot(self.lengths(), self.values))

    def abs_pth_moment(self, p: float) -> float:
        return float(np.dot(self.lengths(), np.abs(self.values) ** p))


@dataclass(frozen=True)
class AtomicMartingale:
    """Steps on nested partitions: each step's bounds are bounds of the next."""

    steps: tuple

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if not np.all(np.isin(a.bounds, b.bounds)):
                raise ValueError("partitions must be nested")

    def path(self, omega: float):
        return [s.at(omega) for s in self.steps]

    def final(self) -> Step:
        return self.steps[-1]

    def check_martingale(self) -> bool:
        """Conditional average of step n+1 over every atom of step n equals
        the step-n value, up to _MARTINGALE_REL_TOL relative error."""
        for cur, nxt in zip(self.steps, self.steps[1:]):
            # the fine atoms of a coarse atom run from its left bound's index
            first = np.searchsorted(nxt.bounds, cur.bounds[:-1])
            mass = np.add.reduceat(nxt.lengths() * nxt.values, first)
            v = np.asarray(cur.values)
            err = np.abs(mass / cur.lengths() - v)
            if np.any(err > _MARTINGALE_REL_TOL * np.maximum(np.abs(v), 1.0)):
                return False
        return True

    def running_sup_pth_norm(self, p: float) -> float:
        return max(s.abs_pth_moment(p) ** (1 / p) for s in self.steps)

    def weak_pth_norm(self, p: float) -> float:
        """sup_lambda lambda * P(max_n |X_n| >= lambda)^{1/p}, computed
        exactly from the atoms of the finest partition."""
        fine = self.steps[-1]
        sup_abs = np.zeros(len(fine.values))
        for s in self.steps:
            # the atom of s holding each fine atom (a, b] is the last with bound <= a
            at = np.searchsorted(s.bounds, fine.bounds[:-1], side="right") - 1
            np.maximum(sup_abs, np.abs(np.asarray(s.values)[at]), out=sup_abs)
        # lambda runs down the sorted sups; inside a tie group the mass only
        # grows, so the group's last entry, P(sup >= lambda), is its largest
        order = np.argsort(-sup_abs)
        mass = np.cumsum(fine.lengths()[order])
        return float(np.max(sup_abs[order] * mass ** (1 / p)))


@dataclass(frozen=True)
class ExtremalParams:
    p: float
    x0: float
    delta: float
    n_steps: int

    def __post_init__(self):
        # in log1p form: (1 + 2 delta/p)^N rounds by about N ulp
        resid = self.x0 * math.exp(self.n_steps * math.log1p(2 * self.delta / self.p)) - 1 / self.p
        if abs(resid) > 1e-12:
            raise ValueError(f"parameters violate the ladder identity by {resid}")


def resolve_params(p: float, x0: float, delta_hint: float) -> ExtremalParams:
    """Pick the step count nearest the hint, then solve the step size so
    x0 (1 + 2 delta/p)^N = 1/p holds exactly."""
    if not (p > 2 and math.isfinite(p)):
        raise ValueError(f"requires finite p > 2, got {p}")
    if not 0 < x0 < 1 / p:
        raise ValueError(f"requires 0 < x0 < 1/p, got {x0}")
    if not delta_hint > 0:
        raise ValueError("delta_hint must be positive")
    ratio = 1 / (p * x0)
    n = max(1, round(math.log(ratio) / math.log(1 + 2 * delta_hint / p)))
    delta = (p / 2) * math.expm1(math.log(ratio) / n)
    if not delta > 0:
        raise ValueError("no positive step size solves the ladder identity")
    return ExtremalParams(p, x0, delta, n)


def ladder_delta_hint(p: float) -> float:
    """The default delta hint for `resolve_params`, min(1.5, p / (2(p - 2))).

    The ladder's step weight q needs p - p delta + 4 delta > 0; at the hint
    p / (2(p - 2)), below 1.5 for p > 3, that is p^2 / (2(p - 2)).  For
    p <= 3 the hint is 1.5."""
    return 1.5 if p <= 3 else p / (2 * (p - 2))


def _ladder_weights(p: float, delta: float, n: int):
    """Atom right-endpoints of the construction: q^k and q^k/(1+delta)."""
    q = (p - p * delta + 4 * delta) / ((p + 2 * delta) * (1 + delta))
    if not 0 < q <= 1:
        raise ValueError(f"step weight {q} outside (0, 1]")
    even = q ** np.arange(n + 1)
    odd = even / (1 + delta)
    return even, odd


def build_section_example(params: ExtremalParams):
    """The Markov pair (X, Y) attaining the weak-type constant for p > 2.

    X starts at x0, moves by the two-phase ladder towards the level 1/p and
    is absorbed either at 0 or on the half-slope line; Y is the transform
    of X by alternating signs started at (p-1)x0.
    """
    p, x0, delta, n_steps = params.p, params.x0, params.delta, params.n_steps
    even, odd = _ladder_weights(p, delta, n_steps)

    bounds = [0.0, 1.0]
    xv = [x0]
    yv = [(p - 1) * x0]
    xsteps = [Step(tuple(bounds), tuple(xv))]
    ysteps = [Step(tuple(bounds), tuple(yv))]
    xa, ya = x0, (p - 1) * x0  # values on the active atom [0, cut]

    def split(cut, x_new_lo, y_new_lo, x_new_hi, y_new_hi):
        nonlocal bounds, xv, yv
        if not 0 < cut < bounds[1]:
            raise ValueError(f"atom split point {cut} out of range at p = {p}")
        bounds = [0.0, cut] + bounds[1:]
        xv = [x_new_lo, x_new_hi] + xv[1:]
        yv = [y_new_lo, y_new_hi] + yv[1:]
        xsteps.append(Step(tuple(bounds), tuple(xv)))
        ysteps.append(Step(tuple(bounds), tuple(yv)))

    for n in range(n_steps):
        # odd step: up by delta*X on the kept part, to zero on the shed part
        dx_lo, dx_hi = delta * xa, -xa
        split(odd[n], xa + dx_lo, ya + dx_lo, xa + dx_hi, ya + dx_hi)
        xa, ya = xa + dx_lo, ya + dx_lo
        # even step: down towards the ladder on the kept part
        xprev = xa / (1 + delta)  # X value two steps back
        dx_lo = -(1 - 2 / p) * delta * xprev
        dx_hi = xprev * (1 + 4 * delta / p - delta)
        split(even[n + 1], xa + dx_lo, ya - dx_lo, xa + dx_hi, ya - dx_hi)
        xa, ya = xa + dx_lo, ya - dx_lo
    # final split: to the corner (0, 1) or to the absorbing half-slope line
    split(even[n_steps] / 2, xa + xa, ya + xa, 0.0, ya - xa)

    return AtomicMartingale(tuple(xsteps)), AtomicMartingale(tuple(ysteps))


@dataclass(frozen=True)
class RatioReport:
    prob: float
    moment: float
    ratio: float
    primed_ratio: float


def _ratio_report(p, x0, prob, moment) -> RatioReport:
    """The report for an exit probability and final moment; the primed
    ratio normalizes X_0 = x0 by 1 - (p-2) x0."""
    prob, moment = float(prob), float(moment)
    if not moment > 0:
        raise ValueError(f"the final moment underflows to {moment} at p = {p}")
    return RatioReport(
        prob=prob,
        moment=moment,
        ratio=prob / moment,
        primed_ratio=prob * (1 - (p - 2) * x0) ** p / moment,
    )


def section_ratio(p: float, x0: float, delta: float, n_steps: int) -> RatioReport:
    """Exit probability, final moment and their ratio, from the exact atom
    bookkeeping without materializing the full filtration."""
    ExtremalParams(p, x0, delta, n_steps)  # validates the ladder identity
    even, odd = _ladder_weights(p, delta, n_steps)
    x_levels = x0 * (1 + 2 * delta / p) ** np.arange(1, n_steps + 1)
    # shed atoms (even[n+1], odd[n]] carry the value 2 x_{n+1}; the final
    # top atom [0, even[N]/2] carries 2/p
    moment = float(np.dot(odd[:-1] - even[1:], (2 * x_levels) ** p)) + (2 / p) ** p * even[-1] / 2
    return _ratio_report(p, x0, even[-1] / 2, moment)


def evaluate_ratio(X: AtomicMartingale, Y: AtomicMartingale, p: float) -> RatioReport:
    """Same quantities measured directly on built processes."""
    fx, fy = X.final(), Y.final()
    prob = fx.lengths()[np.asarray(fy.values) >= 1 - 1e-12].sum()
    return _ratio_report(p, X.steps[0].values[0], prob, fx.abs_pth_moment(p))


def build_p_lt1_example():
    """Two-step pair with |g_1| = 1 a.s. showing the constant 2 is sharp
    for exponents below one.  Returns (f, g, report)."""
    start = Step((0.0, 1.0), (0.5,))
    f = AtomicMartingale((start, Step((0.0, 0.75, 1.0), (0.0, 2.0))))
    g = AtomicMartingale((start, Step((0.0, 0.75, 1.0), (1.0, -1.0))))
    report = {}
    for p in [round(0.1 * i, 1) for i in range(1, 10)]:
        f_norm = f.running_sup_pth_norm(p)
        g_weak = g.weak_pth_norm(p)
        report[p] = {
            "f_strong_norm": f_norm,
            "g_weak_norm": g_weak,
            "identity_holds": math.isclose(g_weak, 2 * f_norm, rel_tol=1e-12),
        }
    return f, g, report


def _ruin_measure(lam: float, a: float, b: float) -> float:
    """Exit measure of {|1 - x| >= lam} for the walk started at 0 on (a, b)."""
    mu = 0.0
    if abs(1 - a) >= lam:
        mu += b / (b - a)
    if abs(1 - b) >= lam:
        mu += -a / (b - a)
    return mu


def harmonic_1d_example(p: float, lambda_grid) -> dict:
    """One-dimensional harmonic pair u = 1+x, v = 1-x on (-1, 3), seen
    from the origin.

    For each threshold lambda in (0, 2) the walk from 0 stopped at the exit
    of (-1, 3) ends at -1 or 3, where |v| = 2 >= lambda, so its level
    measure is 3/4 + 1/4 = 1, the most a probability can be: every row
    reads mu = 1 and value lambda * mu^{1/p} = lambda, and `sup`, the
    supremum of the values, is the grid's largest lambda.
    """
    if not 0 < p < 1:
        raise ValueError("requires 0 < p < 1")
    rows = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0 < lam < 2:
            raise ValueError(f"threshold {lam} outside (0, 2)")
        mu = _ruin_measure(lam, -1.0, 3.0)
        rows.append({"lam": lam, "mu": mu, "value": lam * mu ** (1 / p)})
    sup = max((row["value"] for row in rows), default=0.0)
    return {"p": p, "rows": rows, "sup": sup, "strong_norm_u": 1.0}
