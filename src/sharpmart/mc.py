"""Seeded Monte Carlo harnesses for the martingale inequalities.

Strip-exit sampling of 2-D Brownian motion by walk on spheres, random
non-negative martingale pairs under increment domination, and the
rectangle harmonic check.

Every strip simulation runs one kernel, `_walk_chunk`: the walk on spheres
of Muller (1956, Ann. Math. Stat. 27) samples where each path leaves the
strip |y| < 1, and the rectangle |x| < r_bound with it, with no time step.
Each jump takes one transcendental, t = tan(pi u) of the half angle
(`_jump`), and the stopped paths are classified as top/bottom or side
exits once, after the walk.  It uses only the mean-value property of
harmonic functions, so it shares no formula with `kp` or with the Poisson
quadrature of `orth`.

Each sample serves every exponent asked of it: `strip_exit_moments` takes
all its moments from one set of exit points, and
`random_subordinate_pair_checks` draws each pair once for all exponents
(p enters only ||f||_p^p, read from the step law).  `strip_exit_moment` and
`random_subordinate_pair_check` are their one-exponent forms.

Determinism contract: strip chunk i (of fixed size) uses
``SeedSequence([master_seed, i])`` and random pair j uses
``SeedSequence([master_seed, 10_000 + j])``.  After its law's four draws a
pair reads one 64-bit word of the generator per path for g_0's sign and one
per path and step: the top bit gives the sign v, the low 53 bits the step
of f (`_pair_chunk`).  Both run on a pool of `cfg.workers` threads (numpy
releases the GIL in array work) and are combined in index order, so
reports are bit-identical for a given master seed at any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import kp, weak_constant_nonneg

__all__ = [
    "SimConfig",
    "Estimate",
    "ExitEstimate",
    "strip_exit_moment",
    "strip_exit_moments",
    "random_subordinate_pair_check",
    "random_subordinate_pair_checks",
    "harmonic_rectangle_check",
]

_CHUNK = 1 << 15
# A walk stops once it is within _SHELL_EPS of the boundary; at p = 2 this
# moves E X^2 by at most 2 _SHELL_EPS (see `_walk_chunk`).
_SHELL_EPS = 1e-6
# A path still walking after _MAX_STEPS jumps is censored.  At
# _SHELL_EPS = 1e-6 a path from the origin takes about 20 jumps; the count
# has a geometric tail: of 2^15 paths, 3 took more than 100, none 200.
_MAX_STEPS = 1_000
# P(Z > 4): a weak-type row with P = 1 of n paths (no binomial error) is
# judged at P's exact lower bound _ALPHA^(1/n), the 4 sigma gate's confidence
_ALPHA = 0.5 * math.erfc(2 * math.sqrt(2))
# A float64's sign bit, and a 64-bit word's top bit
_SIGN = np.uint64(1 << 63)


@dataclass(frozen=True)
class SimConfig:
    master_seed: int
    n_samples: int
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n: int
    seed: int

    def margin_sigma(self, target: float) -> float:
        """|mean - target| in standard errors; inf for a sample with no spread."""
        return abs(self.mean - target) / self.std_error if self.std_error > 0 else math.inf


@dataclass(frozen=True)
class ExitEstimate(Estimate):
    """A strip-exit moment with the walk's total jump count, its censored
    paths (still walking after _MAX_STEPS jumps) and the shell width at
    which paths stopped."""

    walk_steps: int
    censored: int
    shell_eps: float


def _estimate(values: np.ndarray, seed: int) -> Estimate:
    n = values.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    se = float(values.std(ddof=1)) / math.sqrt(n)
    return Estimate(mean=float(values.mean()), std_error=se, n=n, seed=seed)


def _jump(d: np.ndarray, u: np.ndarray):
    """The jump d (cos 2 pi u, sin 2 pi u) from one tangent: with
    t = tan(pi u) and w = 2d / (1 + t^2), cos 2 pi u = w/d - 1 and
    sin 2 pi u = w t / d.  At u = 1/2, t is about 1.6e16 and t^2 stays
    finite, so the jump is (-d, ~0)."""
    t = np.tan(math.pi * u)
    w = 2.0 * d / (1.0 + t * t)
    return w - d, w * t


def _walk_chunk(args):
    """One chunk of 2-D Brownian paths started at (x0, y0), run by walk on
    spheres to their exit from the strip |y| < 1, and from |x| < r_bound.

    From (x, y) a path jumps to a uniform point of the circle of radius
    d = min(1 - |y|, r_bound - |x|), the largest centred there inside the
    domain; by the mean-value property the exit law from (x, y) is the
    average of the exit laws from the points of that circle.  One
    uniform u is drawn per live path and step, and the jump at angle
    2 pi u takes one transcendental, tan(pi u) (`_jump`).  A path stops once
    d < _SHELL_EPS, and its (x, y) is recorded.  After the walk the stopped
    paths are classified once: each is projected onto the nearest side, so
    a top or bottom exit keeps its x and a side exit takes x = +-r_bound.
    A path still walking after _MAX_STEPS jumps is censored, unflagged, and
    keeps its last x.

    The projection moves no top or bottom exit's x, and x^2 - y^2 is
    harmonic, so without a side barrier E X^2 - x0^2 = E Y^2 - y0^2 with
    |Y| in [1 - _SHELL_EPS, 1]: from the origin E X^2 lies in
    [(1 - _SHELL_EPS)^2, 1], a bias of at most 2 _SHELL_EPS.

    Returns (x at exit, side-exit flags, total jumps, censored paths).
    """
    seed_pair, n, x0, y0, r_bound = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    live = np.arange(n)
    x = np.full(n, x0)
    y = np.full(n, y0)
    xs = np.empty(n)
    ys = np.empty(n)
    steps = 0
    for k in range(_MAX_STEPS + 1):
        d = np.minimum(1.0 - np.abs(y), r_bound - np.abs(x))
        stop = d < _SHELL_EPS
        i = np.flatnonzero(stop)
        done = live[i]
        xs[done] = x[i]
        ys[done] = y[i]
        walk = ~stop
        live, x, y, d = live[walk], x[walk], y[walk], d[walk]
        if not live.size or k == _MAX_STEPS:
            break
        dx, dy = _jump(d, rng.random(live.size))
        x += dx
        y += dy
        steps += live.size
    xs[live] = x
    ys[live] = y
    side = r_bound - np.abs(xs) < 1.0 - np.abs(ys)
    side[live] = False
    xs = np.where(side, np.copysign(r_bound, xs), xs)
    return xs, side, steps, live.size


def _strip_exits(start, cfg: SimConfig, r_bound: float):
    """Every chunk of the walk from `start`, which must lie inside the
    strip and the barrier: x at exit, side-exit flags, and the summed jump
    and censored-path counts."""
    x0, y0 = float(start[0]), float(start[1])
    if not (abs(y0) < 1 and abs(x0) < r_bound):  # also refuses NaN
        raise ValueError(f"start must satisfy |y| < 1 and |x| < {r_bound}, got {start}")
    args = [
        ((cfg.master_seed, i), min(_CHUNK, cfg.n_samples - first), x0, y0, r_bound)
        for i, first in enumerate(range(0, cfg.n_samples, _CHUNK))
    ]
    with ThreadPoolExecutor(cfg.workers) as pool:
        parts = list(pool.map(_walk_chunk, args))
    xs = np.concatenate([p[0] for p in parts])
    side = np.concatenate([p[1] for p in parts])
    return xs, side, sum(p[2] for p in parts), sum(p[3] for p in parts)


def strip_exit_moments(ps, start, cfg: SimConfig) -> list:
    """p-th absolute moments of the first coordinate at the strip exit, one
    `ExitEstimate` per exponent in `ps`, all taken on one sample of paths."""
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    xs, _, steps, censored = _strip_exits(start, cfg, math.inf)
    ax = np.abs(xs)
    ests = (_estimate(ax**p, cfg.master_seed) for p in ps)
    return [
        ExitEstimate(e.mean, e.std_error, e.n, e.seed, steps, censored, _SHELL_EPS)
        for e in ests
    ]


def strip_exit_moment(p: float, start, cfg: SimConfig) -> ExitEstimate:
    """p-th absolute moment of the first coordinate at the strip exit."""
    return strip_exit_moments((p,), start, cfg)[0]


def _pair_chunk(args):
    """One random non-negative martingale f with a sign-transformed g,
    drawn once for every exponent in `ps`; returns the data the weak-type
    ratio needs: g* and |g| at the final time, and ||f||_p^p per p.

    ||f||_p^p = sup_n E f_n^p is read from the step law: f_n is a product of
    n i.i.d. factors 1 + sigma xi, so E f_n^p = m_p^n with m_p = E (1 + sigma
    xi)^p, >= 1 for p >= 1 and <= 1 for p < 1 (Jensen); the sup is max(1, m_p)^N.

    After the law's four draws (N, q, a, sigma), each path reads one 64-bit
    word of the generator for g_0's sign and one per step: the word's top
    bit is v (set: v = -1), XORed into the sign bit of df, which is exact,
    and its low 53 bits w are f's step uniform, a down-step -b when
    w >= ceil(q 2^53): the law of u >= q on the 2^-53 grid of u = w 2^-53.
    f, g and g* are updated in place."""
    seed_pair, n_paths, ps = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    n_steps = int(rng.integers(5, 26))
    # centered two-point step: a with prob q, -b with prob 1-q, qa = (1-q)b
    q = rng.uniform(0.2, 0.8)
    a = rng.uniform(0.2, 1.0)
    b = q * a / (1 - q)
    sigma = rng.uniform(0.1, 0.9) / max(a, b)
    if not sigma * max(a, b) < 1:  # each step multiplies f by 1 + sigma*xi > 0
        raise RuntimeError("generator bug: negative martingale value")
    xi = np.array([a, -b])  # indexed by u >= q
    # the low 53 bits against ceil(q 2^53), both shifted to the top of the word
    down_from = np.uint64(math.ceil(q * 2.0**53) << 11)
    words = rng.bit_generator.random_raw
    f = np.ones(n_paths)
    g_final = np.ones(n_paths)
    g_final.view(np.uint64)[:] ^= words(n_paths) & _SIGN  # g0 = +-f0
    g_star = np.ones(n_paths)
    df = np.empty(n_paths)
    df_bits = df.view(np.uint64)
    low = np.empty(n_paths, np.uint64)
    down = np.empty(n_paths, bool)
    for _ in range(n_steps):
        w = words(n_paths)
        np.left_shift(w, 11, out=low)
        np.greater_equal(low, down_from, out=down)
        np.multiply(f, sigma, out=df)
        df *= xi.take(down)
        f += df
        w &= _SIGN
        df_bits ^= w  # predictable sign v = +-1: exact
        g_final += df
        np.maximum(g_star, np.abs(g_final), out=g_star)
    m_p = (q * (1 + sigma * a) ** p + (1 - q) * (1 - sigma * b) ** p for p in ps)
    return g_star, np.abs(g_final), tuple(max(1.0, m) ** n_steps for m in m_p)


def _lambda_scan(g, grid, f_pp, p, bound):
    """One pair's weak-type rows over a lambda grid: the ratio
    lambda^p P(g >= lambda) / f_pp, its binomial standard error, and its
    margin (ratio - bound) / std_error in sigma.  The margin is NaN where
    the empirical probability is 0 or 1, since the binomial error is 0.
    A margin past the doubles (an error that underflows to 0, or a
    quotient that overflows) reads +-inf with the sign of ratio - bound,
    and warns of nothing.

    `g` must be sorted ascending: P is counted by a sorted search."""
    n = g.size
    prob = (n - np.searchsorted(g, grid, side="left")) / n
    lam_p = grid**p
    ratio = lam_p * prob / f_pp
    se = lam_p * np.sqrt(prob * (1 - prob) / n) / f_pp
    margin = np.full(grid.size, np.nan)
    inner = (prob > 0) & (prob < 1)
    with np.errstate(over="ignore", divide="ignore"):
        margin[inner] = (ratio[inner] - bound) / se[inner]
    return ratio, se, margin


def _pair_scans(args):
    """One pair's lambda-scan rows (grid, ratio, std error, margin) and
    largest fixed-time ratio, per exponent; g* and |g| are sorted once for
    the grid (set by the median of g*) and every scan.  The path arrays
    never leave the call, so at most `workers` pairs are in memory."""
    seed_pair, n, ps, bounds = args
    g_star, g_fin, f_pps = _pair_chunk((seed_pair, n, ps))
    g_star.sort()
    g_fin.sort()
    med = float(np.mean(g_star[(n - 1) // 2 : n // 2 + 1]))  # np.median's arithmetic
    grid = np.geomspace(0.1 * med, 10 * med, 20)
    return [
        ((grid, *_lambda_scan(g_star, grid, f_pp, p, bound)),
         float(_lambda_scan(g_fin, grid, f_pp, p, bound)[0].max()))
        for p, bound, f_pp in zip(ps, bounds, f_pps)
    ]


def _weak_type_verdict(low, margin, bound) -> dict:
    """Verdict over all scanned rows: the largest margin among rows with a
    defined margin must be <= 4 sigma, and a row with P = 1 or 0 (no
    binomial error) must not exceed the bound at `low`, its ratio at the
    exact one-sided lower bound of P."""
    decided = ~np.isnan(margin)
    worst = float(margin[decided].max()) if decided.any() else -math.inf
    return {
        "margin_sigma": worst,
        "warnings_3_4_sigma": int(np.count_nonzero((margin > 3.0) & (margin <= 4.0))),
        "passed": bool(worst <= 4.0 and np.all(low[~decided] <= bound)),
    }


def random_subordinate_pair_checks(ps, cfg: SimConfig, n_pairs: int = 100) -> list:
    """Empirical weak-type ratios over random dominated pairs, one report
    per exponent in `ps`.

    For each pair the ratio lambda^p P(g* >= lambda) / ||f||_p^p is scanned
    over a lambda grid; no ratio may exceed the sharp constant by more than
    4 sigma, and a row with empirical P = 1 may not exceed it at P's exact
    one-sided lower bound (`_weak_type_verdict`).  ||f||_p^p is exact,
    read from the pair's step law (`_pair_chunk`), so each row's binomial
    `std_error` is its whole error.  The report gives the largest ratio
    (`estimate`, with its `std_error` and `ratio_excess` = ratio/bound - 1)
    and, as `margin_sigma`, the largest margin over all rows, which decides.
    Both the running-supremum and the final-time level sets are reported,
    since the two weak norms coincide only in the limit.

    p enters only ||f||_p^p, so each pair is drawn once for all exponents
    (`_pair_scans`).  Pairs run on `cfg.workers` threads and are combined
    in pair order.
    """
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if not all(p < 1 or p >= 2 for p in ps):
        raise ValueError("regime must be p < 1 or p >= 2")
    bounds = [weak_constant_nonneg(p).value ** p for p in ps]
    args = [((cfg.master_seed, 10_000 + j), cfg.n_samples, ps, bounds) for j in range(n_pairs)]
    with ThreadPoolExecutor(cfg.workers) as pool:
        pairs = list(pool.map(_pair_scans, args))
    reports = []
    for k, (p, bound) in enumerate(zip(ps, bounds)):
        rows, fixed = zip(*(pair[k] for pair in pairs))
        lam, ratio, se, margin = (np.concatenate(c) for c in zip(*rows))
        i = int(np.argmax(ratio))
        reports.append({
            "check": "random_subordinate_pairs",
            "p": p,
            "n": cfg.n_samples * n_pairs,
            "estimate": float(ratio[i]),
            "std_error": float(se[i]),
            "bound": bound,
            "ratio_excess": float(ratio[i]) / bound - 1.0,
            "seed": cfg.master_seed,
            "worst_lambda": float(lam[i]),
            "worst_fixed_time_ratio": max(fixed),
            "n_pairs": n_pairs,
            **_weak_type_verdict(ratio * _ALPHA ** (1 / cfg.n_samples), margin, bound),
        })
    return reports


def random_subordinate_pair_check(p: float, cfg: SimConfig, n_pairs: int = 100) -> dict:
    """`random_subordinate_pair_checks` for the one exponent p."""
    return random_subordinate_pair_checks((p,), cfg, n_pairs)[0]


def harmonic_rectangle_check(p: float, R: float, cfg: SimConfig) -> dict:
    """Exit sampling from the rectangle (-R, R) x (-1, 1) for the harmonic
    pair u(x,y) = x, v(x,y) = y: as R grows the u-moment tends to the strip
    value 1/kp(p)^p and almost all mass exits through |v| = 1."""
    if R < 5:
        raise ValueError("requires R >= 5")
    if not 1 <= p <= 2:
        raise ValueError("requires 1 <= p <= 2")
    xs, side, steps, censored = _strip_exits((0.0, 0.0), cfg, R)
    moment = _estimate(np.abs(xs) ** p, cfg.master_seed)
    target = 1.0 / kp(p).value ** p
    mu = _estimate(1.0 - side.astype(float), cfg.master_seed)
    rep = {
        "check": "harmonic_rectangle",
        "p": p,
        "n": moment.n,
        "estimate": moment.mean,
        "std_error": moment.std_error,
        "bound": target,
        "margin_sigma": moment.margin_sigma(target),
        "seed": moment.seed,
        "mu_v_ge_1": mu.mean,
        "mu_std_error": mu.std_error,
        "R": R,
        "walk_steps": steps,
        "shell_eps": _SHELL_EPS,
        "censored": censored,
    }
    rep["passed"] = bool(rep["margin_sigma"] <= 4.0 and mu.mean >= 0.95)
    return rep
