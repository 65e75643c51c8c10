"""Seeded Monte Carlo harnesses for the martingale inequalities.

Strip-exit Brownian motion (with Brownian-bridge barrier correction),
random non-negative martingale pairs under increment domination, pathwise
sampling of the atomic ladder chain, and the rectangle harmonic check.

All strip simulations share one bridge-corrected Euler step
(`_bridge_step`).  It evaluates the two bridge exponentials only for
candidate paths, those near |y| = 1 or with a tiny uniform; for every
other path the crossing probability is below its uniform, so the exit
decisions are exactly those of the full test.  Without a side barrier the
exit does not depend on x, so y is walked alone and x is drawn once per
path from its exact law at the exit time (`_strip_chunk`); with one, and
in the coupled coarse/fine pair, x and y are walked together.

Each sample serves every exponent asked of it: `strip_exit_moments` takes
all its moments from one set of exit points, and
`random_subordinate_pair_checks` draws each pair once for all exponents
(p enters only ||f||_p^p).  `strip_exit_moment` and
`random_subordinate_pair_check` are their one-exponent forms.

Determinism contract: work is cut into fixed-size chunks; chunk i uses
``SeedSequence([master_seed, i])``, so reports are bit-identical for a
given master seed regardless of worker count or scheduling.  Strip chunks
run on `cfg.workers` processes.  Random pairs (pair j uses
``SeedSequence([master_seed, 10_000 + j])``) run serially and ignore
`cfg.workers`: a pool would roughly triple the check's peak resident
memory, one interpreter and numpy per worker, and threads measured no
faster than serial.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import kp, weak_constant_nonneg
from .extremal import ExtremalParams, _ladder_weights, section_ratio

__all__ = [
    "SimConfig",
    "Estimate",
    "ExitEstimate",
    "strip_exit_samples",
    "strip_exit_moment",
    "strip_exit_moments",
    "strip_exit_bias_pair",
    "random_subordinate_pair_check",
    "random_subordinate_pair_checks",
    "section_chain_mc",
    "harmonic_rectangle_check",
]

_CHUNK = 1 << 15
_MAX_TIME = 60.0
# Paths with a uniform below _EPS always get the exact bridge test; see
# `_bridge_step` for the other candidates.
_EPS = 2.0**-20


@dataclass(frozen=True)
class SimConfig:
    master_seed: int
    n_samples: int
    dt: float = 1e-2
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0 < self.dt <= 1e-2:
            raise ValueError("dt must lie in (0, 1e-2] for continuous schemes")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n: int
    seed: int


@dataclass(frozen=True)
class ExitEstimate(Estimate):
    """A strip-exit moment with the kernel's bridge-exit and censored-path
    counts (a censored path is still inside the strip at _MAX_TIME)."""

    bridge_exits: int
    censored: int


def _estimate(values: np.ndarray, seed: int) -> Estimate:
    n = values.size
    se = float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return Estimate(mean=float(values.mean()), std_error=se, n=n, seed=seed)


def _bridge_step(y, dy, u, dt):
    """One bridge-corrected Euler step of y in the strip |y| < 1 (Gobet 2000).

    A path exits when y1 = y + dy leaves the strip, or else when its uniform
    u falls below the Brownian bridge's crossing probability p_up + p_dn,
    with p_up = exp(-2 (1 - y)(1 - y1) / dt) and p_dn likewise.  The
    exponentials are taken only for candidates: paths with u < eps, or with
    an end of the step within sqrt(c) of |y| = 1, c = (dt/2) ln(4/eps); this
    covers every path whose smaller product (1 - y)(1 - y1), (1 + y)(1 + y1)
    is below c.  Any other path has p_up + p_dn <= eps/2 < u, with a factor
    2 to spare for rounding, so the skipped test could not have fired:
    every decision is the full test's.

    Returns (y1, exited, theta, n_bridge): the new positions, the mask of
    paths that left during the step, the fraction of the step at which each
    of them (in path order) exits -- the linear crossing point, or 1/2 for
    a bridge exit -- and the number of bridge exits.
    """
    y1 = y + dy
    ay1 = np.abs(y1)
    exited = ay1 >= 1.0
    reach = 1.0 - math.sqrt(0.5 * dt * math.log(4.0 / _EPS))
    # every crossing path has |y1| >= 1 > reach, so `near` holds all exits
    near = np.flatnonzero((np.maximum(np.abs(y), ay1) > reach) | (u < _EPS))
    cand = near[~exited[near]]
    yc, y1c = y[cand], y1[cand]
    a_up = -2.0 * (1.0 - yc) * (1.0 - y1c) / dt
    a_dn = -2.0 * (1.0 + yc) * (1.0 + y1c) / dt
    # e^{-40} < 2^{-54}, less than half an ulp relative to any double, so
    # where the exponents differ by more than 40 the smaller term cannot
    # change the rounded sum; skipping it keeps np.exp off its slow
    # subnormal path
    lo = np.minimum(a_up, a_dn)
    hi = np.maximum(a_up, a_dn)
    p_cross = np.exp(hi)
    both = hi - lo <= 40.0
    p_cross[both] += np.exp(lo[both])
    bridged = cand[u[cand] < p_cross]
    exited[bridged] = True
    ex = near[exited[near]]
    theta = np.full(ex.size, 0.5)
    crossed = ay1[ex] >= 1.0
    c = ex[crossed]
    theta[crossed] = (np.copysign(1.0, y1[c]) - y[c]) / dy[c]
    return y1, exited, theta, bridged.size


def _strip_chunk(args):
    """One chunk of 2-D Brownian paths started at (x0, y0), absorbed on
    |y| = 1 (bridge-corrected, `_bridge_step`) and optionally on
    |x| = r_bound, censored after _MAX_TIME.

    With a side barrier x and y are walked together, drawing dx, dy and u
    per live path and step.  Without one, x does not affect the exit, so y
    is walked alone: a path that exits in step k + 1 at fraction theta has
    x = x0 + dx_1 + ... + dx_k + theta dx_{k+1}, which is distributed as
    x0 + sqrt((k + theta^2) dt) Z, and Z is drawn once per path at the end;
    a censored path has k = _MAX_TIME/dt and theta = 0.

    Returns (x at exit, side-exit flags, bridge exits, censored paths).
    """
    seed_pair, n, x0, y0, dt, r_bound = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    sd = math.sqrt(dt)
    walk_x = r_bound < math.inf
    n_steps = int(_MAX_TIME / dt)
    x = np.full(n, x0)
    y = np.full(n, y0)
    out = np.empty(n)  # x at exit when walking x, else k + theta^2
    side_out = np.zeros(n, dtype=bool)
    filled = n_bridge = 0
    for step in range(n_steps):
        if y.size == 0:
            break
        dx = rng.normal(0.0, sd, y.size) if walk_x else None
        dy = rng.normal(0.0, sd, y.size)
        u = rng.random(y.size)
        y1, stop, theta, bridged = _bridge_step(y, dy, u, dt)
        n_bridge += bridged
        if walk_x:
            x1 = x + dx
            val = x[stop] + theta * dx[stop]
            side = np.abs(x1) >= r_bound
            if side.any():  # rare: merge side exits with the y exits in path order
                side &= ~stop
                both = stop | side
                merged = np.copysign(r_bound, x1[both])
                merged[stop[both]] = val
                side_out[filled : filled + merged.size] = side[both]
                val, stop = merged, both
            x = x1[~stop]
        else:
            val = step + theta * theta
        out[filled : filled + val.size] = val
        filled += val.size
        y = y1[~stop]
    # censored tail: probability ~ e^{-pi^2 T / 8}, negligible
    if walk_x:
        out[filled:] = x
        return out, side_out, n_bridge, y.size
    out[filled:] = n_steps
    xs = x0 + np.sqrt(out * dt) * rng.standard_normal(n)
    return xs, side_out, n_bridge, y.size


def _run_chunks(worker, args_list, workers):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, args_list))
    return [worker(a) for a in args_list]


def _chunk_sizes(n):
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    return sizes


def _chunk_args(start, cfg: SimConfig, *extra):
    """(seed pair, size, x0, y0, dt, *extra) for each chunk of paths started
    at `start`, which must lie inside the strip."""
    x0, y0 = float(start[0]), float(start[1])
    if not abs(y0) < 1:
        raise ValueError("start must satisfy |y| < 1")
    return [
        ((cfg.master_seed, i), n, x0, y0, cfg.dt, *extra)
        for i, n in enumerate(_chunk_sizes(cfg.n_samples))
    ]


def _strip_exits(start, cfg: SimConfig, r_bound: float):
    """Every chunk of the strip kernel: x at exit, side-exit flags, and the
    summed bridge-exit and censored-path counts."""
    parts = _run_chunks(_strip_chunk, _chunk_args(start, cfg, r_bound), cfg.workers)
    xs = np.concatenate([p[0] for p in parts])
    side = np.concatenate([p[1] for p in parts])
    return xs, side, sum(p[2] for p in parts), sum(p[3] for p in parts)


def strip_exit_samples(start, cfg: SimConfig, r_bound: float = np.inf):
    """x-coordinates at exit (and side-exit flags) for cfg.n_samples paths."""
    xs, side, _, _ = _strip_exits(start, cfg, r_bound)
    return xs, side


def strip_exit_moments(ps, start, cfg: SimConfig) -> list:
    """p-th absolute moments of the first coordinate at the strip exit, one
    `ExitEstimate` per exponent in `ps`, all taken on one sample of paths."""
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    xs, _, n_bridge, censored = _strip_exits(start, cfg, math.inf)
    ax = np.abs(xs)
    ests = (_estimate(ax**p, cfg.master_seed) for p in ps)
    return [ExitEstimate(e.mean, e.std_error, e.n, e.seed, n_bridge, censored) for e in ests]


def strip_exit_moment(p: float, start, cfg: SimConfig) -> ExitEstimate:
    """p-th absolute moment of the first coordinate at the strip exit."""
    return strip_exit_moments((p,), start, cfg)[0]


def _coupled_chunk(args):
    """Coarse-dt and half-dt strip simulations driven by the same fine
    increments; used to isolate discretization bias from sampling noise."""
    seed_pair, n, x0, y0, dt = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    sdf = math.sqrt(dt / 2)
    hdt = dt / 2
    state = {}
    for tag in ("coarse", "fine"):
        state[tag] = dict(
            x=np.full(n, x0), y=np.full(n, y0), done=np.zeros(n, dtype=bool),
            out=np.zeros(n),
        )

    def advance(tag, dx, dy, u, step_dt):
        s = state[tag]
        act = np.flatnonzero(~s["done"])
        if not act.size:
            return
        x, dxa = s["x"][act], dx[act]
        y1, exited, theta, _ = _bridge_step(s["y"][act], dy[act], u[act], step_dt)
        s["out"][act[exited]] = x[exited] + theta * dxa[exited]
        s["done"][act[exited]] = True
        s["x"][act[~exited]] = (x + dxa)[~exited]
        s["y"][act[~exited]] = y1[~exited]

    for _ in range(int(_MAX_TIME / dt)):
        both_done = state["coarse"]["done"] & state["fine"]["done"]
        if both_done.all():
            break
        if both_done.any():  # joint compaction keeps the coupling aligned
            keep = ~both_done
            for tag in ("coarse", "fine"):
                s = state[tag]
                s.setdefault("final", []).append(s["out"][both_done])
                for key in ("x", "y", "done", "out"):
                    s[key] = s[key][keep]
        n_act = state["coarse"]["x"].size
        dx1 = rng.normal(0.0, sdf, n_act)
        dy1 = rng.normal(0.0, sdf, n_act)
        u1 = rng.random(n_act)
        dx2 = rng.normal(0.0, sdf, n_act)
        dy2 = rng.normal(0.0, sdf, n_act)
        u2 = rng.random(n_act)
        advance("fine", dx1, dy1, u1, hdt)
        advance("fine", dx2, dy2, u2, hdt)
        advance("coarse", dx1 + dx2, dy1 + dy2, u1, dt)
    results = []
    for tag in ("coarse", "fine"):
        s = state[tag]
        s["out"][~s["done"]] = s["x"][~s["done"]]
        pieces = s.setdefault("final", [])
        pieces.append(s["out"])
        results.append(np.concatenate(pieces))
    return tuple(results)


def strip_exit_bias_pair(p: float, start, cfg: SimConfig):
    """(coarse, fine) moment estimates at dt and dt/2 on coupled paths.

    The shared driving noise cancels most sampling variance, so the
    difference of the two means measures the discretization bias.
    """
    parts = _run_chunks(_coupled_chunk, _chunk_args(start, cfg), cfg.workers)
    coarse = np.concatenate([p_[0] for p_ in parts])
    fine = np.concatenate([p_[1] for p_ in parts])
    return (
        _estimate(np.abs(coarse) ** p, cfg.master_seed),
        _estimate(np.abs(fine) ** p, cfg.master_seed),
    )


def _pair_chunk(args):
    """One random non-negative martingale f with a sign-transformed g,
    drawn once for every exponent in `ps`; returns the data the weak-type
    ratio needs: g* and |g| at the final time, and sup_n E f_n^p per p.

    Each step draws its two uniforms (v's sign, then the step of f) as one
    (2, n) block, the same stream as two draws of n.  The sign and the
    two-point step are exact branch-free forms of `np.where(u < c, s, t)`,
    and f, g and g* are updated in place."""
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
    f = np.ones(n_paths)
    g_final = 1.0 - 2.0 * (rng.random(n_paths) >= 0.5)  # g0 = +-f0
    g_star = np.ones(n_paths)
    f_pp = [1.0] * len(ps)
    df = np.empty(n_paths)
    for _ in range(n_steps):
        u = rng.random((2, n_paths))
        np.multiply(f, sigma, out=df)
        df *= xi.take(u[1] >= q)
        f += df
        df *= 1.0 - 2.0 * (u[0] >= 0.5)  # predictable sign v = +-1: exact
        g_final += df
        np.maximum(g_star, np.abs(g_final), out=g_star)
        f_pp = [max(m, float(np.mean(f**p))) for m, p in zip(f_pp, ps)]
    return g_star, np.abs(g_final), tuple(f_pp)


def _lambda_scan(g, grid, f_pp, p, bound):
    """One pair's weak-type rows over a lambda grid: the ratio
    lambda^p P(g >= lambda) / f_pp, its binomial standard error, and its
    margin (ratio - bound) / std_error in sigma.  The margin is NaN where
    the empirical probability is 0 or 1, since the binomial error is 0.

    P is counted by a sorted search; `g` need not be sorted, and sorting a
    sample that already is costs one copy."""
    n = g.size
    prob = (n - np.searchsorted(np.sort(g), grid, side="left")) / n
    lam_p = grid**p
    ratio = lam_p * prob / f_pp
    se = lam_p * np.sqrt(prob * (1 - prob) / n) / f_pp
    margin = np.full(grid.size, np.nan)
    inner = (prob > 0) & (prob < 1)
    margin[inner] = (ratio[inner] - bound) / se[inner]
    return ratio, se, margin


def _weak_type_verdict(ratio, margin, bound) -> dict:
    """Verdict over all scanned rows: the largest margin among rows with a
    defined margin must be <= 4 sigma, and a row with P = 1 or 0 (no
    binomial error) must not exceed the bound at all."""
    decided = ~np.isnan(margin)
    worst = float(margin[decided].max()) if decided.any() else -math.inf
    return {
        "margin_sigma": worst,
        "warnings_3_4_sigma": int(np.count_nonzero((margin > 3.0) & (margin <= 4.0))),
        "passed": bool(worst <= 4.0 and np.all(ratio[~decided] <= bound)),
    }


def random_subordinate_pair_checks(ps, cfg: SimConfig, n_pairs: int = 100) -> list:
    """Empirical weak-type ratios over random dominated pairs, one report
    per exponent in `ps`.

    For each pair the ratio lambda^p P(g* >= lambda) / ||f||_p^p is scanned
    over a lambda grid; no ratio may exceed the sharp constant by more than
    4 sigma (`_weak_type_verdict`).  The report gives the largest ratio
    (`estimate`, with its `std_error` and `ratio_excess` = ratio/bound - 1)
    and, as `margin_sigma`, the largest margin over all rows, which decides.
    Both the running-supremum and the final-time level sets are reported,
    since the two weak norms coincide only in the limit.

    p enters only ||f||_p^p, so each pair is drawn once for all exponents,
    and its g* and |g| are sorted once for the lambda grid (set by the
    median of g*) and every scan.  Pairs run serially and ignore
    `cfg.workers`: a process pool would roughly triple peak memory.
    """
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if not all(p < 1 or p >= 2 for p in ps):
        raise ValueError("regime must be p < 1 or p >= 2")
    bounds = [weak_constant_nonneg(p).value ** p for p in ps]
    rows = [[] for _ in ps]
    worst_fixed = [-math.inf] * len(ps)
    for j in range(n_pairs):
        g_star, g_fin, f_pps = _pair_chunk(
            ((cfg.master_seed, 10_000 + j), cfg.n_samples, ps)
        )
        g_star.sort()
        g_fin.sort()
        n = g_star.size
        med = float(np.mean(g_star[(n - 1) // 2 : n // 2 + 1]))  # np.median's arithmetic
        grid = np.geomspace(0.1 * med, 10 * med, 20)
        for k, (p, bound, f_pp) in enumerate(zip(ps, bounds, f_pps)):
            rows[k].append((grid, *_lambda_scan(g_star, grid, f_pp, p, bound)))
            fixed = _lambda_scan(g_fin, grid, f_pp, p, bound)[0]
            worst_fixed[k] = max(worst_fixed[k], float(fixed.max()))
    reports = []
    for p, bound, p_rows, fixed in zip(ps, bounds, rows, worst_fixed):
        lam, ratio, se, margin = (np.concatenate(c) for c in zip(*p_rows))
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
            "worst_fixed_time_ratio": fixed,
            "n_pairs": n_pairs,
            **_weak_type_verdict(ratio, margin, bound),
        })
    return reports


def random_subordinate_pair_check(
    p: float, cfg: SimConfig, n_pairs: int = 100
) -> dict:
    """`random_subordinate_pair_checks` for the one exponent p; serial,
    whatever `cfg.workers` says."""
    return random_subordinate_pair_checks((p,), cfg, n_pairs)[0]


def section_chain_mc(params: ExtremalParams, cfg: SimConfig) -> dict:
    """Pathwise sampling of the atomic ladder chain; cross-checks the exact
    exit probability and final moment from the atom bookkeeping."""
    p, delta, n_steps = params.p, params.delta, params.n_steps
    even, odd = _ladder_weights(p, delta, n_steps)
    keep_odd = odd[0] / even[0]            # 1/(1+delta)
    keep_even = even[1] / odd[0]           # q(1+delta)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0]))
    n = cfg.n_samples
    x = np.full(n, params.x0)
    alive = np.ones(n, dtype=bool)
    frozen = np.zeros(n, dtype=bool)
    for m in range(n_steps):
        u = rng.random(n)
        shed = alive & (u >= keep_odd)
        x[shed] = 0.0
        alive &= ~shed
        x[alive] *= 1 + delta
        u = rng.random(n)
        stay = u < keep_even
        up = alive & ~stay
        x[alive] *= (1 + 2 * delta / p) / (1 + delta)
        x[up] *= 2.0
        frozen |= up
        alive &= stay
    u = rng.random(n)
    top = alive & (u < 0.5)
    x[alive & ~top] = 0.0
    x[top] = 2 / p
    prob = _estimate(top.astype(float), cfg.master_seed)
    moment = _estimate(np.abs(x) ** p, cfg.master_seed)
    exact = section_ratio(p, params.x0, delta, n_steps)
    rep = {
        "check": "section_chain_mc",
        "p": p,
        "n": n,
        "estimate": moment.mean,
        "std_error": moment.std_error,
        "bound": exact.moment,
        "margin_sigma": abs(moment.mean - exact.moment) / moment.std_error,
        "seed": cfg.master_seed,
        "prob_estimate": prob.mean,
        "prob_std_error": prob.std_error,
        "prob_exact": exact.prob,
        "prob_margin_sigma": abs(prob.mean - exact.prob) / prob.std_error,
    }
    rep["passed"] = bool(
        rep["margin_sigma"] <= 3.0 and rep["prob_margin_sigma"] <= 3.0
    )
    return rep


def harmonic_rectangle_check(p: float, R: float, cfg: SimConfig) -> dict:
    """Exit sampling from the rectangle (-R, R) x (-1, 1) for the harmonic
    pair u(x,y) = x, v(x,y) = y: as R grows the u-moment tends to the strip
    value 1/kp(p)^p and almost all mass exits through |v| = 1."""
    if R < 5:
        raise ValueError("requires R >= 5")
    if not 1 <= p <= 2:
        raise ValueError("requires 1 <= p <= 2")
    xs, side, n_bridge, censored = _strip_exits((0.0, 0.0), cfg, R)
    moment = _estimate(np.abs(xs) ** p, cfg.master_seed)
    target = 1.0 / kp(p).value ** p
    mu = _estimate(1.0 - side.astype(float), cfg.master_seed)
    se = moment.std_error
    rep = {
        "check": "harmonic_rectangle",
        "p": p,
        "n": moment.n,
        "estimate": moment.mean,
        "std_error": se,
        "bound": target,
        "margin_sigma": abs(moment.mean - target) / se if se > 0 else math.inf,
        "seed": moment.seed,
        "mu_v_ge_1": mu.mean,
        "mu_std_error": mu.std_error,
        "R": R,
        "bridge_exits": n_bridge,
        "censored": censored,
    }
    rep["passed"] = bool(rep["margin_sigma"] <= 4.0 and mu.mean >= 0.95)
    return rep
