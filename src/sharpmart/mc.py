"""Seeded Monte Carlo harnesses for the martingale inequalities.

Strip-exit sampling of 2-D Brownian motion by walk on spheres, random
non-negative martingale pairs under increment domination, and the
rectangle harmonic check.

Every strip simulation runs one kernel, `_walk_chunk`: a walk on spheres
(Muller 1956, Ann. Math. Stat. 27) samples where each path leaves the
strip |y| < 1, and the rectangle |x| < r_bound with it, with no time step.
Each jump goes to the exit point of the largest disk inside the domain
that is tangent to the boundary at the path's nearest boundary point, so
near the boundary the distance to it is about squared at every jump.  It
takes one transcendental, t = tan(pi u) (`_jump`), and the stopped paths
are classified as top/bottom or side exits once, after the walk.  It uses
only the disk's harmonic measure, by a disk automorphism, so it shares no
formula with `kp` or with the Poisson quadrature of `orth`.  While no path
can lie within 1 of a side, which a scalar bound on |x| shows for the first
r_bound - |x0| - 1 jumps or so (every jump at r_bound = inf), every tangent
disk is the unit disk centred on the path's x, and the walk takes that step
alone.  After a jump at which some path stopped, the stopped paths are
written to the next free slots of the exits and the live ones compacted.

Each chunk is reduced in its worker, while its arrays are still there
(`_strip_exits`): to (n, mean, M2) of |X|^p per exponent, by two passes,
and to its side-exit count.  No array of the whole sample is built.  A
walk's arrays live in a workspace (`_Workspace`) that outlasts it: it waits
on a module-level free list for the next walk or random pair, so a process
that runs either kernel again writes into memory it has already touched
instead of asking the allocator for it.  One list serves both kernels.  A
walk or pair holds one workspace, so the list never holds more workspaces
than ran at once, each sized for the largest walk or pair that used it; a
pair of more than `_CHUNK` paths, larger than any walk, keeps its own off
the list.

Each sample serves every exponent asked of it: `strip_exit_moments` takes
all its moments from one set of exit points, and
`random_subordinate_pair_checks` draws each pair once for all exponents
(p enters only ||f||_p^p, read from the step law).  A pair leaves only its
lambda grid, its two count vectors and its logs of ||f||_p^p, and the
lambda scan runs once per exponent over all pairs (`_lambda_scan`).
`strip_exit_moment` and `random_subordinate_pair_check` are their
one-exponent forms.

Determinism contract: strip chunk i (of fixed size) uses
``SeedSequence([master_seed, i])`` and random pair j uses
``SeedSequence([master_seed, 10_000 + j])``.  After its law's four draws a
pair reads one 64-bit word of the generator per path and four steps, and
none for g_0 = 1: step 4i + j reads the 16-bit field j of word i, whose high
15 bits give the step of f and whose low bit gives the sign v
(`_pair_chunk`).  A chunk's exits come in stop order (`_walk`), which its
reducers read as a sample.  Strip chunks run on a pool of `cfg.workers`
threads (numpy releases the GIL in array work) and are merged in chunk order
(`_merge`); pairs run in pair order on the calling thread.  So reports are
bit-identical for a given master seed at any worker count.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

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
# _SHELL_EPS = 1e-6 a path from the origin takes about 4.55 jumps; the count
# has a geometric tail: of 2^20 paths, 232 took more than 15, 6 more than
# 20 and none more than 25.
_MAX_STEPS = 1_000
# A jump's |Re z| (`_jump`) is at most 1 + _RE_SLACK: |(D - N)(D + N)| <= q,
# and its seven roundings add at most 3.5 eps
_RE_SLACK = 4 * math.ulp(1.0)
# An estimate more than _SIGMA_GATE standard errors past its bound fails
_SIGMA_GATE = 4.0
# P(Z > _SIGMA_GATE): a weak-type row with P = 1 of n paths (no binomial
# error) is judged at P's exact lower bound _ALPHA^(1/n), the gate's confidence
_ALPHA = 0.5 * math.erfc(_SIGMA_GATE / 2 * math.sqrt(2))
# A float64's sign bit, and a 64-bit word's top bit
_SIGN = np.uint64(1 << 63)
# A pair step's uniform u = k / _U_GRID takes 15 bits of a generator word
_U_GRID = 1 << 15
# A pair's lambda grid over the median of its g*
_UNIT_GRID = np.geomspace(0.1, 10.0, 20)


@dataclass(frozen=True)
class SimConfig:
    master_seed: int
    n_samples: int
    workers: int = 1

    def __post_init__(self):
        for name in ("n_samples", "workers"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):  # also refuses NaN
                raise ValueError(f"{name} must be an integer of at least 1, got {v!r}")


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


def _merge(parts):
    """One (n, mean, M2) from the chunks' (n, mean, M2), merged in order by
    the pairwise update of Chan, Golub and LeVeque (1983, Am. Stat. 37)."""
    parts = iter(parts)
    n, mean, m2 = next(parts)
    for nb, mb, m2b in parts:
        d = mb - mean
        total = n + nb
        mean += d * nb / total
        m2 += m2b + d * d * n * nb / total
        n = total
    return n, mean, m2


def _estimate(n: int, mean: float, m2: float, seed: int) -> Estimate:
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return Estimate(mean=mean, std_error=se, n=n, seed=seed)


def _jump(u: np.ndarray, b: np.ndarray, n=None, q=None, im=None):
    """The exit point of the unit disk seen from (0, b), |b| < 1, for the
    uniform u: the uniform point w = exp(2 pi i u) of the circle moved by the
    disk automorphism z = (w + ib) / (1 - ib w), which takes 0 to ib and so
    the uniform law to the harmonic measure seen from ib.  With
    t = tan(pi u), z's half-angle tangent is N/D, N = t + b and D = 1 + bt,
    so z = ((D - N)(D + N), 2ND) / q with q = N^2 + D^2 >= (1 - |b|)^2 (1 + t^2)
    > 0, and |z| = 1 to rounding.  At u = 1/2, t is about 1.6e16 and every
    term stays finite.  Returns (Re z, Im z) and overwrites u and b; N, q
    and Im z go to the buffers `n`, `q` and `im` where given."""
    t = np.tan(np.multiply(u, math.pi, out=u), out=u)
    n = np.add(t, b, out=n)
    d = np.multiply(b, t, out=b)
    d += 1.0
    q = np.multiply(n, n, out=q)
    q += np.multiply(d, d, out=t)
    im = np.multiply(n, d, out=im)
    im *= 2.0
    im /= q
    re = np.subtract(d, n, out=t)
    n += d
    re *= n
    re /= q
    return re, im


class _Workspace:
    """The buffers of a walk of up to `size` paths (`_walk`): ping-pong
    pairs for the live paths' x and y, x and y at the stop in stop order,
    |y| or the distance to the boundary and the stop flags, the uniforms,
    and the jump's N and q.  The jump's Im z goes to the free half of the y
    pair.  A random pair of up to `size` paths (`_pair_chunk`) uses seven of
    them, all written before they are read."""

    def __init__(self, size):
        self.size = size
        self.x = (np.empty(size), np.empty(size))
        self.y = (np.empty(size), np.empty(size))
        self.xs, self.ys, self.dist, self.u, self.n, self.q = (np.empty(size) for _ in range(6))
        self.stop = np.empty(size, bool)


# Workspaces wait here for the next walk or pair (`_workspace`)
_WORKSPACES = queue.SimpleQueue()


@contextmanager
def _workspace(n):
    """A workspace for n paths: one from the free list, or a new one if the
    list is empty or its first is too small (that one is dropped).  It goes
    back to the list however the walk or pair ends.  Each holds one
    workspace, so the list never holds more than the most that ran at once,
    each no larger than the largest of them: memory the process has already
    held.  A pair of more than _CHUNK paths, larger than any walk, gets a
    workspace of its own that the list never sees, so the list holds no
    more than the walks' memory."""
    if n > _CHUNK:
        yield _Workspace(n)
        return
    try:
        ws = _WORKSPACES.get_nowait()
    except queue.Empty:
        ws = None
    if ws is None or ws.size < n:
        ws = _Workspace(n)
    try:
        yield ws
    finally:
        _WORKSPACES.put(ws)


def _stop_y(eps):
    """The least double y with 1 - y < eps, for 0 < eps <= 1/2: 1 - y is
    exact for y >= 1/2, so |y| >= _stop_y(eps) is the test 1 - |y| < eps."""
    y = 1.0 - eps
    return y if 1.0 - y < eps else math.nextafter(y, 2.0)


def _walk(seed_pair, n, x0, y0, r_bound, ws):
    """n 2-D Brownian paths started at (x0, y0), run by walk on spheres to
    their exit from the strip |y| < 1, and from |x| < r_bound.

    From (x, y), at distances ey = 1 - |y| from the nearest edge and
    ex = r_bound - |x| from the nearest side, a path jumps to the exit point
    of the largest disk inside the domain that is tangent to the boundary at
    the path's nearest boundary point (its foot).  For an edge foot
    (ey <= ex) the disk has radius rho = min(1, ex) and centre
    (x, +-(1 - rho)); in the strip it is the unit disk centred at (x, 0).
    For a side foot it has radius rho = ey and centre (+-(r_bound - rho), y).
    The path lies on the foot's normal through the centre, at b rho from it,
    and where it leaves the disk follows the disk's harmonic measure seen
    from there: the uniform law on the circle, moved by a disk automorphism
    (`_jump`).  By the strong Markov property the exit law from (x, y) is
    that measure's average of the exit laws from the points of the circle.
    One uniform u is drawn per live path and step, and the jump takes one
    transcendental, tan(pi u).  Near the foot the new distance to the
    boundary is about the old one squared.

    A path stops once min(ey, ex) < _SHELL_EPS.  A path still walking after
    _MAX_STEPS jumps is censored.  Returns (x, y) at the stop or the
    censoring, in stop order (live order within a stop, censored paths
    last), the total jump count, and the censored count.  The compaction
    keeps live order, so each path reads the uniforms it would in path order.

    Wherever ex >= 1, the tangent disk is the unit disk centred at (x, 0):
    rho = 1, c = +-0 and b = y, so the general step reduces exactly to
    x += Re z, y = Im z, and the stop test to |y| >= `_stop_y`.  An edge-foot
    jump of that disk moves x by at most 1 + _RE_SLACK, plus x's rounding of
    at most r_bound eps / 2; delta = _RE_SLACK (1 + r_bound) covers both.  So
    while |x0| + (k + 1)(1 + delta) <= r_bound after k jumps (the extra delta
    covering this sum's own rounding), every path lies at least 1 from a
    side and the walk takes that step alone, with no ex.  Past that bound it
    takes it while every live path has ex >= 1, and otherwise the general
    step on every path.  Up to the sign of an exact zero y, both steps give
    the same bits.  The live paths are compacted only after a stop.

    Every per-jump array of the unit-disk step, and the outputs, live in the
    workspace `ws` (`_Workspace`, at least n paths): a stop goes to the
    outputs' next free slots, the compaction to the other half of each
    ping-pong pair and Im z to y's.  So a walk that reuses a workspace
    allocates nothing chunk-sized outside the general step, which runs only
    near a side.  The outputs are views into `ws`, read until it is reused.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    # the ping-pong pairs, and the index of each pair's free half
    xb, yb = ws.x, ws.y
    fx = fy = 1
    x = xb[0][:n]
    x.fill(x0)
    y = yb[0][:n]
    y.fill(y0)
    xs = ws.xs[:n]
    ys = ws.ys[:n]
    done = steps = 0
    delta = _RE_SLACK * (1.0 + r_bound)
    stop_y = _stop_y(_SHELL_EPS)
    for k in range(_MAX_STEPS + 1):
        m = x.size
        # while the bound holds, no path can lie within 1 of a side
        near = abs(x0) + (k + 1) * (1.0 + delta) > r_bound
        dist = np.abs(y, out=ws.dist[:m])
        if near:
            np.subtract(1.0, dist, out=dist)
            np.minimum(dist, r_bound - np.abs(x), out=dist)
            stop = np.less(dist, _SHELL_EPS, out=ws.stop[:m])
        else:
            stop = np.greater_equal(dist, stop_y, out=ws.stop[:m])
        i = np.flatnonzero(stop)
        # flatnonzero's indices are in range, and mode="clip" takes unbuffered
        if i.size:
            np.take(x, i, out=xs[done : done + i.size], mode="clip")
            np.take(y, i, out=ys[done : done + i.size], mode="clip")
            done += i.size
            keep = np.flatnonzero(np.logical_not(stop, out=stop))
            m = keep.size
            x = np.take(x, keep, out=xb[fx][:m], mode="clip")
            y = np.take(y, keep, out=yb[fy][:m], mode="clip")
            fx, fy = 1 - fx, 1 - fy
        if not m or k == _MAX_STEPS:
            break
        u = rng.random(out=ws.u[:m])
        steps += m
        scratch = ws.n[:m], ws.q[:m], yb[fy][:m]
        if near:  # past the bound: look at every live path
            ex = r_bound - np.abs(x)
            near = ex.min() < 1.0
        if not near:  # every tangent disk is the unit disk at (x, 0)
            re, im = _jump(u, y, *scratch)
            x += re
            y = im
            fy = 1 - fy
            continue
        # the tangent disk's radius rho and its centre's distance from the
        # domain's axis parallel to the foot (y = 0 for an edge foot, x = 0
        # for a side foot); a side path's x and y are swapped for the step,
        # so that y is always the coordinate normal to the foot
        ey = 1.0 - np.abs(y)
        side = np.flatnonzero(ex < ey)
        rho = np.minimum(ex, 1.0, out=ex)
        rho[side] = ey[side]
        far = np.subtract(1.0, rho, out=ey)
        if side.size:
            far[side] = r_bound - rho[side]
            x[side], y[side] = y[side], x[side]
        c = np.copysign(far, y, out=far)
        b = y - c
        b /= rho
        re, im = _jump(u, b, *scratch)
        im *= rho
        np.add(c, im, out=y)
        re *= rho
        x += re
        if side.size:
            x[side], y[side] = y[side], x[side]
    xs[done:] = x
    ys[done:] = y
    return xs, ys, steps, x.size


def _walk_chunk(args):
    """One chunk of the walk (`_walk`), classified once and reduced while
    its arrays are in the worker: each stopped path is projected onto the
    nearest side, so a top or bottom exit keeps its x and a side exit takes
    x = +-r_bound.  A censored path is unflagged and keeps its last x.

    The projection moves no top or bottom exit's x, and x^2 - y^2 is
    harmonic, so without a side barrier E X^2 - x0^2 = E Y^2 - y0^2 with
    |Y| in [1 - _SHELL_EPS, 1]: from the origin E X^2 lies in
    [(1 - _SHELL_EPS)^2, 1], a bias of at most 2 _SHELL_EPS.

    Returns (reduce(x at exit, side-exit flags, scratch), total jumps,
    censored paths).  The arrays are the workspace's, in the walk's stop
    order, censored paths last: `reduce` reads them as a sample, may
    overwrite `scratch`, must not write the other two, and keeps none."""
    seed_pair, n, x0, y0, r_bound, reduce = args
    with _workspace(n) as ws:
        xs, ys, steps, censored = _walk(seed_pair, n, x0, y0, r_bound, ws)
        ex = np.abs(xs, out=ws.dist[:n])
        np.subtract(r_bound, ex, out=ex)
        ey = np.abs(ys, out=ws.u[:n])
        np.subtract(1.0, ey, out=ey)
        side = np.less(ex, ey, out=ws.stop[:n])
        side[n - censored :] = False
        np.copysign(r_bound, xs, out=xs, where=side)
        return reduce(xs, side, ws.u[:n]), steps, censored


def _strip_exits(start, cfg: SimConfig, r_bound: float, reduce):
    """Every chunk of the walk from `start`, which must lie inside the
    strip and the barrier, reduced in its worker (`_walk_chunk`): the
    chunks' `reduce` results in chunk order, and the summed jump and
    censored-path counts."""
    x0, y0 = float(start[0]), float(start[1])
    if not (abs(y0) < 1 and abs(x0) < r_bound):  # also refuses NaN
        raise ValueError(f"start must satisfy |y| < 1 and |x| < {r_bound}, got {start}")
    args = [
        ((cfg.master_seed, i), min(_CHUNK, cfg.n_samples - first), x0, y0, r_bound, reduce)
        for i, first in enumerate(range(0, cfg.n_samples, _CHUNK))
    ]
    with ThreadPoolExecutor(cfg.workers) as pool:
        results, steps, censored = zip(*pool.map(_walk_chunk, args))
    return list(results), sum(steps), sum(censored)


def _abs_moments(ps, xs, side, scratch):
    """A chunk reducer: (n, mean, M2) of |x|^p for each p in `ps`, by two
    passes with numpy's arithmetic for `mean` and `std`; M2 is the sum of
    squared deviations from the mean."""
    out = []
    for p in ps:
        v = np.abs(xs, out=scratch)
        v **= p
        mean = float(v.sum()) / v.size
        v -= mean
        v *= v
        out.append((v.size, mean, float(v.sum())))
    return out


def _rectangle_sums(p, xs, side, scratch):
    """A chunk reducer: (n, mean, M2) of |x|^p, and the side-exit count."""
    return _abs_moments((p,), xs, side, scratch)[0], int(np.count_nonzero(side))


def strip_exit_moments(ps, start, cfg: SimConfig) -> list:
    """p-th absolute moments of the first coordinate at the strip exit, one
    `ExitEstimate` per exponent in `ps`, all taken on one sample of paths:
    each chunk's moments are taken in its worker and merged in chunk
    order (`_merge`)."""
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    chunks, steps, censored = _strip_exits(start, cfg, math.inf, partial(_abs_moments, ps))
    ests = (_estimate(*_merge(c[j] for c in chunks), cfg.master_seed) for j in range(len(ps)))
    return [
        ExitEstimate(e.mean, e.std_error, e.n, e.seed, steps, censored, _SHELL_EPS)
        for e in ests
    ]


def strip_exit_moment(p: float, start, cfg: SimConfig) -> ExitEstimate:
    """p-th absolute moment of the first coordinate at the strip exit."""
    return strip_exit_moments((p,), start, cfg)[0]


def _pair_chunk(seed_pair, n, ps, ws):
    """One random non-negative martingale f of n paths with a
    sign-transformed g, drawn once for every exponent in `ps`; returns the
    data the weak-type ratio needs: g* and |g| at the final time, and
    log ||f||_p^p per p.

    ||f||_p^p = sup_n E f_n^p is read from the step law: f_n is a product of
    n i.i.d. factors 1 + c, c = sigma a with probability q and -sigma b with
    1 - q, so E f_n^p = m_p^n with m_p = E (1 + c)^p, >= 1 for p >= 1 and
    <= 1 for p < 1 (Jensen); the sup is max(1, m_p)^N, returned as its log
    N log max(1, m_p), which stays finite where the power overflows.

    The law's four draws are N, q, a and sigma.  q is rounded up to the
    2^-15 grid and b = q a / (1 - q) is formed from that q, so f is a
    martingale on the grid the steps read.  g_0 = f_0 = 1: the signs v are
    fair and independent of f, so a sign draw for g_0 would leave the law of
    every |g_n|, all the weak-type ratio reads, unchanged.  Then each path
    reads one 64-bit generator word per four steps: step 4i + j reads bits
    16j to 16j + 15 of word i, whose high 15 bits are f's uniform
    u = k 2^-15 (a down-step when k >= q 2^15, probability 1 - q exactly) and
    whose low bit is v (set: v = -1), XORed into df's sign bit, which is
    exact.  f's step is df = f c with c read from the table
    (sigma a, -sigma b).  f and g are updated in place, and g* is the larger
    of the running maxima of g and of -g.

    f, g, the running maximum and minimum of g, df, the shifted word and the
    down flags live in the workspace `ws` (`_Workspace`, at least n paths),
    so a pair that reuses one allocates only the generator's word block and
    the step table's read.  g* and |g| are views into `ws`, read until it is
    reused."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    n_steps = int(rng.integers(5, 26))
    # centered two-point step: a with prob q, -b with prob 1-q, qa = (1-q)b,
    # q on the 2^-15 grid of u
    k_down = math.ceil(rng.uniform(0.2, 0.8) * _U_GRID)
    q = k_down / _U_GRID
    a = rng.uniform(0.2, 1.0)
    b = q * a / (1 - q)
    sigma = rng.uniform(0.1, 0.9) / max(a, b)
    if not sigma * max(a, b) < 1:  # each step multiplies f by 1 + c > 0
        raise RuntimeError("generator bug: negative martingale value")
    step = np.array([sigma * a, -sigma * b])  # c, indexed by u >= q
    # a field's 15 bits of u against k_down, both shifted to the top of the word
    down_from = np.uint64(k_down << 49)
    words = rng.bit_generator.random_raw
    f, g, g_hi, g_lo = ws.xs[:n], ws.ys[:n], ws.x[0][:n], ws.x[1][:n]
    for buf in (f, g, g_hi, g_lo):
        buf.fill(1.0)
    df = ws.dist[:n]
    df_bits = df.view(np.uint64)
    bits = ws.u[:n].view(np.uint64)
    down = ws.stop[:n]
    for i in range(n_steps):
        j = i % 4
        if not j:
            w = words(n)
        np.left_shift(w, 48 - 16 * j, out=bits)  # field j at the top
        np.greater_equal(bits, down_from, out=down)
        np.multiply(f, step.take(down), out=df)
        f += df
        np.left_shift(w, 63 - 16 * j, out=bits)  # v at the sign bit
        if j:  # at j = 0 the shift leaves v alone
            bits &= _SIGN
        df_bits ^= bits  # predictable sign v = +-1: exact
        g += df
        np.maximum(g_hi, g, out=g_hi)
        np.minimum(g_lo, g, out=g_lo)
    np.negative(g_lo, out=g_lo)
    np.maximum(g_hi, g_lo, out=g_hi)
    m_p = (q * (1 + sigma * a) ** p + (1 - q) * (1 - sigma * b) ** p for p in ps)
    return g_hi, np.abs(g, out=g), tuple(n_steps * math.log(max(1.0, m)) for m in m_p)


def _lambda_scan(count, n, grid, log_f_pp, p, bound):
    """Weak-type rows over lambda grids, for any number of pairs at once:
    the ratio lambda^p P(g >= lambda) / ||f||_p^p, its binomial standard
    error, and its margin (ratio - bound) / std_error in sigma, where `count`
    paths of n have g >= lambda.  `count`, `grid` and `log_f_pp` broadcast
    together (a pair per row: grids of shape (pairs, k) and log ||f||_p^p of
    shape (pairs, 1)).  The ratio and its error are
    exp(p log lambda - log ||f||_p^p) times P and sqrt(P (1 - P) / n), so no
    lambda^p or ||f||_p^p is formed on its own.  The margin is NaN where the
    empirical probability is 0 or 1, since the binomial error is 0.  A margin
    past the doubles (an error that underflows to 0, or a quotient that
    overflows) reads +-inf with the sign of ratio - bound, and warns of
    nothing."""
    prob = count / n
    scale = np.exp(p * np.log(grid) - log_f_pp)
    ratio = scale * prob
    se = scale * np.sqrt(prob * (1 - prob) / n)
    margin = np.full(ratio.shape, np.nan)
    inner = (prob > 0) & (prob < 1)
    with np.errstate(over="ignore", divide="ignore"):
        margin[inner] = (ratio[inner] - bound) / se[inner]
    return ratio, se, margin


def _pair_scans(seed_pair, n, ps):
    """What one pair's lambda scans read: its grid (the median of g* times
    `_UNIT_GRID`), the counts of paths with g* >= lambda and with
    |g_N| >= lambda on it, and log ||f||_p^p per exponent.  g* and |g_N| are
    sorted in place in the workspace, counted by a sorted search, and never
    leave it, so a pair holds no array of its paths past the call."""
    with _workspace(n) as ws:
        g_star, g_fin, log_f_pps = _pair_chunk(seed_pair, n, ps, ws)
        g_star.sort()
        g_fin.sort()
        med = float(np.mean(g_star[(n - 1) // 2 : n // 2 + 1]))  # np.median's arithmetic
        grid = med * _UNIT_GRID
        counts = [n - np.searchsorted(g, grid, side="left") for g in (g_star, g_fin)]
    return grid, *counts, log_f_pps


def _weak_type_verdict(low, margin, bound) -> dict:
    """Verdict over all scanned rows: the largest margin among rows with a
    defined margin must be <= 4 sigma, and a row with P = 1 or 0 (no
    binomial error) must not exceed the bound at `low`, its ratio at the
    exact one-sided lower bound of P."""
    decided = ~np.isnan(margin)
    worst = float(margin[decided].max()) if decided.any() else -math.inf
    return {
        "margin_sigma": worst,
        "warnings_3_4_sigma": int(np.count_nonzero((margin > 3.0) & (margin <= _SIGMA_GATE))),
        "passed": bool(worst <= _SIGMA_GATE and np.all(low[~decided] <= bound)),
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
    (`_pair_scans`), and keeps only its grid, its two count vectors and its
    logs.  Pairs run in pair order on the calling thread; then one
    `_lambda_scan` per exponent forms every pair's rows at once.
    """
    ps = tuple(ps)
    if not ps:
        raise ValueError("need at least one exponent")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    bounds = [weak_constant_nonneg(p).value ** p for p in ps]
    n = cfg.n_samples
    grids, stars, fins, log_f_pps = zip(*(
        _pair_scans((cfg.master_seed, 10_000 + j), n, ps) for j in range(n_pairs)
    ))
    # a pair per row; the counts of g* and of |g_N| stacked on a first axis
    lam = np.array(grids)
    counts = np.array([stars, fins])
    log_f = np.array(log_f_pps)
    reports = []
    for k, (p, bound) in enumerate(zip(ps, bounds)):
        ratio, se, margin = _lambda_scan(counts, n, lam, log_f[:, k, None], p, bound)
        fixed = ratio[1].max(axis=1).tolist()  # each pair's largest fixed-time ratio
        ratio, se, margin = ratio[0].ravel(), se[0].ravel(), margin[0].ravel()
        i = int(np.argmax(ratio))
        reports.append({
            "check": "random_subordinate_pairs",
            "p": p,
            "n": n * n_pairs,
            "estimate": float(ratio[i]),
            "std_error": float(se[i]),
            "bound": bound,
            "ratio_excess": float(ratio[i]) / bound - 1.0,
            "seed": cfg.master_seed,
            "worst_lambda": float(lam.flat[i]),
            "worst_fixed_time_ratio": max(fixed),
            "n_pairs": n_pairs,
            **_weak_type_verdict(ratio * _ALPHA ** (1 / n), margin, bound),
        })
    return reports


def random_subordinate_pair_check(p: float, cfg: SimConfig, n_pairs: int = 100) -> dict:
    """`random_subordinate_pair_checks` for the one exponent p."""
    return random_subordinate_pair_checks((p,), cfg, n_pairs)[0]


def harmonic_rectangle_check(p: float, R: float, cfg: SimConfig) -> dict:
    """Exit sampling from the rectangle (-R, R) x (-1, 1) for the harmonic
    pair u(x,y) = x, v(x,y) = y: as R grows the u-moment tends to the strip
    value 1/kp(p)^p and almost all mass exits through |v| = 1."""
    if not R >= 5:  # also refuses NaN
        raise ValueError("requires R >= 5")
    target = 1.0 / kp(p).value ** p  # kp refuses p outside [1, 2] before any path is drawn
    chunks, steps, censored = _strip_exits((0.0, 0.0), cfg, R, partial(_rectangle_sums, p))
    sums, sides = zip(*chunks)
    moment = _estimate(*_merge(sums), cfg.master_seed)
    # the flags 1 - side: n - k ones among n, with mean (n - k)/n and
    # M2 = k (n - k)/n
    n, k = moment.n, sum(sides)
    mu = _estimate(n, (n - k) / n, k * (n - k) / n, cfg.master_seed)
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
    rep["passed"] = bool(rep["margin_sigma"] <= _SIGMA_GATE and mu.mean >= 0.95)
    return rep
