"""Tests for the Monte Carlo harnesses.

Statistical assertions are seeded, so these tests are deterministic:
estimates must be bit-identical across repeated runs and worker counts,
and the margin checks run at fixed seeds with generous sigma budgets.
"""

import json
import math
import os
import queue
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sharpmart import mc
from sharpmart.constants import kp
from sharpmart.mc import (
    Estimate,
    ExitEstimate,
    SimConfig,
    _lambda_scan,
    _pair_chunk,
    _weak_type_verdict,
    harmonic_rectangle_check,
    random_subordinate_pair_check,
    random_subordinate_pair_checks,
    strip_exit_moment,
    strip_exit_moments,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text()
)


def check_schema(report):
    import jsonschema

    jsonschema.validate(report, SCHEMA)


# -------------------------------------------------------------- configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"master_seed": 1, "n_samples": 0},
        {"master_seed": 1, "n_samples": -5},
        {"master_seed": 1, "n_samples": 10, "workers": -1},
        {"master_seed": 1, "n_samples": 10, "workers": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# -------------------------------------------------------------- determinism


def test_same_seed_is_bit_identical():
    cfg = SimConfig(master_seed=7, n_samples=50_000)
    a = strip_exit_moment(2.0, (0.0, 0.0), cfg)
    b = strip_exit_moment(2.0, (0.0, 0.0), cfg)
    assert a == b


def test_worker_count_does_not_change_results():
    a = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=7, n_samples=50_000))
    b = strip_exit_moment(
        2.0, (0.0, 0.0), SimConfig(master_seed=7, n_samples=50_000, workers=3)
    )
    assert a == b
    pairs = [
        random_subordinate_pair_checks(
            (0.5, 3.0), SimConfig(master_seed=7, n_samples=4_000, workers=w), n_pairs=6
        )
        for w in (1, 2, 3)
    ]
    assert pairs[0] == pairs[1] == pairs[2]


def test_different_seeds_differ():
    cfg1 = SimConfig(master_seed=7, n_samples=20_000)
    cfg2 = SimConfig(master_seed=8, n_samples=20_000)
    a = strip_exit_moment(2.0, (0.0, 0.0), cfg1)
    b = strip_exit_moment(2.0, (0.0, 0.0), cfg2)
    assert a.mean != b.mean


# ------------------------------------------------------------- strip sampling


def test_strip_exit_moment_p2_matches_theory():
    # E|B_tau|^2 = 1 for exit from |y| < 1 started at the origin
    est = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=3, n_samples=100_000))
    assert abs(est.mean - 1.0) <= 4 * est.std_error
    assert est.std_error < 0.02


def test_std_error_scales_like_sqrt_n():
    small = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=5, n_samples=25_000))
    large = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=5, n_samples=100_000))
    assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


def test_start_near_barrier_exits_with_small_moment():
    est = strip_exit_moment(2.0, (0.0, 0.999), SimConfig(master_seed=2, n_samples=30_000))
    assert est.mean < 0.02


def _copy_chunk(xs, side, scratch):
    return xs.copy(), side.copy()


def _exit_samples(start, cfg, r_bound):
    """x at exit, side-exit flags, jump count and censored count of the
    whole sample, each chunk copied out of its worker by the reducer."""
    chunks, steps, censored = mc._strip_exits(start, cfg, r_bound, _copy_chunk)
    xs, side = (np.concatenate(c) for c in zip(*chunks))
    return xs, side, steps, censored


def test_strip_exit_samples_sides():
    cfg = SimConfig(master_seed=11, n_samples=30_000)
    xs, side = _exit_samples((0.0, 0.0), cfg, 5.0)[:2]
    assert xs.shape == side.shape == (30_000,)
    assert np.all(np.abs(xs) <= 5.0 + 1e-12)
    # side flags the rare |x| = R exits; nearly all paths leave through |y| = 1
    assert side.mean() < 0.05


# Literal outputs of the walk-on-spheres kernel at one worker; every worker
# count must reproduce them bit for bit.  The moment is merged from chunk
# statistics in chunk order; test_merged_moments_are_numpys_statistic bounds
# its distance from numpy's statistic of the whole sample.
@pytest.mark.parametrize(
    "p, R, seed, workers, want",
    [
        (2.0, 6.0, 41, 1, (1.0149424708938584, 0.010150329350233345, 0.999775, 7.499249943743905e-05)),
        (2.0, 20.0, 13, 2, (0.9970026211433244, 0.010083988741285773, 1.0, 0.0)),
        (1.0, 6.0, 41, 3, (0.7486310391961036, 0.003370850785339798, 0.999775, 7.499249943743905e-05)),
    ],
)
def test_harmonic_rectangle_is_pinned(p, R, seed, workers, want):
    rep = harmonic_rectangle_check(
        p, R, SimConfig(master_seed=seed, n_samples=40_000, workers=workers)
    )
    assert (rep["estimate"], rep["std_error"], rep["mu_v_ge_1"], rep["mu_std_error"]) == want


def test_jump_matches_the_disk_automorphism():
    # the walk's tan(pi u) form of the step against numpy's complex
    # z = (w + ib)/(1 - ib w), w = exp(2 pi i u), on seeded (u, b) and every
    # pair of the edge values; the map's condition number at |b| is
    # (1 + |b|)/(1 - |b|), about 2e6 at 1 - 1e-6, which bounds the agreement
    edges = [0.0, 0.25, 0.5, 0.75, 2.0**-53, 1 - 2.0**-53]
    b_edges = [0.0, 0.5, -0.5, 1 - 1e-6, -(1 - 1e-6)]
    rng = np.random.default_rng(22)
    u = np.concatenate([rng.random(100_000), np.repeat(edges, len(b_edges))])
    b = np.concatenate([rng.uniform(-1, 1, 100_000) * (1 - 1e-6), np.tile(b_edges, len(edges))])
    with np.errstate(all="raise"):
        re, im = mc._jump(u.copy(), b.copy())
    assert np.all(np.isfinite(re)) and np.all(np.isfinite(im))
    eps = np.finfo(float).eps
    assert np.max(np.abs(np.hypot(re, im) - 1.0)) <= 4 * eps
    # the premise of the walk's bound on |x|: a unit-disk jump moves x by at
    # most 1 + _RE_SLACK
    assert np.max(np.abs(re)) <= 1 + mc._RE_SLACK
    w = np.exp(2j * np.pi * u)
    z = (w + 1j * b) / (1 - 1j * b * w)
    tol = 4 * eps * (1 + np.abs(b)) / (1 - np.abs(b))
    assert np.all(np.abs(re - z.real) <= tol) and np.all(np.abs(im - z.imag) <= tol)
    # at b = 0 the step is the uniform point, to the centred walk's 1e-15
    centred = b == 0
    assert np.max(np.abs(re[centred] - np.cos(2 * np.pi * u[centred]))) <= 1e-15
    assert np.max(np.abs(im[centred] - np.sin(2 * np.pi * u[centred]))) <= 1e-15
    assert np.all(re[centred & (u == 0.5)] == -1.0)


def _power_means_sigma(z, b):
    """Distances, in standard errors, of the means of Re z^k and Im z^k,
    k = 1, 2, 3, from Re and Im of (ib)^k: the values at ib of the harmonic
    functions Re z^k and Im z^k, which the exit law from ib must average to
    (the mean-value property)."""
    out = []
    for k in (1, 2, 3):
        zk, want = z**k, (1j * b) ** k
        for part, target in ((zk.real, want.real), (zk.imag, want.imag)):
            se = part.std(ddof=1) / math.sqrt(part.size)
            out.append(abs(part.mean() - target) / se if se > 0 else math.inf)
    return max(out)


@pytest.mark.parametrize("b", [0.0, 0.5, 0.9, 0.999])
def test_jump_law_is_the_harmonic_measure(b):
    u = np.random.default_rng(31).random(1_000_000)
    re, im = mc._jump(u.copy(), np.full(u.size, b))
    assert _power_means_sigma(re + 1j * im, b) <= 4.0
    if b:
        # power: the point where a ray from ib at a uniform angle leaves the
        # disk is the wrong law, and fails by hundreds of sigma
        e = np.exp(2j * np.pi * u)
        along = (-1j * b * e).real
        ray = 1j * b + (np.sqrt(along * along + 1 - b * b) - along) * e
        assert np.max(np.abs(np.abs(ray) - 1.0)) <= 1e-15
        assert _power_means_sigma(ray, b) > 4.0


def _reference_walk(seed_pair, n, x0, y0, r_bound):
    """The strip walk with the general tangent-disk step on every path at
    every jump, as masks: an edge foot's disk has radius min(1, ex) and
    centre (x, +-(1 - rho)), a side foot's radius ey and centre
    (+-(r_bound - rho), y), and the path lies at b rho from the centre along
    the foot's normal.  One uniform per live path and step, in path order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    live = np.arange(n)
    x = np.full(n, x0)
    y = np.full(n, y0)
    xs = np.empty(n)
    ys = np.empty(n)
    steps = 0
    for k in range(mc._MAX_STEPS + 1):
        stop = np.minimum(1.0 - np.abs(y), r_bound - np.abs(x)) < mc._SHELL_EPS
        xs[live[stop]] = x[stop]
        ys[live[stop]] = y[stop]
        live, x, y = live[~stop], x[~stop], y[~stop]
        if not live.size or k == mc._MAX_STEPS:
            break
        ey = 1.0 - np.abs(y)
        ex = r_bound - np.abs(x)
        side = ex < ey
        rho = np.where(side, ey, np.minimum(ex, 1.0))
        normal, along = np.where(side, x, y), np.where(side, y, x)
        c = np.copysign(np.where(side, r_bound - rho, 1.0 - rho), normal)
        re, im = mc._jump(rng.random(live.size), (normal - c) / rho)
        normal = c + im * rho
        along = along + re * rho
        x, y = np.where(side, normal, along), np.where(side, along, normal)
        steps += live.size
    xs[live] = x
    ys[live] = y
    return xs, ys, steps, live


@pytest.mark.parametrize(
    "r_bound, x0, y0, max_steps",
    [
        (math.inf, 0.0, 0.0, 1_000),
        (math.inf, 0.0, 0.3, 1_000),
        (20.0, 0.0, 0.0, 1_000),
        (5.0, 0.0, 0.0, 1_000),
        (5.0, 4.5, 0.5, 1_000),
        (5.0, 0.0, 0.9, 1_000),
        (5.0, 4.999, 0.0, 1_000),
        (5.0, -3.2, -0.7, 1_000),
        # |x0| + 2 (1 + delta) > r_bound: the bound fails after the first jump
        (6.0, 4.5, 0.0, 1_000),
        # censored paths, walking by the unit-disk step and by the general one
        (math.inf, 0.0, 0.0, 3),
        (5.0, 0.0, 0.0, 3),
        (5.0, 4.5, 0.0, 3),
    ],
)
def test_walk_matches_the_general_step_everywhere(monkeypatch, r_bound, x0, y0, max_steps):
    # the unit-disk step that `_walk` takes while no path can be within 1 of
    # a side, and its one compaction per stop, move no bit of its outputs
    monkeypatch.setattr(mc, "_MAX_STEPS", max_steps)
    args = ((17, 3), 1 << 12, x0, y0, r_bound)
    xs, ys, steps, live = mc._walk(*args)
    want_xs, want_ys, want_steps, want_live = _reference_walk(*args)
    assert (live.size > 0) == (max_steps == 3)
    assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    assert steps == want_steps and np.array_equal(live, want_live)


def test_walk_keeps_a_harmonic_mean_past_the_side_foot():
    # from (4.5, 0.5) with R = 5 the side is the nearest boundary, so the
    # side-foot disk takes the first step and many later ones; x^2 - y^2 is
    # harmonic, so its mean at the stop is x0^2 - y0^2 = 20
    xs, ys, _, live = mc._walk((23, 0), 1 << 17, 4.5, 0.5, 5.0)
    assert live.size == 0
    f = xs * xs - ys * ys
    se = f.std(ddof=1) / math.sqrt(f.size)
    assert abs(f.mean() - 20.0) <= 4 * se
    side = 5.0 - np.abs(xs) < 1.0 - np.abs(ys)
    assert 0.3 < side.mean() < 0.6


@pytest.mark.parametrize("start", [(2.0, 1.5), (0.0, -1.0), (0.0, math.nan)])
def test_start_outside_strip_rejected(start):
    cfg = SimConfig(master_seed=1, n_samples=1000)
    with pytest.raises(ValueError, match=r"\|y\| < 1"):
        strip_exit_moment(2.0, start, cfg)


@pytest.mark.parametrize(
    "start, r_bound", [((7.0, 0.2), 5.0), ((-5.0, 0.0), 5.0), ((math.nan, 0.0), math.inf)]
)
def test_start_outside_barrier_rejected(start, r_bound):
    # past the barrier every path would read as a side exit at x = +-r_bound,
    # and a NaN start would walk every path until it is censored
    cfg = SimConfig(master_seed=1, n_samples=1000)
    with pytest.raises(ValueError, match=r"\|x\| <"):
        _exit_samples(start, cfg, r_bound)[:2]


@pytest.mark.parametrize("workers", [1, 2])
def test_strip_moments_share_one_sample(workers):
    cfg = SimConfig(master_seed=11, n_samples=40_000, workers=workers)
    both = strip_exit_moments((1.0, 2.0), (0.3, -0.2), cfg)
    assert both == [strip_exit_moment(p, (0.3, -0.2), cfg) for p in (1.0, 2.0)]
    # literal walk-on-spheres outputs at one worker
    assert [(e.mean, e.std_error, e.n, e.seed, e.walk_steps, e.censored) for e in both] == [
        (0.7691571859344467, 0.003396537384200583, 40_000, 11, 179_866, 0),
        (1.0530498882992805, 0.010302313387331232, 40_000, 11, 179_866, 0),
    ]
    with pytest.raises(ValueError, match="exponent"):
        strip_exit_moments((), (0.0, 0.0), cfg)


@pytest.mark.parametrize("r_bound", [math.inf, 6.0])
def test_strip_exit_samples_match_across_workers(r_bound):
    # two chunks, so the pool really splits the work
    cfgs = (SimConfig(master_seed=4, n_samples=40_000, workers=w) for w in (1, 2))
    one, two = (_exit_samples((0.2, 0.1), cfg, r_bound)[:2] for cfg in cfgs)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])


_MERGE_PS = (1.0, 1.5, 2.0)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("r_bound", [math.inf, 6.0])
@pytest.mark.parametrize("n", [1_000, 32_769, 40_000, 1 << 17, (1 << 17) + 1, 200_000])
def test_merged_moments_are_numpys_statistic(monkeypatch, n, r_bound, seed, workers):
    # the reports' chunk statistics, merged in chunk order, against np.mean
    # and np.std(ddof=1) of the concatenated sample, which each chunk's
    # reducer also copies out; 32,769 and 2^17 + 1 end in a one-path chunk
    walks = []

    def copying(start, cfg, r_bound, reduce):
        def both(xs, side, scratch):
            return (xs.copy(), side.copy()), reduce(xs, side, scratch)

        chunks, steps, censored = real(start, cfg, r_bound, both)
        xs, side = (np.concatenate(c) for c in zip(*(c[0] for c in chunks)))
        walks.append((xs, side, steps, censored))
        return [c[1] for c in chunks], steps, censored

    real = mc._strip_exits
    monkeypatch.setattr(mc, "_strip_exits", copying)
    cfg = SimConfig(master_seed=seed, n_samples=n, workers=workers)
    if r_bound == math.inf:
        ests = strip_exit_moments(_MERGE_PS, (0.0, 0.0), cfg)
        got = [(e.mean, e.std_error, e.walk_steps, e.censored) for e in ests]
        walks *= len(_MERGE_PS)  # one sample serves every exponent
    else:
        reps = [harmonic_rectangle_check(p, r_bound, cfg) for p in _MERGE_PS]
        got = [(r["estimate"], r["std_error"], r["walk_steps"], r["censored"]) for r in reps]
    assert len(walks) == len(got)
    for (mean, se, steps, censored), p, (xs, side, want_steps, want_censored) in zip(
        got, _MERGE_PS, walks
    ):
        v = np.abs(xs) ** p
        assert xs.size == n
        assert mean == pytest.approx(v.mean(), rel=1e-15, abs=0)
        assert se == pytest.approx(v.std(ddof=1) / math.sqrt(n), rel=1e-15, abs=0)
        assert (steps, censored) == (want_steps, want_censored)
    if r_bound != math.inf:
        for rep, (_, side, _, _) in zip(reps, walks):
            assert rep["mu_v_ge_1"] == (n - np.count_nonzero(side)) / n
            flags = 1.0 - side
            assert rep["mu_std_error"] == pytest.approx(
                flags.std(ddof=1) / math.sqrt(n), rel=1e-15, abs=0
            )


def test_one_path_has_no_standard_error():
    with pytest.raises(ValueError, match="at least 2 samples"):
        strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=0, n_samples=1))
    with pytest.raises(ValueError, match="at least 2 samples"):
        harmonic_rectangle_check(2.0, 6.0, SimConfig(master_seed=0, n_samples=1))


def _empty_free_list():
    while True:
        try:
            mc._WORKSPACES.get_nowait()
        except queue.Empty:
            return


def _strip_reports(cfg):
    return (
        strip_exit_moments((1.0, 2.0), (0.1, -0.3), cfg),
        harmonic_rectangle_check(1.5, 6.0, cfg),
        [a.tolist() if isinstance(a, np.ndarray) else a
         for a in mc._walk((cfg.master_seed, 7), 5_000, 4.5, 0.5, 5.0)],
    )


def test_walks_at_once_report_what_they_report_in_turn():
    # two calls on two threads, each on its own pool, hold up to five
    # workspaces at once, more than the cores; none may share a buffer with
    # another walk.  A short switch interval interleaves the threads often.
    cfgs = [SimConfig(master_seed=3, n_samples=100_000, workers=2),
            SimConfig(master_seed=4, n_samples=70_000, workers=3)]
    in_turn = [_strip_reports(cfg) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(2) as pool:
                assert list(pool.map(_strip_reports, cfgs, timeout=60)) == in_turn
    finally:
        sys.setswitchinterval(interval)


def test_free_list_holds_one_workspace_per_walk_at_once(monkeypatch):
    # chunks of 2^10 paths, so each call below runs four or five walks
    monkeypatch.setattr(mc, "_CHUNK", 1 << 10)
    _empty_free_list()
    for i in range(50):
        cfg = SimConfig(master_seed=i, n_samples=4_000 + 20 * i, workers=1 + i % 3)
        if i % 2:
            strip_exit_moment(1.5, (0.0, 0.0), cfg)
        else:
            harmonic_rectangle_check(1.5, 5.0, cfg)
    assert 1 <= mc._WORKSPACES.qsize() <= 3


_FRESH_REPORTS = """
import json
from sharpmart import mc
cfg = mc.SimConfig(master_seed=9, n_samples=40_000, workers=1)
print(json.dumps(repr(({reports}))))
"""


def test_a_walk_that_raises_returns_its_workspace(monkeypatch):
    # the jump raises at its third call, mid-walk; the workspace goes back to
    # the free list with the walk's partial state, and the next calls, whose
    # first walk reuses it, report what a fresh process reports
    real = mc._jump
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("jump failed")
        return real(*args)

    cfg = SimConfig(master_seed=9, n_samples=40_000, workers=1)
    reports = "mc.strip_exit_moments((1.0, 2.0), (0.0, 0.0), cfg), " \
              "mc.harmonic_rectangle_check(2.0, 6.0, cfg)"
    _empty_free_list()
    monkeypatch.setattr(mc, "_jump", failing)
    with pytest.raises(RuntimeError, match="jump failed"):  # one chunk, one walk
        strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=1, n_samples=mc._CHUNK))
    monkeypatch.setattr(mc, "_jump", real)
    assert mc._WORKSPACES.qsize() == 1
    here = repr((strip_exit_moments((1.0, 2.0), (0.0, 0.0), cfg),
                 harmonic_rectangle_check(2.0, 6.0, cfg)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "from sharpmart.mc import *\n" + _FRESH_REPORTS.format(reports=reports)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert here == json.loads(out.stdout.splitlines()[-1])


def _within_p2_bias_bound(est):
    """x^2 - y^2 is harmonic and |Y| >= 1 - eps at the stop, so from the
    origin E X^2 lies in [(1 - eps)^2, 1]; checked within 4 sigma."""
    four = 4 * est.std_error
    return (1 - est.shell_eps) ** 2 - four <= est.mean <= 1 + four


def test_shell_bias_bound_at_p2(monkeypatch):
    est = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=21, n_samples=1 << 18))
    assert isinstance(est, ExitEstimate) and est.shell_eps == 1e-6
    assert _within_p2_bias_bound(est)
    assert est.censored == 0 and 4 * est.n < est.walk_steps < 5 * est.n
    # a wide shell: the bound still holds, and the test resolves the bias
    monkeypatch.setattr(mc, "_SHELL_EPS", 0.1)
    wide = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=21, n_samples=1 << 17))
    assert wide.shell_eps == 0.1
    assert _within_p2_bias_bound(wide)
    assert 1 - wide.mean > 4 * wide.std_error


def test_censored_paths_are_counted(monkeypatch):
    monkeypatch.setattr(mc, "_MAX_STEPS", 3)
    cfg = SimConfig(master_seed=3, n_samples=5_000)
    est = strip_exit_moment(2.0, (0.0, 0.0), cfg)
    assert 0 < est.censored < est.n
    # every censored path made the full three jumps
    assert est.walk_steps >= 3 * est.censored
    rep = harmonic_rectangle_check(2.0, 6.0, cfg)
    assert rep["censored"] == est.censored


def test_censored_paths_near_a_side_are_not_side_exits(monkeypatch):
    # censored before the first jump, every path sits 0.5 from the side
    # barrier and 1 from the edges: it keeps its x and is not a side exit
    monkeypatch.setattr(mc, "_MAX_STEPS", 0)
    xs, side, steps, censored = _exit_samples(
        (4.5, 0.0), SimConfig(master_seed=1, n_samples=1_000), 5.0
    )
    assert (steps, censored) == (0, 1_000)
    assert not side.any()
    assert np.all(xs == 4.5)


# ------------------------------------------------------------- random pairs


def test_pair_chunk_is_deterministic_and_valid():
    a = _pair_chunk(((5, 10_001), 4_000, (3.0,)))
    b = _pair_chunk(((5, 10_001), 4_000, (3.0,)))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    g_star, g_fin, (log_f_pp,) = a
    assert np.all(g_star >= np.abs(g_fin) - 1e-15)
    assert np.all(g_star >= 1.0)  # g_0 = 1
    assert log_f_pp >= 0.0  # ||f||_p^p = max(1, m_p)^N


def _law(seed_pair):
    """The pair's law replayed from its first four draws: (N, q, a, b,
    sigma) with q rounded up to the 2^-15 grid, and the generator, ready to
    read the path words."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    n_steps = int(rng.integers(5, 26))
    q = math.ceil(rng.uniform(0.2, 0.8) * 2**15) / 2**15
    a = rng.uniform(0.2, 1.0)
    b = q * a / (1 - q)
    sigma = rng.uniform(0.1, 0.9) / max(a, b)
    return (n_steps, q, a, b, sigma), rng


def _enumerated_f_pp(seed_pair, p):
    """sup_{n<=N} E f_n^p by summing over the binomial count of up-steps,
    on the law replayed from the pair's first four draws."""
    (n_steps, q, a, b, sigma), _ = _law(seed_pair)
    up, down = (1 + sigma * a) ** p, (1 - sigma * b) ** p
    return max(
        sum(math.comb(n, k) * q**k * (1 - q) ** (n - k) * up**k * down ** (n - k)
            for k in range(n + 1))
        for n in range(n_steps + 1)
    )


def test_pair_chunk_f_pp_is_the_step_law_closed_form():
    ps = (0.5, 2.0, 3.0, 6.0)
    for j in range(24):
        seed_pair = (11, 10_000 + j)
        _, _, log_f_pps = _pair_chunk((seed_pair, 10, ps))
        assert log_f_pps[0] == 0.0  # E f_n^p <= 1 for p < 1, and E f_0^p = 1
        for p, log_f_pp in zip(ps, log_f_pps):
            want = _enumerated_f_pp(seed_pair, p)
            assert math.exp(log_f_pp) == pytest.approx(want, rel=1e-12, abs=0)


def test_pair_law_reads_q_on_the_word_grid():
    # u takes 15 bits, so P(u >= q) = 1 - q exactly only for q on 2^-15
    for j in range(24):
        (_, q, *_), _ = _law((11, 10_000 + j))
        assert (q * 2**15).is_integer() and 0.2 <= q <= 0.8


def _plain_pair(seed_pair, n_paths, q_shift=0.0, field=lambda i: i % 4, v_bit=0):
    """The pair's law read path by path with np.where.  g_0 = 1, and step i
    reads the 16-bit field `field(i)` of the path's word i // 4: u is the
    field's high 15 bits times 2^-15, an up-step sigma a if u < q and a
    down-step -sigma b if not, and v is the field's bit `v_bit` (set: -1).
    q_shift moves the step threshold; returns g* and |g| at the final time."""
    (n_steps, q, a, b, sigma), rng = _law(seed_pair)
    words = rng.bit_generator.random_raw((-(-n_steps // 4), n_paths))
    f = np.ones(n_paths)
    g = np.ones(n_paths)
    g_star = np.ones(n_paths)
    for i in range(n_steps):
        bits = (words[i // 4] >> np.uint64(16 * field(i))) & np.uint64(0xFFFF)
        u = (bits >> np.uint64(1)) * 2.0**-15
        v = np.where((bits >> np.uint64(v_bit)) & np.uint64(1) == 1, -1.0, 1.0)
        df = f * np.where(u < q + q_shift, sigma * a, -(sigma * b))
        f = f + df
        g = g + v * df
        g_star = np.maximum(g_star, np.abs(g))
    return g_star, np.abs(g)


# 1 to 6,980 paths; the pairs' step counts 13, 5, 15, 12, 18, 14, 17 and 10
# end at every field of a word
@pytest.mark.parametrize("j", range(8))
def test_pair_chunk_is_the_plain_reading_of_its_law(j):
    seed_pair = (5, 10_000 + j)
    n_paths = 1 + 997 * j
    g_star, g_fin, _ = _pair_chunk((seed_pair, n_paths, (3.0,)))
    want_star, want_fin = _plain_pair(seed_pair, n_paths)
    assert np.array_equal(g_star, want_star) and np.array_equal(g_fin, want_fin)


def test_pair_chunk_reads_one_word_per_path_and_four_steps(monkeypatch):
    # after the law's draws the kernel's generator stands where one that has
    # read ceil(N/4) words per path stands
    made = []

    def default_rng(seed):
        made.append(np.random.Generator(np.random.PCG64(seed)))
        return made[-1]

    for j, n_paths in enumerate([1, 7, 1_000]):
        seed_pair = (9, 10_000 + j)
        with monkeypatch.context() as m:
            m.setattr(mc.np.random, "default_rng", default_rng)
            _pair_chunk((seed_pair, n_paths, (3.0,)))
        (n_steps, *_), rng = _law(seed_pair)
        rng.bit_generator.random_raw(-(-n_steps // 4) * n_paths)
        assert made[-1].bit_generator.state == rng.bit_generator.state


_LAW_PAIRS = [(25, 10_000 + j) for j in range(8)]


def _g_second_moment_z(g_fin, log_f_22):
    """z of the sample mean of |g_N|^2 against ||f||_2^2 = E|g_N|^2."""
    x = g_fin**2
    return (x.mean() - math.exp(log_f_22)) / (x.std(ddof=1) / math.sqrt(x.size))


def test_pair_chunk_g_second_moment_is_f_norm():
    # |dg| = |df| and v is a fair sign independent of the past, so the cross
    # terms vanish and E|g_N|^2 = 1 + sum E df_k^2 = E f_N^2 = m_2^N, the
    # p = 2 value _pair_chunk returns (m_2 >= 1)
    zs = []
    for seed_pair in _LAW_PAIRS:
        _, g_fin, (log_f_22,) = _pair_chunk((seed_pair, 100_000, (2.0,)))
        zs.append(_g_second_moment_z(g_fin, log_f_22))
    assert max(map(abs, zs)) <= 4.0, zs


def _faulty_law_zs(**fault):
    """The second-moment z of each law pair, read by the plain reading with
    one fault, against the kernel's own ||f||_2^2."""
    zs = []
    for seed_pair in _LAW_PAIRS:
        _, _, (log_f_22,) = _pair_chunk((seed_pair, 10, (2.0,)))
        g_fin = _plain_pair(seed_pair, 100_000, **fault)[1]
        zs.append(_g_second_moment_z(g_fin, log_f_22))
    return zs


def test_g_second_moment_sees_a_moved_step_threshold():
    # the same law with f's threshold moved from q to q + 0.02: f drifts and
    # the gate of test_pair_chunk_g_second_moment_is_f_norm fails
    zs = _faulty_law_zs(q_shift=0.02)
    assert max(map(abs, zs)) > 4.0, zs


@pytest.mark.parametrize(
    "fault",
    [
        dict(field=lambda i: i % 4 // 2 * 2),  # two steps read one field
        dict(v_bit=15),  # v is u's top bit, so v and f's step are dependent
    ],
    ids=["field-read-twice", "v-from-u"],
)
def test_g_second_moment_sees_a_broken_word_reading(fault):
    zs = _faulty_law_zs(**fault)
    assert max(map(abs, zs)) > 4.0, zs


@pytest.mark.parametrize("p, bound", [(0.5, math.sqrt(2)), (3.0, 27 / 16)])
def test_random_pairs_respect_weak_bound(p, bound):
    rep = random_subordinate_pair_check(
        p, SimConfig(master_seed=17, n_samples=4_000), n_pairs=25
    )
    assert rep["passed"]
    assert rep["bound"] == pytest.approx(bound, rel=1e-14)
    assert rep["estimate"] <= bound + 4 * rep["std_error"]
    assert rep["worst_fixed_time_ratio"] <= rep["bound"] + 4 * rep["std_error"]
    assert math.isfinite(rep["margin_sigma"]) and rep["margin_sigma"] <= 4.0
    assert rep["ratio_excess"] == pytest.approx(rep["estimate"] / bound - 1, rel=1e-12)
    check_schema(rep)


# Reports of the four-steps-per-word kernel at one worker.  The p = 3 entries
# divide by the exact ||f||_p^p of each pair's step law; at p < 1 that is 1.
# The kernel's bit-for-bit guard is test_pair_chunk_is_the_plain_reading_of_its_law.
_PAIRS_PINNED = {
    (7, 0.5): dict(estimate=0.9773233443588266, std_error=0.0, ratio_excess=-0.3089280357919584,
                   worst_lambda=0.9551609194287217, worst_fixed_time_ratio=0.7007288800115744,
                   margin_sigma=-50.97452836154924),
    (7, 3.0): dict(estimate=0.6134894484285379, std_error=0.005869335814273365,
                   ratio_excess=-0.6364506972275332, worst_lambda=1.1021596348972063,
                   worst_fixed_time_ratio=0.34781164084404814, margin_sigma=-44.277028707622414),
    (8, 0.5): dict(estimate=0.9945727495820689, std_error=0.0, ratio_excess=-0.2967308643871691,
                   worst_lambda=0.9891749542112368, worst_fixed_time_ratio=0.7540501861513214,
                   margin_sigma=-50.90115854090539),
    (8, 3.0): dict(estimate=0.4232423440787412, std_error=0.004375759646723308,
                   ratio_excess=-0.7491897220274127, worst_lambda=1.1184490095545696,
                   worst_fixed_time_ratio=0.24579160648831538, margin_sigma=-41.007536262273),
}


@pytest.mark.parametrize("seed, p", sorted(_PAIRS_PINNED))
def test_random_pairs_are_pinned(seed, p):
    rep = random_subordinate_pair_check(p, SimConfig(master_seed=seed, n_samples=4_000), n_pairs=25)
    want = {
        "check": "random_subordinate_pairs", "p": p, "n": 100_000,
        "bound": {0.5: 1.4142135623730951, 3.0: 1.6875000000000007}[p], "seed": seed,
        "n_pairs": 25, "warnings_3_4_sigma": 0, "passed": True, **_PAIRS_PINNED[seed, p],
    }
    assert rep == want


@pytest.mark.parametrize("seed", [7, 8])
def test_pairs_over_several_exponents_draw_each_pair_once(seed):
    cfg = SimConfig(master_seed=seed, n_samples=4_000)
    both = random_subordinate_pair_checks((0.5, 3.0), cfg, n_pairs=25)
    assert both == [random_subordinate_pair_check(p, cfg, n_pairs=25) for p in (0.5, 3.0)]


@pytest.mark.parametrize("ps, n_pairs, match", [((), 5, "exponent"), ((3.0,), 0, "n_pairs")])
def test_pairs_reject_empty_work(ps, n_pairs, match):
    cfg = SimConfig(master_seed=1, n_samples=10)
    with pytest.raises(ValueError, match=match):
        random_subordinate_pair_checks(ps, cfg, n_pairs=n_pairs)
    if ps:
        with pytest.raises(ValueError, match=match):
            random_subordinate_pair_check(ps[0], cfg, n_pairs=n_pairs)


def test_pairs_verdict_uses_largest_margin():
    # pair A: the largest ratio but a wide error bar (margin ~0.4 sigma);
    # pair B: a smaller ratio with a tight bar (margin ~9.5 sigma)
    p, bound = 3.0, 27 / 16
    grid = np.array([1.0, 1.5, 3.0])
    a = np.repeat([2.0, 1.0], [52, 48])
    b = np.repeat([2.0, 1.0], [51_500, 48_500])
    rows = [_lambda_scan(np.sort(g), grid, 0.0, p, bound) for g in (a, b)]
    ratio, se, margin = (np.concatenate(c) for c in zip(*rows))
    top = int(np.argmax(ratio))
    assert top == 1 and margin[top] <= 4.0  # the old rule: this row decides, passes
    assert ratio[4] < ratio[top] and margin[4] > 9.0
    verdict = _weak_type_verdict(ratio, margin, bound)
    assert not verdict["passed"]
    assert verdict["margin_sigma"] == pytest.approx(margin[4])
    # P = 1 at lambda = 1 and P = 0 at lambda = 3: no margin, no 1e-12 floor
    assert np.isnan(margin[[0, 2, 3, 5]]).all()
    assert se[[0, 2, 3, 5]].tolist() == [0.0] * 4


@pytest.mark.filterwarnings("error")
def test_lambda_scan_margin_keeps_its_sign_past_the_doubles():
    # P = 1/2 in both rows.  At lambda = 1e-10 and ||f||_p^p = 1e308,
    # lambda^3 / ||f||_p^p underflows: the error bar is 0 and
    # (ratio - bound) / 0 is -inf.  At lambda = 1/2 and ||f||_p^p = 1e150 the
    # error bar is ~4e-152 and the bound 1e200: the quotient overflows to
    # -inf.  Neither warns.
    g = np.array([0.0, 1.0])
    ratio, se, margin = _lambda_scan(g, np.array([1e-10]), math.log(1e308), 3.0, 1.5)
    assert (ratio[0], se[0], margin[0]) == (0.0, 0.0, -math.inf)
    ratio, se, margin = _lambda_scan(g, np.array([0.5]), math.log(1e150), 3.0, 1e200)
    assert se[0] > 0 and margin[0] == -math.inf


def test_pairs_verdict_fails_an_errorless_row_above_the_bound():
    ratio = np.array([0.5, 2.0])
    margin = np.array([-10.0, np.nan])  # second row: P = 1, no binomial error
    assert not _weak_type_verdict(ratio, margin, 1.5)["passed"]
    assert _weak_type_verdict(ratio, margin, 2.0)["passed"]


def test_alpha_is_the_sigma_gates_tail():
    # P(Z > 4) written from the gate is the very double written from 2 sqrt(2)
    assert mc._SIGMA_GATE == 4.0
    assert mc._ALPHA == 0.5 * math.erfc(2 * math.sqrt(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairs_pass_at_a_few_paths(n):
    # with a few paths the empirical P is often 1 far above the true P; such a
    # row is judged at P's exact one-sided lower bound alpha^(1/n)
    for seed in range(5):
        reports = random_subordinate_pair_checks((0.5, 3.0), SimConfig(seed, n), n_pairs=50)
        assert all(r["passed"] for r in reports), (seed, reports)


def test_random_pairs_rejects_intermediate_exponents():
    with pytest.raises(ValueError):
        random_subordinate_pair_check(1.5, SimConfig(master_seed=1, n_samples=10))


# --------------------------------------------------------- rectangle check


def test_harmonic_rectangle_sampled():
    rep = harmonic_rectangle_check(2.0, 6.0, SimConfig(master_seed=41, n_samples=60_000))
    assert rep["passed"]
    assert rep["bound"] == pytest.approx(1.0 / kp(2.0).value ** 2, rel=1e-14)
    assert rep["mu_v_ge_1"] >= 0.95
    assert rep["censored"] == 0 and rep["walk_steps"] > rep["n"]
    check_schema(rep)


def test_harmonic_rectangle_domain():
    cfg = SimConfig(master_seed=1, n_samples=10)
    with pytest.raises(ValueError):
        harmonic_rectangle_check(2.0, 3.0, cfg)
    with pytest.raises(ValueError):
        harmonic_rectangle_check(3.0, 6.0, cfg)


# ---------------------------------------------------------------- estimates


def test_estimate_fields():
    est = strip_exit_moment(1.0, (0.0, 0.0), SimConfig(master_seed=9, n_samples=20_000))
    assert isinstance(est, Estimate)
    assert est.n == 20_000
    assert est.seed == 9
    assert est.std_error > 0
