"""Tests for the Monte Carlo harnesses.

Statistical assertions are seeded, so these tests are deterministic:
estimates must be bit-identical across repeated runs and worker counts,
and the margin checks run at fixed seeds with generous sigma budgets.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sharpmart import mc
from sharpmart.constants import kp
from sharpmart.extremal import resolve_params, section_ratio
from sharpmart.mc import (
    _EPS,
    Estimate,
    ExitEstimate,
    SimConfig,
    _bridge_step,
    _lambda_scan,
    _pair_chunk,
    _strip_chunk,
    _weak_type_verdict,
    harmonic_rectangle_check,
    random_subordinate_pair_check,
    random_subordinate_pair_checks,
    section_chain_mc,
    strip_exit_bias_pair,
    strip_exit_moment,
    strip_exit_moments,
    strip_exit_samples,
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
        {"master_seed": 1, "n_samples": 10, "dt": 0.0},
        {"master_seed": 1, "n_samples": 10, "dt": 0.02},
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


def test_strip_exit_samples_sides():
    cfg = SimConfig(master_seed=11, n_samples=30_000)
    xs, side = strip_exit_samples((0.0, 0.0), cfg, r_bound=5.0)
    assert xs.shape == side.shape == (30_000,)
    assert np.all(np.abs(xs) <= 5.0 + 1e-12)
    # side flags the rare |x| = R exits; nearly all paths leave through |y| = 1
    assert side.mean() < 0.05


def _full_bridge_step(y, dy, u, dt):
    """The bridge test with both exponentials on every path."""
    y1 = y + dy
    up, dn = y1 >= 1.0, y1 <= -1.0
    p_up = np.exp(-2.0 * (1.0 - y) * (1.0 - y1) / dt)
    p_dn = np.exp(-2.0 * (1.0 + y) * (1.0 + y1) / dt)
    bridge = ~(up | dn) & (u < p_up + p_dn)
    theta = np.full(y.size, 0.5)
    np.divide(1.0 - y, dy, out=theta, where=up)
    np.divide(-1.0 - y, dy, out=theta, where=dn)
    exited = up | dn | bridge
    return y1, exited, theta[exited], int(bridge.sum())


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
def test_bridge_step_candidates_change_no_decision(dt):
    rng = np.random.default_rng(99)
    n = 400_000
    # crowd the barriers and the candidate edge; u = 0 bridge-exits any path
    # whose crossing probability does not underflow, u < eps only near one
    y = np.concatenate([rng.uniform(-1, 1, n // 2), np.sign(rng.uniform(-1, 1, n // 2))
                        * (1 - rng.uniform(0, 0.4, n // 2) ** 2)])
    dy = rng.normal(0.0, math.sqrt(dt), n)
    u = rng.random(n)
    u[::1000] = 0.0
    u[1::1000] *= _EPS
    got = _bridge_step(y, dy, u, dt)
    want = _full_bridge_step(y, dy, u, dt)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3] > 0


# Literal outputs of the kernel that evaluated both bridge exponentials on
# every path; the side-barrier and coupled kernels must reproduce them bit
# for bit at any worker count.
@pytest.mark.parametrize(
    "p, R, seed, workers, want",
    [
        (2.0, 6.0, 41, 1, (1.0017900540767959, 0.010066490039423006, 0.99985, 6.123341602655331e-05)),
        (2.0, 20.0, 13, 2, (1.0183724706479602, 0.010317102702912806, 1.0, 0.0)),
        (1.0, 6.0, 41, 3, (0.7407630814757554, 0.00336552907425151, 0.99985, 6.123341602655331e-05)),
    ],
)
def test_harmonic_rectangle_is_pinned(p, R, seed, workers, want):
    rep = harmonic_rectangle_check(
        p, R, SimConfig(master_seed=seed, n_samples=40_000, workers=workers)
    )
    assert (rep["estimate"], rep["std_error"], rep["mu_v_ge_1"], rep["mu_std_error"]) == want


@pytest.mark.parametrize(
    "seed, start, want",
    [
        (13, (0.0, 0.0), (1.0113124912532467, 0.010418594136922704,
                          1.0076394848274326, 0.010219269394027444)),
        (77, (0.3, -0.4), (0.9346913269727382, 0.00951041117211573,
                           0.934034660544743, 0.009572745015332791)),
    ],
)
def test_strip_exit_bias_pair_is_pinned(seed, start, want):
    coarse, fine = strip_exit_bias_pair(2.0, start, SimConfig(master_seed=seed, n_samples=40_000))
    assert (coarse.mean, coarse.std_error, fine.mean, fine.std_error) == want



@pytest.mark.parametrize("start", [(2.0, 1.5), (0.0, -1.0), (0.0, math.nan)])
def test_start_outside_strip_rejected(start):
    # both the coupled pair and the strip moment refuse a start with |y| >= 1
    cfg = SimConfig(master_seed=1, n_samples=1000)
    with pytest.raises(ValueError, match=r"\|y\| < 1"):
        strip_exit_bias_pair(2.0, start, cfg)
    with pytest.raises(ValueError, match=r"\|y\| < 1"):
        strip_exit_moment(2.0, start, cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_strip_moments_share_one_sample(workers):
    cfg = SimConfig(master_seed=11, n_samples=40_000, workers=workers)
    both = strip_exit_moments((1.0, 2.0), (0.3, -0.2), cfg)
    assert both == [strip_exit_moment(p, (0.3, -0.2), cfg) for p in (1.0, 2.0)]
    # the one-exponent moments as they were when each p simulated its own paths
    assert [(e.mean, e.std_error, e.n, e.seed, e.bridge_exits, e.censored) for e in both] == [
        (0.7710884711435335, 0.0033875126019360857, 40_000, 11, 20_041, 0),
        (1.0535756202198754, 0.010142577788421248, 40_000, 11, 20_041, 0),
    ]
    with pytest.raises(ValueError, match="exponent"):
        strip_exit_moments((), (0.0, 0.0), cfg)


def _assert_same_law(a, b):
    """E|x| and E x^2 of two samples agree within 4 combined sigma."""
    for f in (np.abs, np.square):
        fa, fb = f(a), f(b)
        se = math.hypot(fa.std(ddof=1), fb.std(ddof=1)) / math.sqrt(fa.size)
        assert abs(fa.mean() - fb.mean()) <= 4 * se


# near the barrier most paths exit within a step or two, so an error of one
# step (dt) in the y-only route's variance k + theta^2 is many sigma
@pytest.mark.parametrize("start", [(0.0, 0.0), (0.7, 0.3), (0.0, 0.999)])
def test_y_only_route_matches_x_walk_in_law(start):
    # r_bound = 1e6 is never reached, so the x-walk kernel samples the same
    # law as the y-only kernel (which draws x once at exit)
    args = [((5, i), 1 << 15, start[0], start[1], 1e-2) for i in range(2)]
    walk = np.concatenate([_strip_chunk(a + (1e6,))[0] for a in args])
    alone = np.concatenate([_strip_chunk(a + (math.inf,))[0] for a in args])
    _assert_same_law(walk, alone)
    # the y-only draws are a different stream: the samples differ
    assert not np.array_equal(walk, alone)


def test_censored_paths_keep_their_law(monkeypatch):
    # over a horizon of ten steps most paths are still inside the strip
    monkeypatch.setattr(mc, "_MAX_TIME", 0.1)
    n = 1 << 14
    walk = _strip_chunk(((5, 0), n, 0.0, 0.0, 1e-2, 1e6))
    alone = _strip_chunk(((5, 0), n, 0.0, 0.0, 1e-2, math.inf))
    assert walk[3] > 0.9 * n and alone[3] > 0.9 * n
    _assert_same_law(walk[0], alone[0])


def test_strip_counts_bridge_exits_and_censored():
    cfg = SimConfig(master_seed=3, n_samples=20_000)
    est = strip_exit_moment(2.0, (0.0, 0.0), cfg)
    assert isinstance(est, ExitEstimate)
    # by reflection, about half of all first crossings happen inside a step
    # whose endpoint is back in the strip; no path is still inside at T = 60
    assert 0.4 * est.n < est.bridge_exits < 0.6 * est.n
    assert est.censored == 0
    _, side, n_bridge, censored = _strip_chunk(((3, 0), 5_000, 0.0, 0.0, 1e-2, math.inf))
    assert not side.any() and censored == 0 and n_bridge > 0


def test_coupled_bias_pair_is_small():
    cfg = SimConfig(master_seed=13, n_samples=60_000)
    coarse, fine = strip_exit_bias_pair(2.0, (0.0, 0.0), cfg)
    # coupling cancels sampling noise, so the dt-refinement gap is far
    # below the marginal standard errors
    assert abs(coarse.mean - fine.mean) < coarse.std_error


# ------------------------------------------------------------- random pairs


def test_pair_chunk_is_deterministic_and_valid():
    a = _pair_chunk(((5, 10_001), 4_000, (3.0,)))
    b = _pair_chunk(((5, 10_001), 4_000, (3.0,)))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    g_star, g_fin, (f_pp,) = a
    assert np.all(g_star >= np.abs(g_fin) - 1e-15)
    assert np.all(g_star >= 1.0)  # |g_0| = 1
    assert f_pp >= 1.0  # running sup starts at E f_0^p = 1


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


# Reports of the kernel that drew each step's uniforms in two calls and
# chose v and the step of f with np.where; the branch-free kernel must
# reproduce every key bit for bit.
_PAIRS_PINNED = {
    (7, 0.5): dict(estimate=0.9815637418878093, std_error=0.0, ratio_excess=-0.3059296219442881,
                   worst_lambda=0.9634673793887978, worst_fixed_time_ratio=0.7118057022175444,
                   margin_sigma=-50.23957652592795),
    (7, 3.0): dict(estimate=0.6189047714923158, std_error=0.005928690990454988,
                   ratio_excess=-0.6332416168934426, worst_lambda=1.0928201507033266,
                   worst_fixed_time_ratio=0.33737290175333007, margin_sigma=-27.673067968360076),
    (8, 0.5): dict(estimate=0.9945684039719729, std_error=0.0, ratio_excess=-0.2967339371975364,
                   worst_lambda=0.9891663101793574, worst_fixed_time_ratio=0.74214687163111,
                   margin_sigma=-51.44534647506445),
    (8, 3.0): dict(estimate=0.4102387255174076, std_error=0.004347733946392989,
                   ratio_excess=-0.7568955700637585, worst_lambda=1.118432525376097,
                   worst_fixed_time_ratio=0.2469633975220292, margin_sigma=-28.072743682540768),
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
    rows = [_lambda_scan(g, grid, 1.0, p, bound) for g in (a, b)]
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


def test_pairs_verdict_fails_an_errorless_row_above_the_bound():
    ratio = np.array([0.5, 2.0])
    margin = np.array([-10.0, np.nan])  # second row: P = 1, no binomial error
    assert not _weak_type_verdict(ratio, margin, 1.5)["passed"]
    assert _weak_type_verdict(ratio, margin, 2.0)["passed"]


def test_random_pairs_rejects_intermediate_exponents():
    with pytest.raises(ValueError):
        random_subordinate_pair_check(1.5, SimConfig(master_seed=1, n_samples=10))


# ------------------------------------------------------------- ladder chain


def test_section_chain_matches_exact_atoms():
    params = resolve_params(3.0, 1 / 24, 1.5)
    rep = section_chain_mc(params, SimConfig(master_seed=31, n_samples=300_000))
    exact = section_ratio(3.0, params.x0, params.delta, params.n_steps)
    assert rep["passed"]
    assert rep["bound"] == pytest.approx(exact.moment, rel=1e-14)
    assert rep["prob_exact"] == pytest.approx(exact.prob, rel=1e-14)
    assert rep["margin_sigma"] <= 3.0 and rep["prob_margin_sigma"] <= 3.0
    check_schema(rep)


# --------------------------------------------------------- rectangle check


def test_harmonic_rectangle_sampled():
    rep = harmonic_rectangle_check(2.0, 6.0, SimConfig(master_seed=41, n_samples=60_000))
    assert rep["passed"]
    assert rep["bound"] == pytest.approx(1.0 / kp(2.0).value ** 2, rel=1e-14)
    assert rep["mu_v_ge_1"] >= 0.95
    assert rep["censored"] == 0 and rep["bridge_exits"] > 0
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
