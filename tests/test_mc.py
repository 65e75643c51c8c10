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


def test_strip_exit_samples_sides():
    cfg = SimConfig(master_seed=11, n_samples=30_000)
    xs, side = mc._strip_exits((0.0, 0.0), cfg, 5.0)[:2]
    assert xs.shape == side.shape == (30_000,)
    assert np.all(np.abs(xs) <= 5.0 + 1e-12)
    # side flags the rare |x| = R exits; nearly all paths leave through |y| = 1
    assert side.mean() < 0.05


# Literal outputs of the walk-on-spheres kernel at one worker; every worker
# count must reproduce them bit for bit.
@pytest.mark.parametrize(
    "p, R, seed, workers, want",
    [
        (2.0, 6.0, 41, 1, (1.0247054922384427, 0.010247358571357688, 0.99965, 9.352623257089143e-05)),
        (2.0, 20.0, 13, 2, (0.985303500076057, 0.009835281076311849, 1.0, 0.0)),
        (1.0, 6.0, 41, 3, (0.750825482289441, 0.0033947684451081, 0.99965, 9.352623257089143e-05)),
    ],
)
def test_harmonic_rectangle_is_pinned(p, R, seed, workers, want):
    rep = harmonic_rectangle_check(
        p, R, SimConfig(master_seed=seed, n_samples=40_000, workers=workers)
    )
    assert (rep["estimate"], rep["std_error"], rep["mu_v_ge_1"], rep["mu_std_error"]) == want


def test_jump_matches_cos_and_sin():
    # the walk's tan(pi u) form of the jump against numpy's cos and sin of
    # 2 pi u, on seeded u and the edge values; at u = 1/2, t ~ 1.6e16
    edges = [0.0, 0.25, 0.5, 0.75, 2.0**-53, 1 - 2.0**-53]
    rng = np.random.default_rng(22)
    u = np.concatenate([rng.random(100_000), edges])
    d = np.concatenate([rng.uniform(1e-6, 1.0, 100_000), np.ones(len(edges))])
    dx, dy = mc._jump(d, u)
    c, s = dx / d, dy / d
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    assert np.max(np.abs(c - np.cos(2 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(s - np.sin(2 * np.pi * u))) <= 1e-15
    assert np.max(np.abs(np.hypot(c, s) - 1.0)) <= 1e-15
    assert c[u == 0.5] == -1.0


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
        mc._strip_exits(start, cfg, r_bound)[:2]


@pytest.mark.parametrize("workers", [1, 2])
def test_strip_moments_share_one_sample(workers):
    cfg = SimConfig(master_seed=11, n_samples=40_000, workers=workers)
    both = strip_exit_moments((1.0, 2.0), (0.3, -0.2), cfg)
    assert both == [strip_exit_moment(p, (0.3, -0.2), cfg) for p in (1.0, 2.0)]
    # literal walk-on-spheres outputs at one worker
    assert [(e.mean, e.std_error, e.n, e.seed, e.walk_steps, e.censored) for e in both] == [
        (0.7704941763592001, 0.0034126902512307883, 40_000, 11, 845_094, 0),
        (1.0595078193825178, 0.010645764424664701, 40_000, 11, 845_094, 0),
    ]
    with pytest.raises(ValueError, match="exponent"):
        strip_exit_moments((), (0.0, 0.0), cfg)


@pytest.mark.parametrize("r_bound", [math.inf, 6.0])
def test_strip_exit_samples_match_across_workers(r_bound):
    # two chunks, so the pool really splits the work
    cfgs = (SimConfig(master_seed=4, n_samples=40_000, workers=w) for w in (1, 2))
    one, two = (mc._strip_exits((0.2, 0.1), cfg, r_bound)[:2] for cfg in cfgs)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])


def _within_p2_bias_bound(est):
    """x^2 - y^2 is harmonic and |Y| >= 1 - eps at the stop, so from the
    origin E X^2 lies in [(1 - eps)^2, 1]; checked within 4 sigma."""
    four = 4 * est.std_error
    return (1 - est.shell_eps) ** 2 - four <= est.mean <= 1 + four


def test_shell_bias_bound_at_p2(monkeypatch):
    est = strip_exit_moment(2.0, (0.0, 0.0), SimConfig(master_seed=21, n_samples=1 << 18))
    assert isinstance(est, ExitEstimate) and est.shell_eps == 1e-6
    assert _within_p2_bias_bound(est)
    assert est.censored == 0 and 15 * est.n < est.walk_steps < 30 * est.n
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
    xs, side, steps, censored = mc._strip_exits(
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
    g_star, g_fin, (f_pp,) = a
    assert np.all(g_star >= np.abs(g_fin) - 1e-15)
    assert np.all(g_star >= 1.0)  # |g_0| = 1
    assert f_pp >= 1.0  # f_pp = max(1, m_p)^N


def _enumerated_f_pp(seed_pair, p):
    """sup_{n<=N} E f_n^p by summing over the binomial count of up-steps,
    on the law replayed from the pair's first four draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    n_steps = int(rng.integers(5, 26))
    q = rng.uniform(0.2, 0.8)
    a = rng.uniform(0.2, 1.0)
    b = q * a / (1 - q)
    sigma = rng.uniform(0.1, 0.9) / max(a, b)
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
        _, _, f_pps = _pair_chunk((seed_pair, 10, ps))
        assert f_pps[0] == 1.0  # E f_n^p <= 1 for p < 1, and E f_0^p = 1
        for p, f_pp in zip(ps, f_pps):
            assert f_pp == pytest.approx(_enumerated_f_pp(seed_pair, p), rel=1e-12, abs=0)


def _plain_pair(seed_pair, n_paths, q_shift=0.0):
    """The pair's law read path by path with np.where: g_0's sign and each
    step's v from a word's top bit (set: -1), and f's step from the word's
    low 53 bits as the uniform u = w 2^-53, a if u < q and -b if not.
    q_shift moves the step threshold; returns g* and |g| at the final time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    n_steps = int(rng.integers(5, 26))
    q = rng.uniform(0.2, 0.8)
    a = rng.uniform(0.2, 1.0)
    b = q * a / (1 - q)
    sigma = rng.uniform(0.1, 0.9) / max(a, b)
    words = rng.bit_generator.random_raw
    f = np.ones(n_paths)
    g = np.where(words(n_paths) >> 63 == 1, -1.0, 1.0)
    g_star = np.abs(g)
    for _ in range(n_steps):
        w = words(n_paths)
        v = np.where(w >> 63 == 1, -1.0, 1.0)
        u = (w & (2**53 - 1)) * 2.0**-53
        df = f * sigma * np.where(u < q + q_shift, a, -b)
        f = f + df
        g = g + v * df
        g_star = np.maximum(g_star, np.abs(g))
    return g_star, np.abs(g)


@pytest.mark.parametrize("j", range(8))
def test_pair_chunk_is_the_plain_reading_of_its_law(j):
    seed_pair = (5, 10_000 + j)
    n_paths = 1 + 997 * j
    g_star, g_fin, _ = _pair_chunk((seed_pair, n_paths, (3.0,)))
    want_star, want_fin = _plain_pair(seed_pair, n_paths)
    assert np.array_equal(g_star, want_star) and np.array_equal(g_fin, want_fin)


_LAW_PAIRS = [(25, 10_000 + j) for j in range(8)]


def _g_second_moment_z(g_fin, f_22):
    """z of the sample mean of |g_N|^2 against ||f||_2^2 = E|g_N|^2."""
    x = g_fin**2
    return (x.mean() - f_22) / (x.std(ddof=1) / math.sqrt(x.size))


def test_pair_chunk_g_second_moment_is_f_norm():
    # |dg| = |df| and v is a fair sign independent of the past, so the cross
    # terms vanish and E|g_N|^2 = 1 + sum E df_k^2 = E f_N^2 = m_2^N, the
    # p = 2 value _pair_chunk returns (m_2 >= 1)
    zs = []
    for seed_pair in _LAW_PAIRS:
        _, g_fin, (f_22,) = _pair_chunk((seed_pair, 100_000, (2.0,)))
        zs.append(_g_second_moment_z(g_fin, f_22))
    assert max(map(abs, zs)) <= 4.0, zs


def test_g_second_moment_sees_a_moved_step_threshold():
    # the same law with f's threshold moved from q to q + 0.02: f drifts and
    # the gate of test_pair_chunk_g_second_moment_is_f_norm fails
    zs = []
    for seed_pair in _LAW_PAIRS:
        _, _, (f_22,) = _pair_chunk((seed_pair, 10, (2.0,)))
        g_fin = _plain_pair(seed_pair, 100_000, q_shift=0.02)[1]
        zs.append(_g_second_moment_z(g_fin, f_22))
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


# Reports of the one-word-per-step kernel at one worker.  The p = 3 entries
# divide by the exact ||f||_p^p of each pair's step law; at p < 1 that is 1.
# The kernel's bit-for-bit guard is test_pair_chunk_is_the_plain_reading_of_its_law.
_PAIRS_PINNED = {
    (7, 0.5): dict(estimate=0.9815637418878093, std_error=0.0, ratio_excess=-0.3059296219442881,
                   worst_lambda=0.9634673793887978, worst_fixed_time_ratio=0.7071656032048559,
                   margin_sigma=-50.177925442604966),
    (7, 3.0): dict(estimate=0.6064349587679502, std_error=0.005824028718118872,
                   ratio_excess=-0.6406311355449186, worst_lambda=1.0986918263556014,
                   worst_fixed_time_ratio=0.33683913007542204, margin_sigma=-31.21669146253835),
    (8, 0.5): dict(estimate=0.9945684039719729, std_error=0.0, ratio_excess=-0.2967339371975364,
                   worst_lambda=0.9891663101793574, worst_fixed_time_ratio=0.7389275306443731,
                   margin_sigma=-50.20739547660305),
    (8, 3.0): dict(estimate=0.4092575748931832, std_error=0.008955758121045002,
                   ratio_excess=-0.7574769926558915, worst_lambda=1.4855966694416145,
                   worst_fixed_time_ratio=0.2386431333188405, margin_sigma=-26.541190582675615),
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
    rows = [_lambda_scan(np.sort(g), grid, 1.0, p, bound) for g in (a, b)]
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
    # P = 1/2 in both rows.  At lambda = 1e-10, lambda^3 / f_pp underflows:
    # the error bar is 0 and (ratio - bound) / 0 is -inf.  At lambda = 1/2
    # the error bar is ~4e-152 and the bound 1e200: the quotient overflows
    # to -inf.  Neither warns.
    g = np.array([0.0, 1.0])
    ratio, se, margin = _lambda_scan(g, np.array([1e-10]), 1e308, 3.0, 1.5)
    assert (ratio[0], se[0], margin[0]) == (0.0, 0.0, -math.inf)
    ratio, se, margin = _lambda_scan(g, np.array([0.5]), 1e150, 3.0, 1e200)
    assert se[0] > 0 and margin[0] == -math.inf


def test_pairs_verdict_fails_an_errorless_row_above_the_bound():
    ratio = np.array([0.5, 2.0])
    margin = np.array([-10.0, np.nan])  # second row: P = 1, no binomial error
    assert not _weak_type_verdict(ratio, margin, 1.5)["passed"]
    assert _weak_type_verdict(ratio, margin, 2.0)["passed"]


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
