"""Every named verification suite must pass at a fixed seed."""

import numpy as np
import pytest

from sharpmart import uweak
from sharpmart.verify import SUITES, _sample_strip, run_suite

# smaller sample sizes than the suite defaults: this file checks wiring and
# that the properties hold, not tight statistical power
SUITE_KWARGS = {
    "w": {"n": 5_000},
    "u-weak": {"n": 5_000},
    "u-orth": {"n": 20},
    "ode": {},
    "extremal": {},
    "mc-weak-type": {"n": 2_000},
    "mc-strip": {"n": 50_000},
    "harmonic": {"n": 30_000},
}


def test_registry_is_complete():
    assert set(SUITES) == set(SUITE_KWARGS)


@pytest.mark.parametrize("name", sorted(SUITE_KWARGS))
def test_suite_passes(name):
    ok, report = run_suite(name, **SUITE_KWARGS[name])
    assert ok, report
    assert isinstance(report, dict)


def test_unknown_suite_raises():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", ["w", "u-weak", "mc-strip"])
def test_suite_refuses_an_empty_sample(name):
    with pytest.raises(ValueError, match="n must be at least 1"):
        run_suite(name, n=0)


@pytest.mark.parametrize("name", ["w", "u-weak", "u-orth", "ode", "extremal", "mc-strip"])
def test_suite_refuses_no_workers(name):
    # most suites run no pool, so they would pass on 0 workers unasked
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_suite(name, workers=0)


def test_suite_accepts_p_override():
    ok, report = run_suite("ode", p=4.0)
    assert ok, report
    assert report["p"] == 4.0


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_mc_strip_rejects_p_without_a_bound(p):
    with pytest.raises(ValueError, match="1 <= p <= 2"):
        run_suite("mc-strip", p=p, n=10)


def test_ode_residual_is_measured():
    # the residual is a finite difference of the Bessel closed form: small,
    # never exactly 0
    ok, report = run_suite("ode", p=3.0)
    assert ok, report
    assert 0 < report["ode_residual_max"] < 1e-8


def test_ode_slopes_at_p10():
    # G' and h' come from the gap u, not from t + 1 - G (which read
    # gprime_min 0.9999996 here)
    _, report = run_suite("ode", p=10.0)
    assert report["gprime_min"] >= 1
    assert report["h_prime_max"] <= 1 + 1e-9


@pytest.mark.parametrize(
    "name, p", [("ode", 8.0), ("ode", 10.0), ("u-weak", 8.0), ("u-weak", 10.0)],
    ids=["ode", "ode-p10", "u-weak", "u-weak-p10"],
)
def test_large_exponent(name, p):
    # at p = 8 and 10 the gap t + 1 - G falls to 2e-6 and 1e-8, and the ODE
    # for G is stiff; at p = 10 |U| reaches 1e9 on the D5/D6 edge, where the
    # boundary gap is rounding only relative to |U|
    ok, report = run_suite(name, p=p, n=20_000)
    assert ok, report


@pytest.mark.parametrize("p", [2.05, 2.5, 4.0, 6.0, 7.1, 9.6, 10.8, 10.9, 12.0, 16.0, 40.0])
def test_extremal_at_any_p_above_two(p):
    # the ratio is 1e2 at p = 6 and 3e5 at p = 9.6, where an absolute 1e-12
    # gap is rounding; a fixed delta hint of 1.5 gave a step weight q <= 0
    # at p = 10.8 and from p = 11.7
    ok, report = run_suite("extremal", p=p)
    assert ok, report
    assert report["primed_ratio_over_constant"] < 1


def _u_weak_by_public_checks(p, seed, n):
    """`verify u-weak` composed of the public checks, each of which
    classifies the sample again: the oracle of the one-classification suite."""
    ctx = uweak.build_context(p)
    rng = np.random.default_rng(seed)
    report = {"suite": "u-weak", "p": p, "n": n}
    gaps, scaled = [], []
    for ra, rb, bx, by in uweak.REGION_BOUNDARIES(ctx, max(200, n // 50)):
        va = uweak.u_branch(ctx, ra, bx, by)
        vb = uweak.u_branch(ctx, rb, bx, by)
        gap = np.abs(va - vb)
        gaps.append(float(np.max(gap)))
        scaled.append(float(np.max(gap / np.maximum(1, np.maximum(np.abs(va), np.abs(vb))))))
    report["boundary_gap_max"] = max(gaps)
    report["boundary_gap_scaled_max"] = max(scaled)

    x, y = _sample_strip(rng, n, x_hi=1.8)
    h = rng.uniform(-1.0, 1.0, n)
    h = np.maximum(h, -x)
    k = h * rng.uniform(-1.0, 1.0, n)
    report["tangent_ok"] = bool(np.all(uweak.tangent_check(ctx, x, y, h, k)))

    inter = uweak.is_interior(ctx, x, y)
    xi, yi = x[inter], y[inter]
    uxx, uxy, uyy = uweak.u_second_derivs(ctx, xi, yi)
    hh = rng.uniform(-1.0, 1.0, xi.size)
    kk = hh * rng.uniform(-1.0, 1.0, xi.size)
    form = uxx * hh**2 + 2 * uxy * hh * kk + uyy * kk**2
    report["hessian_form_max"] = float(np.max(form))

    report["majorization_ok"] = bool(np.all(uweak.majorization_check(ctx, x, y)))
    xd = rng.uniform(0.0, 0.99, n // 10)
    diag = uweak.u_value(ctx, xd, xd)
    report["diagonal_nonpos_max"] = float(np.max(diag))
    phi, psi = uweak.u_gradient_ext(ctx, x, np.abs(y))
    report["u_y_min_upper_half"] = float(np.min(psi))
    return report


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 10.0])
def test_u_weak_matches_the_public_checks(p, seed):
    # one classification of the sample gives the very numbers the public
    # checks give, each classifying it again
    ok, report = run_suite("u-weak", p=p, seed=seed, n=5_000)
    assert ok, report
    assert 0 < report.pop("n_interior") <= 5_000
    assert report == _u_weak_by_public_checks(p, seed, 5_000)


def test_u_weak_classifies_its_sample_once(monkeypatch):
    # the sample once, the four interior moves, the shifted points of the
    # tangent check and the diagonal: seven classifications
    seen = []
    regions = uweak._regions
    monkeypatch.setattr(
        uweak, "_regions", lambda ctx, x, Y: seen.append((x.copy(), Y.copy())) or regions(ctx, x, Y)
    )
    ok, _ = run_suite("u-weak", p=3.0, seed=0, n=2_000)
    assert ok
    x, y = _sample_strip(np.random.default_rng(0), 2_000, x_hi=1.8)
    assert sum(np.array_equal(sx, x) and np.array_equal(sY, np.abs(y)) for sx, sY in seen) == 1
    assert len(seen) == 7
