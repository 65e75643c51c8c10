"""Every named verification suite must pass at a fixed seed."""

import pytest

from sharpmart.verify import SUITES, run_suite

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
