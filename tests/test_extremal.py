"""Tests for the exact extremal constructions.

The reference values for the ladder example are frozen from an exact
rational computation: for p = 3, x0 = 1/24, delta = 3/2 the step weight is
q = 3/10, the exit probability is 27/2000 and the final third moment is
89/10800 (sum of the shed-atom contributions 1/2160 + 1/900 + 1/375 plus
the top-atom contribution 1/250).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sharpmart.extremal import (
    AtomicMartingale,
    ExtremalParams,
    Step,
    build_p_lt1_example,
    build_section_example,
    evaluate_ratio,
    harmonic_1d_example,
    resolve_params,
    section_ratio,
)

FIG_PROB = Fraction(27, 2000)
FIG_MOMENT = Fraction(1, 2160) + Fraction(1, 900) + Fraction(1, 375) + Fraction(1, 250)


# ---------------------------------------------------------------- parameters


def test_resolve_params_figure_set():
    params = resolve_params(3.0, 1 / 24, 1.5)
    assert params.n_steps == 3
    assert params.delta == pytest.approx(1.5, abs=1e-14)


def test_resolve_params_rounds_step_count():
    # a hint far from any exact ladder still lands on the nearest count
    params = resolve_params(3.0, 0.01, 0.5)
    assert params.x0 * (1 + 2 * params.delta / 3) ** params.n_steps == pytest.approx(
        1 / 3, rel=1e-14
    )


@pytest.mark.parametrize(
    "p, x0, hint",
    [(2.0, 0.1, 1.0), (1.5, 0.1, 1.0), (3.0, 0.5, 1.0), (3.0, -0.1, 1.0), (3.0, 0.01, 0.0)],
)
def test_resolve_params_domain(p, x0, hint):
    with pytest.raises(ValueError):
        resolve_params(p, x0, hint)


def test_params_validate_ladder_identity():
    with pytest.raises(ValueError, match="ladder identity"):
        ExtremalParams(p=3.0, x0=1 / 24, delta=1.4, n_steps=3)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0])
@pytest.mark.parametrize("hint", [1e-4, 1e-5])
def test_fine_ladders_resolve(p, hint):
    # ~1e5-1e6 steps: (1 + 2 delta/p)^N would round by more than the 1e-12
    # the identity allows; a step size off by 1e-9 relative still fails it
    params = resolve_params(p, 1e-2, hint)
    assert params.delta == pytest.approx(hint, rel=0.05)
    with pytest.raises(ValueError, match="ladder identity"):
        ExtremalParams(p, 1e-2, params.delta * (1 + 1e-9), params.n_steps)


# ------------------------------------------------------------ atomic steps


def test_step_validation():
    with pytest.raises(ValueError):
        Step((0.1, 1.0), (1.0,))  # must start at 0
    with pytest.raises(ValueError):
        Step((0.0, 0.5), (1.0,))  # must end at 1
    with pytest.raises(ValueError):
        Step((0.0, 0.5, 0.4, 1.0), (1.0, 2.0, 3.0))  # must increase
    with pytest.raises(ValueError):
        Step((0.0, 1.0), (1.0, 2.0))  # one value per interval


def test_step_evaluation_and_moments():
    s = Step((0.0, 0.25, 1.0), (2.0, -1.0))
    assert s.at(0.1) == 2.0
    assert s.at(0.25) == 2.0  # intervals closed on the right
    assert s.at(0.26) == -1.0
    assert s.integral() == pytest.approx(0.25 * 2 - 0.75)
    assert s.abs_pth_moment(2.0) == pytest.approx(0.25 * 4 + 0.75)


def test_martingale_requires_nested_partitions():
    with pytest.raises(ValueError, match="nested"):
        AtomicMartingale(
            (
                Step((0.0, 0.5, 1.0), (1.0, 2.0)),
                Step((0.0, 0.4, 1.0), (1.0, 2.0)),
            )
        )


def test_nesting_is_exact_membership():
    # 0.5 and the next double above it are different bounds: the later
    # partition does not refine the earlier one, whatever rounding says
    above = float(np.nextafter(0.5, 1.0))
    with pytest.raises(ValueError, match="nested"):
        AtomicMartingale(
            (
                Step((0.0, 0.5, 1.0), (1.0, 2.0)),
                Step((0.0, above, 1.0), (1.0, 2.0)),
            )
        )


def test_weak_norm_with_ties_and_zero_atoms():
    # sup |X| is 2, 1, 1, 0 on four quarters: the tie at 1 must count its
    # whole mass 1/2 + 1/4, and the zero atom nothing
    g = AtomicMartingale(
        (
            Step((0.0, 1.0), (0.0,)),
            Step((0.0, 0.25, 0.5, 0.75, 1.0), (2.0, -1.0, -1.0, 0.0)),
        )
    )
    assert g.check_martingale()
    # max(2 * (1/4)^{1/p}, 1 * (3/4)^{1/p}), each exact in floats
    for p, expected in [(0.5, 0.5625), (1.0, 0.75), (2.0, 1.0)]:
        value = g.weak_pth_norm(p)
        assert type(value) is float
        assert value == expected


def _weak_norm_by_levels(m, p):
    """Reference: P(max_n |X_n| >= lambda) summed atom by atom at every level."""
    fine = m.final().bounds
    lens = np.diff(fine)
    sup = np.array([max(map(abs, m.path((a + b) / 2))) for a, b in zip(fine, fine[1:])])
    levels = [lam * lens[sup >= lam].sum() ** (1 / p) for lam in set(sup) if lam > 0]
    return max(levels, default=0.0)


def test_weak_norm_matches_level_by_level_reference():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 11)[1:-1]  # tenths: lengths do not sum exactly
    for _ in range(50):
        bounds, steps = {0.0, 1.0}, []
        for _ in range(rng.integers(1, 5)):
            bounds |= set(rng.choice(grid, size=rng.integers(0, 4), replace=False).tolist())
            b = tuple(sorted(bounds))
            steps.append(Step(b, tuple(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.5], len(b) - 1))))
        m = AtomicMartingale(tuple(steps))
        for p in [0.5, 1.0, 2.5]:
            assert m.weak_pth_norm(p) == pytest.approx(
                _weak_norm_by_levels(m, p), rel=16 * np.finfo(float).eps, abs=0.0
            )


def test_weak_norm_simple_case():
    # one fair coin: |g| = 1 a.s., so the weak norm is 1 for every p
    g = AtomicMartingale(
        (Step((0.0, 1.0), (0.0,)), Step((0.0, 0.5, 1.0), (1.0, -1.0)))
    )
    for p in [0.3, 1.0, 2.5]:
        assert g.weak_pth_norm(p) == pytest.approx(1.0, rel=1e-14)


# ------------------------------------------------------- ladder construction


@pytest.fixture(scope="module")
def figure_pair():
    params = resolve_params(3.0, 1 / 24, 1.5)
    X, Y = build_section_example(params)
    return params, X, Y


def test_section_example_is_martingale(figure_pair):
    _, X, Y = figure_pair
    assert X.check_martingale()
    assert Y.check_martingale()


def test_martingale_check_sees_one_perturbed_atom(figure_pair):
    # X's final step is a martingale step; moving any one nonzero value by
    # a relative 1e-9 breaks the conditional average of its coarse atom
    _, X, _ = figure_pair
    final = X.final()
    nonzero = [i for i, v in enumerate(final.values) if v != 0.0]
    assert len(nonzero) >= 4
    for i in nonzero:
        values = list(final.values)
        values[i] *= 1 + 1e-9
        moved = AtomicMartingale(X.steps[:-1] + (Step(final.bounds, tuple(values)),))
        assert not moved.check_martingale()


def test_section_example_subordination(figure_pair):
    """Y moves by exactly +/- the X increment on every atom, starts at
    (p-1) x0, and X stays nonnegative."""
    params, X, Y = figure_pair
    assert Y.steps[0].values[0] == pytest.approx((params.p - 1) * params.x0)
    mids = [(a + b) / 2 for a, b in zip(X.final().bounds, X.final().bounds[1:])]
    for m in mids:
        xs, ys = X.path(m), Y.path(m)
        assert min(xs) >= 0.0
        for dx, dy in zip(np.diff(xs), np.diff(ys)):
            assert abs(abs(dy) - abs(dx)) < 1e-14


def test_section_example_frozen_values(figure_pair):
    _, X, Y = figure_pair
    report = evaluate_ratio(X, Y, 3.0)
    assert report.prob == pytest.approx(float(FIG_PROB), rel=1e-13)
    assert report.moment == pytest.approx(float(FIG_MOMENT), rel=1e-13)
    assert report.ratio == pytest.approx(float(FIG_PROB / FIG_MOMENT), rel=1e-12)


def test_fast_ratio_matches_direct_evaluation(figure_pair):
    params, X, Y = figure_pair
    fast = section_ratio(params.p, params.x0, params.delta, params.n_steps)
    direct = evaluate_ratio(X, Y, params.p)
    assert fast.prob == pytest.approx(direct.prob, rel=1e-12)
    assert fast.moment == pytest.approx(direct.moment, rel=1e-12)
    assert fast.primed_ratio == pytest.approx(direct.primed_ratio, rel=1e-12)


def test_fast_ratio_matches_direct_other_parameters():
    for p, x0, hint in [(2.5, 0.05, 0.8), (4.0, 0.02, 0.3)]:
        params = resolve_params(p, x0, hint)
        X, Y = build_section_example(params)
        fast = section_ratio(p, params.x0, params.delta, params.n_steps)
        direct = evaluate_ratio(X, Y, p)
        assert fast.prob == pytest.approx(direct.prob, rel=1e-11)
        assert fast.moment == pytest.approx(direct.moment, rel=1e-11)


def test_primed_ratio_approaches_sharp_constant():
    """As the step size shrinks, the normalized ratio climbs to the sharp
    weak-type constant p^p / (2^p (p-1)) -- 27/16 at p = 3."""
    p, x0 = 3.0, 0.01
    target = 27 / 16
    prev = 0.0
    for hint in [1.0, 0.1, 1e-2, 1e-3]:
        params = resolve_params(p, x0, hint)
        r = section_ratio(p, x0, params.delta, params.n_steps).primed_ratio
        assert r < target  # approaches from below, never exceeds
        assert r > prev - 1e-12
        prev = r
    assert prev > 0.98 * target


# ------------------------------------------------------------ small exponents


def test_p_lt1_example_exact_identity():
    f, g, report = build_p_lt1_example()
    assert f.check_martingale()
    assert g.check_martingale()
    for p, row in report.items():
        assert 0 < p < 1
        assert row["identity_holds"]
        assert row["g_weak_norm"] == pytest.approx(1.0, rel=1e-14)
        assert row["f_strong_norm"] == pytest.approx(0.5, rel=1e-14)


def test_p_lt1_example_increment_subordination():
    f, g, _ = build_p_lt1_example()
    for m in [0.3, 0.9]:
        (df,) = np.diff(f.path(m))
        (dg,) = np.diff(g.path(m))
        assert abs(dg) == pytest.approx(abs(df), rel=1e-14)


# --------------------------------------------------------- harmonic example


def test_harmonic_example_full_measure_below_two():
    out = harmonic_1d_example(0.5, [0.5, 1.0, 1.5, 1.9])
    for row in out["rows"]:
        assert row["mu"] == pytest.approx(1.0, rel=1e-9)
        assert row["value"] == pytest.approx(row["lam"], rel=1e-9)
    assert out["strong_norm_u"] == 1.0


def test_harmonic_example_sup_approaches_two():
    lam = 2 - 1e-8
    for p in [0.2, 0.5, 0.8]:
        out = harmonic_1d_example(p, [lam])
        assert out["sup"] == pytest.approx(2.0, abs=1e-6)


def test_harmonic_example_domain_errors():
    with pytest.raises(ValueError):
        harmonic_1d_example(1.5, [1.0])
    with pytest.raises(ValueError):
        harmonic_1d_example(0.5, [2.0])
    with pytest.raises(ValueError):
        harmonic_1d_example(0.5, [0.0])
