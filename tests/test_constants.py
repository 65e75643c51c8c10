"""Tests for the sharp-constant formulas.

Oracle values are computed by an independent brute-force summation of the
alternating odd-power series (pairwise-grouped, 10^7 terms) and frozen
below; the library must agree to tight tolerances.  A second oracle takes
the Dirichlet beta from two Hurwitz zeta values in scipy.
"""

import math

import numpy as np
import pytest

from sharpmart.constants import (
    _dirichlet_beta,
    kp,
    reference_constants,
    strong_constant_nonneg,
    weak_constant_nonneg,
    weak_constant_pth_power,
)


def brute_alternating_sum(s: float, n_terms: int = 10_000_000) -> float:
    """Sum_{k} (-1)^k (2k+1)^{-s} by direct pairwise summation."""
    k = np.arange(0, n_terms, 2, dtype=float)
    terms = (2 * k + 1) ** (-s) - (2 * k + 3) ** (-s)
    return float(np.sum(terms[::-1]))


def brute_kp(p: float, beta=brute_alternating_sum) -> float:
    num = (1 / math.gamma(p + 1)) * (math.pi / 2) ** (p - 1) * math.pi**2 / 8
    return (num / beta(p + 1)) ** (1 / p)


def zeta_beta(s: float) -> float:
    """The Dirichlet beta from two Hurwitz zeta values (DLMF 25.11):
    4^{-s} (zeta(s, 1/4) - zeta(s, 3/4))."""
    from scipy.special import zeta

    return float(4.0**-s * (zeta(s, 0.25) - zeta(s, 0.75)))


# frozen oracle values (brute_kp with 1e7 terms)
KP_ORACLE = {
    1.0: 1.3468852519994083,
    1.25: 1.2372563493782920,
    1.5: 1.1455836765584817,
    1.75: 1.0674987385874801,
    2.0: 0.9999999999999998,
}


class TestKp:
    def test_k2_is_one(self):
        assert abs(kp(2.0).value - 1.0) < 1e-15

    def test_denominator_closed_form_at_two(self):
        # the cubed-odd alternating series sums to pi^3/32
        assert abs(_dirichlet_beta(3.0) - math.pi**3 / 32) < 1e-15

    def test_catalan_constant_at_one(self):
        assert abs(_dirichlet_beta(2.0) - 0.9159655941772190) < 1e-15

    def test_matches_zeta_route(self):
        for p in np.linspace(1.0, 2.0, 201):
            want = brute_kp(p, beta=zeta_beta)
            assert abs(kp(p).value / want - 1) < 1e-15, p

    @pytest.mark.parametrize("p", sorted(KP_ORACLE))
    def test_matches_frozen_brute_oracle(self, p):
        assert abs(kp(p).value - KP_ORACLE[p]) < 1e-13

    def test_oracle_reproducible_live(self):
        # regenerate one oracle entry at full 1e7-term length
        assert abs(brute_kp(1.0) - KP_ORACLE[1.0]) < 1e-12

    def test_monotone_decreasing_on_range(self):
        ps = np.linspace(1.0, 2.0, 21)
        vals = [kp(p).value for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_plain_floats(self):
        for p in (1, 1.5, np.float64(2.0)):
            c = kp(p)
            assert type(c.p) is float and type(c.value) is float
            assert c.series_terms_used == 22

    @pytest.mark.parametrize("p", [0.5, 0.99, 2.01, -1.0])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            kp(p)


class TestWeakConstants:
    def test_flat_two_below_one(self):
        for p in (0.1, 0.5, 0.9):
            assert weak_constant_nonneg(p).value == 2.0

    def test_super_two_formula(self):
        c = weak_constant_nonneg(3.0)
        assert c.value == pytest.approx(1.5 * 2 ** (-1 / 3), rel=1e-14)

    def test_gap_region_rejected(self):
        for p in (1.0, 1.5, 1.99):
            with pytest.raises(ValueError):
                weak_constant_nonneg(p)

    def test_pth_power_value(self):
        assert weak_constant_pth_power(3.0) == pytest.approx(27 / 16, rel=1e-14)
        assert weak_constant_pth_power(3.0) == pytest.approx(
            weak_constant_nonneg(3.0).value ** 3, rel=1e-12
        )

    def test_continuity_at_two(self):
        assert weak_constant_nonneg(2.0).value == pytest.approx(1.0, abs=1e-14)


class TestStrongConstants:
    def test_branches_agree_at_two(self):
        assert strong_constant_nonneg(2.0).value == pytest.approx(1.0, abs=1e-14)

    def test_values(self):
        assert strong_constant_nonneg(1.5).value == pytest.approx(2.0, rel=1e-14)
        assert strong_constant_nonneg(3.0).value == pytest.approx(3.0 ** (1 / 3), rel=1e-14)

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            strong_constant_nonneg(1.0)


class TestReference:
    def test_p3_set(self):
        names = {c.name: c.value for c in reference_constants(3.0)}
        assert names["strong_type_general"] == pytest.approx(2.0)  # p* - 1
        assert names["weak_type_signed"] == pytest.approx((9 / 2) ** (1 / 3), rel=1e-12)
        # at p = 200, p^(p-1) overflows a float but the constant is about 194
        names = {c.name: c.value for c in reference_constants(200.0)}
        assert names["strong_type_general"] == 199.0
        want = math.exp((199 * math.log(200) - math.log(2)) / 200)
        assert names["weak_type_signed"] == pytest.approx(want, rel=1e-13)

    def test_p15_includes_general_weak(self):
        names = {c.name: c.value for c in reference_constants(1.5)}
        assert names["weak_type_general"] == pytest.approx(2 / math.gamma(2.5), rel=1e-12)

    def test_p_star(self):
        # strong_type_general is p* - 1 with p* = max(p, p/(p-1))
        for p in (1.5, 3.0):
            names = {c.name: c.value for c in reference_constants(p)}
            assert names["strong_type_general"] == 2.0


class TestDomain:
    def test_invalid(self):
        fns = (kp, weak_constant_nonneg, weak_constant_pth_power,
               strong_constant_nonneg, reference_constants)
        for fn in fns:
            for p in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    fn(p)
