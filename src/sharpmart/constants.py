"""Sharp constants of the weak-type inequalities, computed from their
defining formulas.

All values are plain floats; the alternating odd-denominator series is
summed with an a-priori truncation bound, so every returned constant
carries the number of series terms it consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Regime",
    "Exponent",
    "SharpConstant",
    "odd_zeta_alternating",
    "kp",
    "weak_constant_nonneg",
    "weak_constant_pth_power",
    "strong_constant_nonneg",
    "reference_constants",
]

ODD_SQUARE_SUM = math.pi**2 / 8  # sum over odd n of 1/n^2


class Regime(Enum):
    SUB_ONE = "sub_one"        # 0 < p < 1
    ORTH_RANGE = "orth_range"  # 1 <= p <= 2
    SUPER_TWO = "super_two"    # p > 2


def natural_regime(p: float) -> Regime:
    if p < 1:
        return Regime.SUB_ONE
    if p <= 2:
        return Regime.ORTH_RANGE
    return Regime.SUPER_TWO


@dataclass(frozen=True)
class Exponent:
    p: float
    regime: Regime | None = None

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"exponent must be a positive finite real, got {self.p}")
        if self.regime is None:
            object.__setattr__(self, "regime", natural_regime(self.p))
        elif self.regime is not natural_regime(self.p):
            raise ValueError(f"regime {self.regime} inconsistent with p={self.p}")

    @property
    def p_star(self) -> float:
        if not self.p > 1:
            raise ValueError("p* is defined for p > 1 only")
        return max(self.p, self.p / (self.p - 1))


def as_exponent(p) -> Exponent:
    return p if isinstance(p, Exponent) else Exponent(float(p))


@dataclass(frozen=True)
class SharpConstant:
    value: float
    name: str
    p: Exponent
    series_terms_used: int = 0

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"constant {self.name} must be finite positive")
        if self.series_terms_used < 0:
            raise ValueError("series_terms_used must be >= 0")


def odd_zeta_alternating(s: float, tol: float = 1e-12) -> tuple[float, int]:
    """sum_{k>=0} (-1)^k (2k+1)^{-s}, truncated once the next term < tol.

    Consecutive terms are paired before accumulation, so the partial sums
    are monotone and the alternating-series remainder bound applies.
    Returns (value, number_of_terms_used).
    """
    if s <= 1:
        raise ValueError(f"series requires s > 1, got {s}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = 0.0
    k0 = 0
    chunk = 1 << 16
    while True:
        k = np.arange(k0, k0 + chunk, dtype=np.float64)
        pos = (4 * k + 1) ** (-s)
        neg = (4 * k + 3) ** (-s)
        total += float(np.sum(pos - neg))
        n_terms = 2 * (k0 + chunk)
        if (2 * n_terms + 1.0) ** (-s) < tol:
            return total, n_terms
        k0 += chunk


def kp(p, tol: float = 1e-12) -> SharpConstant:
    """Sharp weak-type constant for orthogonal pairs, 1 <= p <= 2.

    K_p^p = (1/Gamma(p+1)) (pi/2)^{p-1} * (pi^2/8) / beta(p+1), where
    beta(s) is the alternating odd-denominator series.  The numerator is
    summed in closed form, the denominator by truncation below tol.
    """
    exp = as_exponent(p)
    if not (1 <= exp.p <= 2):
        raise ValueError(f"kp requires 1 <= p <= 2, got {exp.p}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    denom, n_terms = odd_zeta_alternating(exp.p + 1, tol=tol)
    kpp = (1.0 / math.gamma(exp.p + 1)) * (math.pi / 2) ** (exp.p - 1) * ODD_SQUARE_SUM / denom
    return SharpConstant(kpp ** (1.0 / exp.p), "orthogonal_weak_type", exp, n_terms)


def weak_constant_nonneg(p) -> SharpConstant:
    """Sharp weak-type constant when the dominating martingale is >= 0.

    Equals 2 for 0 < p < 1 and (p/2)(p-1)^{-1/p} for p >= 2; undefined in
    between.
    """
    exp = as_exponent(p)
    if exp.p < 1:
        return SharpConstant(2.0, "nonneg_weak_type", exp)
    if exp.p >= 2:
        value = (exp.p / 2) * (exp.p - 1) ** (-1.0 / exp.p)
        return SharpConstant(value, "nonneg_weak_type", exp)
    raise ValueError(f"no sharp non-negative weak constant for 1 <= p < 2 (got p={exp.p})")


def weak_constant_pth_power(p) -> float:
    """p^p / (2^p (p-1)), the non-negative weak-type constant raised to p."""
    exp = as_exponent(p)
    if exp.p < 2:
        raise ValueError(f"requires p >= 2, got {exp.p}")
    return exp.p**exp.p / (2**exp.p * (exp.p - 1))


def strong_constant_nonneg(p) -> SharpConstant:
    """Sharp strong-type constant for a non-negative dominating martingale.

    1/(p-1) for 1 < p <= 2 and [p(p-1)/2]^{1/p} for p > 2; the two branches
    agree at p = 2 and the first one is returned there.
    """
    exp = as_exponent(p)
    if not exp.p > 1:
        raise ValueError(f"requires 1 < p, got {exp.p}")
    low = 1.0 / (exp.p - 1) if exp.p <= 2 else None
    high = (exp.p * (exp.p - 1) / 2) ** (1.0 / exp.p) if exp.p >= 2 else None
    if exp.p == 2:
        assert abs(low - high) < 1e-14
        return SharpConstant(low, "nonneg_strong_type", exp)
    value = low if low is not None else high
    return SharpConstant(value, "nonneg_strong_type", exp)


def reference_constants(p) -> list[SharpConstant]:
    """All constants from the classical comparison theorems valid at p."""
    exp = as_exponent(p)
    out: list[SharpConstant] = []
    if 1 <= exp.p <= 2:
        out.append(SharpConstant(2.0 / math.gamma(exp.p + 1), "weak_type_general", exp))
    if exp.p > 1:
        out.append(SharpConstant(exp.p_star - 1, "strong_type_general", exp))
        out.append(strong_constant_nonneg(exp))
    if exp.p >= 2:
        value = (exp.p ** (exp.p - 1) / 2) ** (1.0 / exp.p)
        out.append(SharpConstant(value, "weak_type_signed", exp))
    return out
