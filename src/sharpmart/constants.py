"""Sharp constants of the weak-type inequalities, computed from their
defining formulas.

Every exponent is a plain float, and every value but K_p is in closed
form.  K_p needs the Dirichlet beta function at one point, summed from its
alternating series by the convergence acceleration of Cohen, Rodriguez
Villegas and Zagier (2000, Exp. Math. 9, Algorithm 1) in `_BETA_TERMS`
terms of standard-library `math`; no scipy module is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SharpConstant",
    "kp",
    "weak_constant_nonneg",
    "weak_constant_pth_power",
    "strong_constant_nonneg",
    "reference_constants",
]

ODD_SQUARE_SUM = math.pi**2 / 8  # sum over odd n of 1/n^2


def _exponent(p) -> float:
    """p as a float, or ValueError unless it is a positive finite real."""
    p = float(p)
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"exponent must be a positive finite real, got {p}")
    return p


@dataclass(frozen=True)
class SharpConstant:
    value: float
    name: str
    p: float
    # terms of the series summed for the value: _BETA_TERMS for K_p, 0 for
    # the closed forms
    series_terms_used: int = 0

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"constant {self.name} must be finite positive")


# (2k+1)^{-s} is totally monotone in k, so the accelerated n-term sum errs
# by at most 2 (3 + sqrt 8)^{-n} of the series' value: n = 22 puts that
# below the unit roundoff 2^{-53}
_BETA_TERMS = math.ceil(54 * math.log(2) / math.log(3 + math.sqrt(8)))


def _dirichlet_beta(s: float) -> float:
    """sum_{k>=0} (-1)^k (2k+1)^{-s}, accelerated (Cohen, Rodriguez
    Villegas and Zagier 2000, Algorithm 1)."""
    n = _BETA_TERMS
    d = (3 + math.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b, c, total = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        total += c * (2 * k + 1) ** -s
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return total / d


def kp(p) -> SharpConstant:
    """Sharp weak-type constant for orthogonal pairs, 1 <= p <= 2.

    K_p^p = (1/Gamma(p+1)) (pi/2)^{p-1} * (pi^2/8) / beta(p+1), where
    beta is the Dirichlet beta function.
    """
    p = _exponent(p)
    if not 1 <= p <= 2:
        raise ValueError(f"kp requires 1 <= p <= 2, got {p}")
    beta = _dirichlet_beta(p + 1)
    kpp = (1.0 / math.gamma(p + 1)) * (math.pi / 2) ** (p - 1) * ODD_SQUARE_SUM / beta
    return SharpConstant(kpp ** (1.0 / p), "orthogonal_weak_type", p, _BETA_TERMS)


def weak_constant_nonneg(p) -> SharpConstant:
    """Sharp weak-type constant when the dominating martingale is >= 0.

    Equals 2 for 0 < p < 1 and (p/2)(p-1)^{-1/p} for p >= 2; undefined in
    between.
    """
    p = _exponent(p)
    if p < 1:
        return SharpConstant(2.0, "nonneg_weak_type", p)
    if p >= 2:
        return SharpConstant((p / 2) * (p - 1) ** (-1.0 / p), "nonneg_weak_type", p)
    raise ValueError(f"no sharp non-negative weak constant for 1 <= p < 2 (got p={p})")


def weak_constant_pth_power(p) -> float:
    """p^p / (2^p (p-1)), the non-negative weak-type constant raised to p."""
    p = _exponent(p)
    if p < 2:
        raise ValueError(f"requires p >= 2, got {p}")
    return p**p / (2**p * (p - 1))


def strong_constant_nonneg(p) -> SharpConstant:
    """Sharp strong-type constant for a non-negative dominating martingale.

    1/(p-1) for 1 < p <= 2 and [p(p-1)/2]^{1/p} for p > 2; the two branches
    agree at p = 2 and the first one is returned there.
    """
    p = _exponent(p)
    if not p > 1:
        raise ValueError(f"requires 1 < p, got {p}")
    value = 1.0 / (p - 1) if p <= 2 else (p * (p - 1) / 2) ** (1.0 / p)
    return SharpConstant(value, "nonneg_strong_type", p)


def reference_constants(p) -> list[SharpConstant]:
    """All constants from the classical comparison theorems valid at p."""
    p = _exponent(p)
    out: list[SharpConstant] = []
    if 1 <= p <= 2:
        out.append(SharpConstant(2.0 / math.gamma(p + 1), "weak_type_general", p))
    if p > 1:
        p_star = max(p, p / (p - 1))
        out.append(SharpConstant(p_star - 1, "strong_type_general", p))
        out.append(strong_constant_nonneg(p))
    if p >= 2:
        value = p ** ((p - 1) / p) / 2 ** (1.0 / p)
        out.append(SharpConstant(value, "weak_type_signed", p))
    return out
