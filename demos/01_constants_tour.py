"""Tour of the sharp constants across the three exponent regimes.

Run:  python3 demos/01_constants_tour.py
"""

from sharpmart import kp, reference_constants, strong_constant_nonneg, weak_constant_nonneg

print("Weak-type constant for the orthogonal range 1 <= p <= 2:")
print("  K_p = [ (1/Gamma(p+1)) (pi/2)^{p-1} (pi^2/8) / beta(p+1) ]^{1/p},")
print("  beta(s) = sum_k (-1)^k (2k+1)^{-s}, summed in "
      f"{kp(1.0).series_terms_used} terms by the Cohen-Rodriguez Villegas-Zagier acceleration")
for p in (1.0, 1.25, 1.5, 1.75, 2.0):
    c = kp(p)
    print(f"  p = {p:4.2f}   K_p = {c.value:.10f}")
print("  K_2 = 1 exactly: beta(3) = pi^3/32.\n")

print("Weak-type constant for a non-negative dominating martingale:")
for p in (0.25, 0.5, 0.75):
    print(f"  p = {p:4.2f}   constant = {weak_constant_nonneg(p).value}   (flat value 2 below p = 1)")
for p in (2.0, 3.0, 6.0):
    c = weak_constant_nonneg(p)
    print(f"  p = {p:4.2f}   constant = {c.value:.10f}   ((p/2)(p-1)^(-1/p))")
print("  No sharp constant exists for 1 <= p < 2 in this regime.\n")

print("Strong-type companions and classical reference constants at p = 3:")
print(f"  nonneg strong: {strong_constant_nonneg(3).value:.10f}")
for c in reference_constants(3.0):
    print(f"  {c.name:22s} {c.value:.10f}")
