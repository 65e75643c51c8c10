"""Seeded Monte Carlo verification of the inequalities.

Brownian exits from the strip |y| < 1 sampled by walk on spheres (no
time step), random dominated martingale pairs, and the rectangle check for
the harmonic-function analogue.  Every run is bit-reproducible from its
master seed, independent of the worker count.

Run:  python3 demos/05_monte_carlo.py     (about 2 seconds)
"""

from sharpmart import SimConfig, kp
from sharpmart.mc import (
    harmonic_rectangle_check,
    random_subordinate_pair_checks,
    strip_exit_moments,
)

cfg = SimConfig(master_seed=42, n_samples=200_000)

print("Strip exit moments E|B1_tau|^p from the origin:")
moments = dict(zip((1.0, 2.0), strip_exit_moments((1.0, 2.0), (0.0, 0.0), cfg)))
est = moments[2.0]
print(f"  p = 2: {est.mean:.5f} +- {est.std_error:.5f}   (exact 1, optional stopping)")
est = moments[1.0]
print(f"  p = 1: {est.mean:.5f} +- {est.std_error:.5f}   (exact 1/K_1 = {1 / kp(1).value:.5f})")

print("\nSharpness identity for the stopped orthogonal pair:")
for p, est in moments.items():
    kpp = kp(p).value ** p
    scaled = kpp * est.mean
    print(f"  p = {p:4.2f}: K_p^p E|M_tau|^p = {scaled:.5f} "
          f"({abs(scaled - 1) / (kpp * est.std_error):.2f} sigma from 1)")

print("\nRandom dominated pairs never beat the sharp weak-type constants:")
small = SimConfig(master_seed=5, n_samples=10_000)
for r in random_subordinate_pair_checks((0.5, 3.0), small, n_pairs=100):
    print(f"  p = {r['p']}: worst empirical ratio {r['estimate']:.4f} "
          f"vs bound {r['bound']:.4f} (passed: {r['passed']})")

print("\nRectangle check for the harmonic pair u = x, v = y (R = 20):")
r = harmonic_rectangle_check(2.0, 20.0, SimConfig(13, 100_000))
print(f"  moment {r['estimate']:.5f} vs strip value {r['bound']:.5f} "
      f"({r['margin_sigma']:.2f} sigma); top/bottom exit fraction {r['mu_v_ge_1']:.4f}")
