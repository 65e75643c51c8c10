"""The three special functions behind the weak-type bounds.

* W: the quadratic-capped function for the p < 1 bound with constant 2.
* U (ladder regions): the p > 2 function, piecewise over regions D0-D7.
* U (orthogonal): for 1 <= p <= 2, the harmonic extension of |t|^p from the
  strip's edges, one quadrature against the strip's Poisson kernel.

Run:  python3 demos/03_special_functions.py
"""

import numpy as np

from sharpmart import (
    OrthContext,
    build_context,
    classify,
    kp,
    u_orth,
    u_value,
    w_gradient_ext,
    w_value,
)
from sharpmart.uweak import REGION_BOUNDARIES, u_branch

print("W is 2x - x^2 + y^2 inside x + |y| <= 1 and 1 outside:")
for pt in ((0.0, 0.0), (0.25, 0.25), (1.0, 0.0), (2.0, 0.5)):
    print(f"  W{pt} = {w_value(*pt):.4f}   grad = {w_gradient_ext(*pt)}")

p = 3.0
ctx = build_context(p)
print(f"\nRegion classification for p = {p} (first matching region wins):")
pts = [(0.1, 0.95), (0.05, 0.12), (0.3, 0.5), (0.2, 0.9), (1.5, 0.2), (0.9, 0.6)]
labels = classify(ctx, *np.transpose(pts))
for pt, lab in zip(pts, labels):
    print(f"  {pt} -> D{lab},  U = {u_value(ctx, *pt):+.6f}")

print("\nThe branches glue continuously across every region boundary:")
worst = 0.0
for ra, rb, bx, by in REGION_BOUNDARIES(ctx, 500):
    gap = float(np.max(np.abs(u_branch(ctx, ra, bx, by) - u_branch(ctx, rb, bx, by))))
    worst = max(worst, gap)
    print(f"  D{ra}/D{rb}: max gap {gap:.2e}")
print(f"  worst: {worst:.2e}")

print("\nOrthogonal-case function: value at the origin is exactly K_p^{-p}:")
for p in (1.0, 1.5, 2.0):
    octx = OrthContext(p)
    val = u_orth(octx, 0.0, 0.0)
    print(f"  p = {p:4.2f}: U(0,0) * K_p^p = {val * kp(p).value ** p:.12f}")
octx = OrthContext(2.0)
print("  p = 2 closed form x^2 + 1 - y^2 at (0.4, 0.3):",
      f"{u_orth(octx, 0.4, 0.3):.9f} vs {0.4 ** 2 + 1 - 0.3 ** 2:.9f}")
