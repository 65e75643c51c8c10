"""The increasing solution G of the Riccati-type ODE and its inverse h.

G solves  G'(t) = (p/2)^{p+1} t^{p-2} (t + 1 - G(t))^2  with G(2/p) = 1,
G'(2/p) = p/2.  Two independent constructions are compared: the gap
u = t + 1 - G in numpy (a Magnus scan of the linearized equation, then G's
own outer series) and a closed form obtained by linearizing the Riccati
equation into a modified-Bessel equation, whose solution enters only as a ratio of the
exponentially scaled I_nu and K_nu, evaluated in numpy (a power series and
trapezoid sums of their integrals), and so is computed in double precision.  Both tables keep u, and G' and h' = 1/G'(h)
are read from it as (p/2)^{p+1} t^{p-2} u^2.  The inverse h is read from the
same table taken the other way, then polished by two Newton steps on the
cubic of G on the table interval that holds each s.

Run:  python3 demos/02_ode_and_inverse.py
"""

import numpy as np

from sharpmart import build_g_bessel, build_g_rk, h_of, h_prime

for p in (2.5, 3.0, 4.0, 6.0):
    rk = build_g_rk(p)
    bes = build_g_bessel(p)
    t = np.linspace(2 / p, min(rk.t_max, bes.t_max), 4000)
    gap = np.max(np.abs(rk.g(t) - bes.g(t)))
    print(f"p = {p:3.1f}: sup |G_rk - G_bessel| on [2/p, {t[-1]:.0f}] = {gap:.2e}, "
          f"min G' = {np.min(rk.gprime(t)):.6f} (>= 1)")

p = 3.0
rk = build_g_rk(p)
print(f"\nInverse h for p = {p}: h(1) = {h_of(rk, 1.0):.6f} = 2/p, "
      f"defined up to s_max = {rk.s_max:.3f}")
s = np.linspace(1.01, rk.s_max - 0.01, 5)
for si in s:
    print(f"  s = {si:6.3f}   h(s) = {h_of(rk, si):8.5f}   h'(s) = {h_prime(rk, si):7.5f} (<= 1)")
print("G(h(s)) = s residual:",
      float(np.max(np.abs(rk.g(h_of(rk, s)) - s))))
