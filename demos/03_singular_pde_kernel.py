"""The bivariate kernel of the quantized canonical transform.

psi(z, x) = sum a_n(z) x^n solves a PDE that is singular along x = 0, so
its coefficient recursion is an honest derivation target rather than a
Cauchy-Kovalevskaya routine.  Two independent exact routes (the
coefficient recursion and the Picard iteration of the integral equation)
must agree coefficient-for-coefficient, closed-form families pin the
values, and the explicit convergence radius and Picard-increment bounds
are checked against the exact increments.
"""

import math
from fractions import Fraction as Fr

from exactwkb import (TaylorSeries, convergence_radius, iteration_bound,
                      pde_residual, pde_taylor, psi_eval)
from exactwkb.pde import (delta_sup_on_disk, empirical_x_radius, picard_deltas,
                          picard_partial_sums_match)

lam = Fr(1, 2)
F = TaylorSeries({0: lam * lam})
h = TaylorSeries({0: lam})
psi = pde_taylor(F, h, 12, 8)
print("exponential family (constant data): a_n should be lam^n/n!")
fact = 1
for n in range(6):
    if n:
        fact *= n
    print(f"  a_{n}(z) = {psi.a_list[n].coeff(0)}   (expect {lam ** n / Fr(fact)})")
print(f"  kernel residual in the equation: {pde_residual(psi, F)}")

psi2 = pde_taylor(TaylorSeries({1: 1}), TaylorSeries({}), 24, 24)
z, x = 0.2, 0.1
print(f"\nsquare-root-cosh family: psi({z}, {x}) = "
      f"{psi_eval(psi2, z, x):.12f}")
print(f"  closed form           = "
      f"{math.cosh(x * math.sqrt(3 * z + x) / 3):.12f}")

print("\nexplicit convergence radius (r0=1, r1=2, R=10):")
rep = convergence_radius(1.0, 2.0, 10.0, 0.0, 0.0)
print(f"  r' = {rep.r_prime:.6f}")
F3 = TaylorSeries({0: Fr(1, 3), 1: Fr(1, 5)})
h3 = TaylorSeries({0: Fr(1, 2), 1: Fr(1, 4)})
psi3 = pde_taylor(F3, h3, 30, 12)
print(f"  empirical x-radius at |z| = 1: {empirical_x_radius(psi3, 1.0):.3f} "
      f"(comfortably above r')")

print("\nPicard partial sums (8 iterations) == recursion coefficients: "
      f"{picard_partial_sums_match(F3, h3, 8, 7, 12)}")

print("\nPicard increments vs the explicit sup-norm bound (|x| = 0.02):")
r0, r1, R = 1.0, 2.0, 1.0
Fn, hn = 1 / 3 + r1 / 5, 1 / 2 + r1 / 4
M = hn + R / 2 * Fn
deltas = picard_deltas(F3, h3, 8, 20, 30)
for k, d in enumerate(deltas):
    emp = delta_sup_on_disk(d, 0.02, r0)
    bnd = iteration_bound(k, 0.02, 0.0, M, Fn, r0, r1 - r0, r1)
    print(f"  k={k}: empirical {emp:.3e} <= bound {bnd:.3e}")
