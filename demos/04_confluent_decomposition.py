"""Sector decompositions of the confluent function.

The truncated contour integral of the kernel against exp(-S/eps) defines
an analytic function of z.  Inside the first Stokes sector it matches
the Borel sum of one formal symbol; past the Stokes ray a second,
exponentially small symbol switches on, and keeping it improves the
match by orders of magnitude -- the Stokes phenomenon seen from the
function side.
"""

import cmath
import math

from exactwkb import TaylorSeries, local_decomposition
from exactwkb.stokes import classify_sector

F0, h0 = TaylorSeries({}), TaylorSeries({})

z1 = 0.9 * cmath.exp(1j * math.pi / 3)
print(f"z = {z1:.4f} lies in {classify_sector(z1)}")
rep = local_decomposition(F0, h0, z1, [0.02, 0.05, 0.1], N=30)
print(f"{'eps':>6} {'|confluent - symbol sum| / |.|':>32}")
for row in rep["rows"]:
    print(f"{row['eps']:>6} {row['rel_err']:>32.2e}")

z2 = 0.9 * cmath.exp(0.9j * math.pi)
print(f"\nz = {z2:.4f} lies in {classify_sector(z2)}")
rep2 = local_decomposition(F0, h0, z2, [0.05], N=30)
row = rep2["rows"][0]
print(f"  one-term residual : {row['one_term_rel_err']:.2e}")
print(f"  two-term residual : {row['rel_err']:.2e}")
print(f"  keeping the recessive term wins a factor "
      f"{row['one_term_rel_err'] / row['rel_err']:.1e}")

print("\nsmall nonzero potential (asymptotic consistency):")
from fractions import Fraction as Fr

Fc = TaylorSeries({0: Fr(1, 10)})
rep3 = local_decomposition(Fc, h0, z1, [0.02, 0.04, 0.08], N=24)
for row in rep3["rows"]:
    print(f"  eps={row['eps']}: rel err {row['rel_err']:.2e}")
print("  (errors shrink as eps does: the induced symbol is asymptotic)")
