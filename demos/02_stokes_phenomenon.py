"""The Stokes phenomenon measured from lateral Laplace sums.

On the Stokes ray at arg z = 2 pi/3 the Borel minor of the recessive
symbol is singular along the positive Laplace direction.  The two
lateral sums (ray rotated +-10 degrees) differ by an exponentially
small jump, and the jump equals -i times the Borel sum of the
eps -> -eps partner symbol: the alien-derivative relation, realized
numerically by the Pade pole string that emulates the branch cut.
"""

import cmath
import math

from exactwkb import airy_borel_sum, airy_oracle, stokes_jump
from exactwkb.airy import LATERAL_DELTA

eps = 0.05
z = 0.8 * cmath.exp(2j * math.pi / 3)

lo, hi = (airy_borel_sum(z, eps, 40, theta=theta).value
          for theta in (-LATERAL_DELTA, LATERAL_DELTA))
oracle = airy_oracle(z, eps)
print(f"on the ray, z = {z:.4f}, eps = {eps}")
print(f"  lateral sum above : {hi:.10e}")
print(f"  lateral sum below : {lo:.10e}")
print(f"  entire function   : {oracle:.10e}")
print(f"  above-ray sum continues the entire function: "
      f"rel diff {abs(hi - oracle) / abs(oracle):.1e}")

jump, predicted = stokes_jump(z, eps, 40)
print(f"\n  measured jump (below - above) : {jump:.6e}")
print(f"  -i * partner-symbol sum       : {predicted:.6e}")
print(f"  relative error                : {abs(jump - predicted) / abs(predicted):.2e}")
print(f"  jump size / sum size          : {abs(jump) / abs(hi):.2e}  (beyond all orders)")

z_off = 0.8 * cmath.exp(1j * math.pi / 3)
j_off, _ = stokes_jump(z_off, eps, 40)
scale = abs(airy_borel_sum(z_off, eps, 40).value)
print(f"\noff the ray (open sector): |jump|/|sum| = {abs(j_off) / scale:.1e}")

j_m, p_m = stokes_jump(0.8, eps, 40, mirror=True)
print(f"mirror relation on the positive axis (partner symbol): "
      f"rel err {abs(j_m - p_m) / abs(p_m):.2e}")
