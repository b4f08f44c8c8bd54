"""Hardy's polynomial family for higher-order turning points.

Hyperbolic multiple-angle identities generate quasi-homogeneous
polynomials S_n whose exponential integrals solve the higher
turning-point model; the companion T_n makes the integration-by-parts
argument exact.  n = 1 recovers the Airy integral (up to an explicit
affine substitution), n = 2 the Weber parabolic-cylinder case.
"""

import cmath
import math

from exactwkb import hardy_phi_eval, hardy_polynomial, hardy_S_T
from exactwkb.airy import airy_contour
from exactwkb.hardy import hardy_ode_residual


def fmt_poly2(p, names=("z", "w")):
    terms = []
    for (i, j), c in sorted(p.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
        mono = "".join(f"{n}^{e}" for n, e in zip(names, (i, j)) if e)
        terms.append(f"({c}){mono}" if mono else f"({c})")
    return " + ".join(terms)


print("multiple-angle polynomials P_m (ascending coefficients):")
for m in (2, 3, 4, 5):
    print(f"  m={m}: {[str(c) for c in hardy_polynomial(m)]}")

print("\ngenerating pairs (S_n, T_n):")
for n in (1, 2, 3):
    pair = hardy_S_T(n)
    print(f"  n={n}:  S = {fmt_poly2(pair.S)}")
    print(f"         T = {fmt_poly2(pair.T)}")

print("\nn = 1 reduces to the Airy integral:")
for z in (0.8, 1.0, 1.3):
    phi = hardy_phi_eval(1, z, 0.1).value
    airy = airy_contour(z, 0.1).value * (1j * cmath.sqrt(math.pi * 0.1))
    print(f"  z={z}: Phi_1/AiryIntegral = {phi / airy:.12f}")

print("\nn = 2 (Weber case): model-equation residual by finite differences")
for conv in ("eps2", "eps"):
    r = hardy_ode_residual(2, 1.0, 0.1, convention=conv)
    print(f"  convention {conv:>4}: relative residual {r:.1e}")
print("  (the two conventions differ by eps vs eps^2 in the model equation;")
print("   'eps2' matches the exp(-S/eps) normalization used here)")
