"""Stokes-line geometry: exact canonical rays and traced curves.

For the canonical model the Stokes lines are three exact rays; for an
analytic potential they are traced node by node, each node a Newton
root of int_0^q sqrt(V) = e^{i alpha} t at rising real t, and every node
is re-verified against the defining condition by independent quadrature
of the action integral.  Writes the traced polylines as CSV
for plotting.
"""

import math
from fractions import Fraction as Fr

from exactwkb import TaylorSeries, canonical_stokes_lines, classify_sector
from exactwkb.stokes import node_condition_residuals, potential_stokes_curves

print("canonical rays (alpha = 0):", [f"{math.degrees(2 * k * math.pi / 3):.0f} deg"
                                      for k in (0, 1, -1)])
for z_arg, want in ((60, "S1"), (180, "S2"), (-60, "S-1")):
    import cmath

    z = cmath.exp(1j * math.radians(z_arg))
    print(f"  arg z = {z_arg:>4} deg -> {classify_sector(z)}")

V = TaylorSeries({1: 1, 2: Fr(1, 2)})
print("\npotential V(q) = q + q^2/2, alpha = 0:")
diag = potential_stokes_curves(V, 0.0, step=0.01, extent=2.0, region_radius=8.0)
res = node_condition_residuals(V, diag)
for b, line in enumerate(diag.lines):
    print(f"  branch {b}: {len(line)} nodes, ends at {line[-1]:.4f}")
print(f"  max |Im action| over re-verified nodes: {max(res):.1e}")

print("\nalpha = pi/2 exposes the saddle connection to the second zero q = -2:")
diag2 = potential_stokes_curves(V, math.pi / 2, step=0.005, extent=6.0,
                                region_radius=20.0)
for b, line in enumerate(diag2.lines):
    print(f"  branch {b}: ends at {line[-1]:.4f}")

out = "stokes_lines.csv"
with open(out, "w") as fh:
    fh.write("q_re,q_im,branch_id\n")
    for b, line in enumerate(diag.lines):
        for q in line:
            fh.write(f"{q.real!r},{q.imag!r},{b}\n")
print(f"\nwrote {out} (plot q_im vs q_re per branch)")
