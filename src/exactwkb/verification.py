"""Self-verification suites behind `exactwkb verify`.

'identities' runs the exact-arithmetic invariants (fast, no quadrature);
'quadrature' cross-checks the numeric layers against their oracles;
'all' runs both.  One pass/fail line per check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .airy import airy_alpha, airy_borel_sum, airy_contour, airy_oracle, airy_symbol
from .hardy import hardy_identities_hold, hardy_S_T, quasi_homogeneous_ok
from .pde import pde_residual, pde_taylor, picard_partial_sums_match
from .reduction import (airy_basis_decomposition, induced_potential_F,
                        master_relation_residual, reconstruct_from_basis,
                        reduce_to_airy)
from .series import TaylorSeries
from .stokes import canonical_stokes_lines, node_condition_residuals, \
    potential_stokes_curves
from .transport import (grading_ok, riccati_grading_ok, riccati_p,
                        symbol_consistency, transport_g, wkb_residual)


def _identities() -> list[tuple[str, bool]]:
    checks = []
    sym = transport_g(TaylorSeries({}), 12)
    ref = airy_symbol(12)
    checks.append(("airy closed form == transport recursion (n <= 12)",
                   all((a - b).is_zero() for a, b in
                       zip(sym.eps_coeffs, ref.eps_coeffs))))
    checks.append(("alpha_1 == -5/48", airy_alpha(1) == Fraction(-5, 48)))
    checks.append(("alpha_2 == 385/4608", airy_alpha(2) == Fraction(385, 4608)))
    F = TaylorSeries({0: Fraction(1, 3), 1: Fraction(-2, 7)})
    phi = transport_g(F, 8)
    checks.append(("transport grading g_n in z^{-3n/2} C{z}", grading_ok(phi)))
    checks.append(("riccati grading p_n in z^{-(3n-1)/2} C{z}",
                   riccati_grading_ok(riccati_p(F, 8))))
    checks.append(("wkb residual identically zero",
                   all(r.is_zero() for r in wkb_residual(phi, F))))
    rep = symbol_consistency(F, 5)
    checks.append(("riccati odd/even split matches transport",
                   rep["odd_even_residual"] == 0 and rep["expansion_residual"] == 0))
    h = TaylorSeries({0: Fraction(1, 2), 1: Fraction(1, 5)})
    psi = pde_taylor(F, h, 12, 12)
    checks.append(("pde residual exactly zero", pde_residual(psi, F) == 0))
    checks.append(("picard partial sums == kernel coefficients",
                   picard_partial_sums_match(F, h, 6, 6, 10)))
    s = reduce_to_airy(F, 6, 10)
    resid = master_relation_residual(s, F.with_trunc(10), orders=6)
    checks.append(("reduction master relation residual == 0",
                   all(x.is_zero() for x in resid.coeffs)))
    dec = airy_basis_decomposition(phi, 6)
    rec = reconstruct_from_basis(dec, 6)
    checks.append(("airy-basis reconstruction exact",
                   all((a - b).is_zero() for a, b in
                       zip(rec.eps_coeffs, phi.eps_coeffs))))
    checks.append(("basis coefficients holomorphic", dec.holomorphy_scan()))
    V = TaylorSeries({1: 1, 2: Fraction(1, 2)})
    checks.append(("induced F(0) == -9/140 for V = q + q^2/2",
                   induced_potential_F(V, 5).coeff(0) == Fraction(-9, 140)))
    ok = True
    for n in range(1, 9):
        pair = hardy_S_T(n)
        ok = ok and hardy_identities_hold(pair) and quasi_homogeneous_ok(pair)
    checks.append(("hardy structural identities exact (n <= 8)", ok))
    return checks


def _quadrature() -> list[tuple[str, bool]]:
    checks = []
    r = airy_contour(1.0, 0.1)
    o = airy_oracle(1.0, 0.1)
    checks.append(("contour == scaled Ai at z=1, eps=0.1 (1e-10)",
                   abs(r.value - o) / abs(o) < 1e-10))
    b = airy_borel_sum(1.0, 0.05, 24)
    c05 = airy_contour(1.0, 0.05)
    checks.append(("borel-pade sum == contour (1e-8)",
                   abs(b.value - c05.value) / abs(c05.value) < 1e-8))
    V = TaylorSeries({1: 1, 2: Fraction(1, 2)})
    diag = potential_stokes_curves(V, 0.0, step=0.01, extent=1.2)
    checks.append(("stokes node condition (1e-10)",
                   max(node_condition_residuals(V, diag)) < 1e-10))
    rays = canonical_stokes_lines(0.0)
    args = sorted(round(cmath.phase(line[-1]), 12) for line in rays.lines)
    expect = sorted(round(x, 12) for x in (0.0, 2 * math.pi / 3, -2 * math.pi / 3))
    checks.append(("canonical rays at {0, +-2pi/3}", args == expect))
    return checks


def run_suite(name: str) -> dict:
    checks = []
    if name in ("identities", "all"):
        checks.extend(_identities())
    if name in ("quadrature", "all"):
        checks.extend(_quadrature())
    checks = [(label, bool(ok)) for label, ok in checks]
    lines = [f"[{'PASS' if ok else 'FAIL'}] {label}" for label, ok in checks]
    return {"lines": lines,
            "results": {label: ok for label, ok in checks},
            "passed": all(ok for _, ok in checks)}
