"""Formal WKB machinery for the equation u'' - (z/eps^2) u = F(z) u.

Solves the transport recursion for the eps-series of the exponential
ansatz, the equivalent Riccati expansion, and cross-checks the two
representations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LogObstruction
from .series import EpsSeries, PuiseuxSeries, max_abs_coeff, require_taylor
from .symbols import WKBSymbol

_HALF = Fraction(1, 2)


def transport_g(F: PuiseuxSeries, N: int) -> WKBSymbol:
    """Elementary WKB symbol of order N for holomorphic F.

    The g_n solve the transport recursion

        32 z^{5/2} g_{n+1}' = 16 z^2 g_n'' - 8 z g_n' - (16 z^2 F - 5) g_n

    with g_0 = 1 and every integration constant set to zero, so that
    g_n lands in z^{-3n/2} C{z}.  A surviving z^{-1} term on an
    integration step raises LogObstruction.
    """
    require_taylor(F, "F")
    if N < 0:
        raise ValueError("N must be >= 0")
    z2 = PuiseuxSeries.monomial(1, 2)
    den = PuiseuxSeries.monomial(Fraction(1, 32), Fraction(-5, 2))
    gs = [PuiseuxSeries.one()]
    for n in range(N):
        g = gs[n]
        rhs = z2 * g.derivative().derivative() * 16 \
            - PuiseuxSeries.monomial(8, 1) * g.derivative() \
            - (z2 * F * 16 - 5) * g
        try:
            gs.append((rhs * den).antiderivative())
        except LogObstruction as exc:
            raise LogObstruction(
                f"transport step n={n + 1} left a z^-1 term") from exc
    return WKBSymbol.from_g(gs)


@dataclass(frozen=True)
class RiccatiExpansion:
    """P(z, eps) = sum p_n(z) eps^n with eps P' + z - P^2 + eps^2 F = 0."""

    p_coeffs: tuple


def riccati_p(F: PuiseuxSeries, N: int) -> RiccatiExpansion:
    """Riccati expansion to order N: p_0 = z^{1/2}, p_1 = 1/(4z),
    2 p_0 p_{n+1} = p_n' - sum_{j=1..n} p_j p_{n+1-j} (+ F at n = 1)."""
    require_taylor(F, "F")
    if N < 0:
        raise ValueError("N must be >= 0")
    inv_2p0 = PuiseuxSeries.monomial(_HALF, Fraction(-1, 2))
    ps = [PuiseuxSeries.monomial(1, _HALF)]
    if N >= 1:
        ps.append(PuiseuxSeries.monomial(Fraction(1, 4), -1))
    for n in range(1, N):
        rhs = ps[n].derivative()
        # the sum is symmetric in j <-> n+1-j: each pair once, doubled
        for j in range(1, n // 2 + 1):
            rhs = rhs - ps[j] * ps[n + 1 - j] * 2
        if n % 2:
            rhs = rhs - ps[(n + 1) // 2] * ps[(n + 1) // 2]
        if n == 1:
            rhs = rhs + F
        ps.append(rhs * inv_2p0)
    return RiccatiExpansion(p_coeffs=tuple(ps))


def grading_ok(symbol: WKBSymbol) -> bool:
    """min_exp(g_n) >= -3n/2 for every retained order."""
    for n, g in enumerate(symbol.eps_coeffs):
        if not g.is_zero() and g.min_exp < Fraction(-3 * n, 2):
            return False
    return True


def riccati_grading_ok(ric: RiccatiExpansion) -> bool:
    """min_exp(p_n) >= -(3n-1)/2 for every retained order."""
    for n, p in enumerate(ric.p_coeffs):
        if not p.is_zero() and p.min_exp < Fraction(-(3 * n - 1), 2):
            return False
    return True


def wkb_residual(symbol: WKBSymbol, F: PuiseuxSeries) -> list:
    """Coefficients of the equation residual for the symbol ansatz.

    Substituting exp(-(2/3)z^{3/2}/eps) z^{-1/4} W(z, eps) into
    u'' - (z/eps^2) u - F u and clearing the prefactor leaves

        eps [W'' - W'/(2z) + (5/16) z^{-2} W - F W] - 2 z^{1/2} W' = 0,

    computed here with series operations only.  Returns the residual's
    eps-coefficients through the highest provable order (all must be
    the zero series).
    """
    half_z = PuiseuxSeries.monomial(_HALF, -1)
    five_z2 = PuiseuxSeries.monomial(Fraction(5, 16), -2)
    two_sqrt = PuiseuxSeries.monomial(2, _HALF)

    def bracket(g):  # z-series factors act on each eps-coefficient of W
        dg = g.derivative()
        return dg.derivative() - dg * half_z + g * five_z2 - g * F

    W = symbol.series()
    resid = W.map_coefficients(bracket).shift(1) \
        - W.map_coefficients(lambda g: g.derivative() * two_sqrt)
    return list(EpsSeries.of(resid).coeffs)


def symbol_consistency(F: PuiseuxSeries, N: int) -> dict:
    """Cross-check the transport symbol against the Riccati representation.

    (i) verifies P_odd = (eps/2) P_even'/P_even order by order;
    (ii) expands C(eps) exp(-(1/eps) int (P_even - z^{1/2})) / sqrt(P_even/z^{1/2})
    and matches it against transport_g output, fixing C(eps) so the
    z-constant terms agree at each order.

    Returns a report dict with the two residuals (exact zero expected in
    exact mode) and the normalization C.
    """
    if N < 2:
        return {"orders": 0, "odd_even_residual": None,
                "expansion_residual": None, "C": []}
    ps = riccati_p(F, N + 1).p_coeffs
    Pe, Po = (PuiseuxSeries({n: ps[n] for n in range(k, len(ps), 2)}, len(ps), lattice=1)
              for k in (0, 1))   # the even and odd parts of P, as eps-series
    # (i)  P_odd - (eps/2) P_even'/P_even == 0
    dPe = Pe.map_coefficients(PuiseuxSeries.derivative)
    ratio = (dPe * Pe.inverse()).shift(1) * _HALF
    diff = (Po - ratio).with_trunc(N + 1)
    odd_even_resid = max_abs_coeff(diff._by6.values())

    # (ii) route-2 expansion of the symbol series
    p0 = PuiseuxSeries.monomial(1, _HALF)
    rel = Pe - PuiseuxSeries({0: p0})          # starts at eps^2
    try:
        Q = rel.map_coefficients(PuiseuxSeries.antiderivative)
    except LogObstruction as exc:
        raise LogObstruction("int(P_even - z^{1/2}) met a z^-1 term") from exc
    inv_p0 = PuiseuxSeries.monomial(1, -_HALF)
    E = Pe.map_coefficients(lambda p: p * inv_p0).pow_rational(Fraction(-1, 2)) \
        * (-Q).shift(-1).exp()
    E = E.with_trunc(N + 1)
    gs = transport_g(F, N).eps_coeffs
    C: list = []
    resid = Fraction(0)
    for n in range(N + 1):
        partial = PuiseuxSeries.zero()
        for k in range(n):
            partial = partial + E.coeff(n - k) * C[k]
        cn = gs[n]._by6.get(0, Fraction(0)) - partial._by6.get(0, Fraction(0))
        C.append(cn)
        diff_n = gs[n] - (partial + E.coeff(0) * cn)
        resid = max(resid, max_abs_coeff([diff_n]), key=abs)
    return {"orders": N, "odd_even_residual": odd_even_resid,
            "expansion_residual": resid, "C": C}
