"""Formal WKB machinery for the equation u'' - (z/eps^2) u = F(z) u.

Solves the transport recursion for the eps-series of the exponential
ansatz, the equivalent Riccati expansion, and cross-checks the two
representations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LogObstruction
from .series import PuiseuxSeries, _combine, max_abs_coeff, require_taylor
from .symbols import WKBSymbol

_HALF = Fraction(1, 2)


def transport_g(F: PuiseuxSeries, N: int) -> WKBSymbol:
    """Elementary WKB symbol of order N for holomorphic F.

    The g_n solve the transport recursion

        32 z^{5/2} g_{n+1}' = 16 z^2 g_n'' - 8 z g_n' - (16 z^2 F - 5) g_n

    with g_0 = 1 and every integration constant set to zero, so that
    g_n lands in z^{-3n/2} C{z}.  On terms c z^{k/6} the right side is
    b = sum c 16k(k-9)/36 z^{k/6} + (5 - 16z^2 F) g_n, and g_{n+1} is
    sum b_k 3/(16(k-9)) z^{(k-9)/6} over k != 9; a nonzero b_9 (a z^{-1}
    term on the integration step) raises LogObstruction.
    """
    require_taylor(F, "F")
    if N < 0:
        raise ValueError("N must be >= 0")
    P = -(PuiseuxSeries.monomial(16, 2) * F) + 5
    gs = [PuiseuxSeries.one()]
    for n in range(N):
        try:
            gs.append(_combine([(gs[n], 0, lambda k: 4 * k * (k - 9), lambda k: 9),
                                (P, gs[n], 1)],
                               (-9, lambda k: 3 * ((k > 9) - (k < 9)), lambda k: 16 * abs(k - 9)),
                               log=9))
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
    ps = [PuiseuxSeries.monomial(1, _HALF)]
    if N >= 1:
        ps.append(PuiseuxSeries.monomial(Fraction(1, 4), -1))
    for n in range(1, N):
        # p_n' less the symmetric sum, each pair j <-> n+1-j once and doubled;
        # F at n = 1; all over 2 z^{1/2}
        rhs = [(ps[n], -6, lambda k: k, lambda k: 6)]
        rhs += [(ps[j], ps[n + 1 - j], -2) for j in range(1, n // 2 + 1)]
        if n % 2:
            rhs.append((ps[(n + 1) // 2], ps[(n + 1) // 2], -1))
        if n == 1:
            rhs.append(F)
        ps.append(_combine(rhs, (-3, lambda k: 1, lambda k: 2)))
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

        eps [W'' - W'/(2z) + (5/16) z^{-2} W - F W] - 2 z^{1/2} W' = 0.

    Its eps-coefficients through the highest provable order (all must be
    the zero series) are bracket(g_{m-1}) - 2 z^{1/2} g_m'.  On terms
    c z^{k/6} the bracket but F g has weight (16k^2 - 144k + 180)/576 and
    shift -12 (k -> k - 12), the drift k/3 and shift -3.
    """
    gs, negF = symbol.eps_coeffs, -F
    out = []
    for m, g in enumerate(gs):
        terms = []
        if m:
            h = gs[m - 1]
            terms = [(h, -12, lambda k: 16 * k * k - 144 * k + 180, lambda k: 576),
                     (h, negF, 1)]
        out.append(_combine(terms + [(g, -3, lambda k: -k, lambda k: 3)]))
    return out


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
