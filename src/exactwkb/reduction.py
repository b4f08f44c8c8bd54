"""Turning-point reduction: Liouville transform, induced potential,
resurgent reduction to the Airy equation, and decomposition of symbols
in the Airy basis.

The reduction series s(z, eps) is characterized by the master relation

    s (s')^2 - (eps^2/2) {s, z} = z + eps^2 F(z),

obtained by substituting u = (ds/dz)^{-1/2} y(s(z, eps), eps) into
u'' - (z/eps^2) u = F u and using y_ss = (s/eps^2) y.  Its residual is
the module's own correctness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .airy import airy_symbol
from .errors import LogObstruction, NotSimpleTurningPoint, SeriesError
from .series import (EpsSeries, PuiseuxSeries, _combine, _make, _sum, compose_each,
                     require_taylor)
from .symbols import WKBSymbol

_HALF = Fraction(1, 2)
_NIL = PuiseuxSeries.zero()     # the exact zero, an absent eps-order


def liouville_map(V: PuiseuxSeries, N: int) -> PuiseuxSeries:
    """z(q) = ((3/2) int_0^q V^{1/2})^{2/3} for V = q + O(q^2).

    The simple-turning-point normalization V(0) = 0, V'(0) = 1 is
    enforced; the result is a Taylor map z(q) = q + O(q^2) on the
    integer lattice (the 2/3 power's transient lattice widening cancels
    against the q^{3/2} of the integrated square root).
    """
    require_taylor(V, "V")
    if not V._by6.get(0, Fraction(0)) == 0:
        raise NotSimpleTurningPoint("V(0) != 0")
    if not V._by6.get(6, Fraction(0)) == 1:
        raise NotSimpleTurningPoint("V'(0) != 1")
    order = Fraction(N)
    sqrtV = V.pow_rational(_HALF, order=order + 1)
    zq = (sqrtV.antiderivative() * Fraction(3, 2)).pow_rational(
        Fraction(2, 3), order=order + 1)
    zq = zq.with_trunc(min(zq.trunc, order + 1))
    if not zq.is_taylor():
        raise SeriesError("Liouville map left the integer lattice")
    return zq


def schwarzian(f: PuiseuxSeries) -> PuiseuxSeries:
    """{f, z} = f'''/f' - (3/2)(f''/f')^2 = r' - r^2/2 with r = f''/f' (as
    r' = f'''/f' - r^2), for f'(0) != 0, of an eps-series f whose
    coefficients are z-series (differentiated coefficientwise)."""
    f1 = f.map_coefficients(PuiseuxSeries.derivative)
    r = f1.map_coefficients(PuiseuxSeries.derivative) * f1.inverse()
    return r.map_coefficients(PuiseuxSeries.derivative) - r * r * _HALF


def induced_potential_F(V: PuiseuxSeries, N: int) -> PuiseuxSeries:
    """Correction potential F(z) = (z / 2V(q)) {z, q} at q = q(z).

    Composes the Liouville map, its Lagrange inverse and the Schwarzian
    derivative; the result is holomorphic at 0.
    """
    return _potential_and_map(V, N)[0]


def _potential_and_map(V: PuiseuxSeries, N: int) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """induced_potential_F(V, N) and the Liouville map it is built on."""
    # z(q) carried a few orders past N so the two derivatives inside the
    # Schwarzian still leave N retained orders
    zq = liouville_map(V, N + 3)
    order = Fraction(N + 1)
    sch = schwarzian(PuiseuxSeries({0: zq}, lattice=1)).coeff(0)
    ratio = zq.div(V, order=order)          # z(q)/V(q), holomorphic, -> 1
    G = ratio * sch * _HALF                  # F written in the q variable
    qz = zq.reversion(order + 1)
    out = G.with_trunc(min(G.trunc, order)).compose(qz)
    return out.with_trunc(min(out.trunc, order)), zq


@dataclass(frozen=True)
class ReductionSeries:
    """s(z, eps) = z + sum_{k>=2} s_k(z) eps^k (odd orders vanish)."""

    s_coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.s_coeffs) - 1

    def as_eps_series(self) -> PuiseuxSeries:
        return EpsSeries(self.s_coeffs).series()

    def compose_with(self, zq: PuiseuxSeries) -> "ReductionSeries":
        """s(z(q), eps): pushes the reduction through a change of variable,
        forming the powers of z(q) once for every s_k that is not the
        exact zero (a zero known below z^T is composed, to keep a
        truncation)."""
        composed = iter(compose_each([sk for sk in self.s_coeffs[1:]
                                      if sk != _NIL], zq))
        return ReductionSeries(s_coeffs=(zq, *(
            _NIL if sk == _NIL else next(composed)
            for sk in self.s_coeffs[1:])))


def _master_lhs(S: PuiseuxSeries) -> PuiseuxSeries:
    """s (s')^2 - (eps^2/2){s, z}, the left-hand side of the master relation."""
    S1 = S.map_coefficients(PuiseuxSeries.derivative)
    return S * S1 * S1 - schwarzian(S).shift(2) * _HALF


def _dense(resid: PuiseuxSeries, orders: int | None) -> EpsSeries:
    if orders is not None:
        resid = resid.with_trunc(min(resid.trunc, orders + 1))
    return EpsSeries.of(resid)


def master_relation_residual(s: ReductionSeries, F: PuiseuxSeries,
                             orders: int | None = None) -> EpsSeries:
    """s (s')^2 - (eps^2/2){s, z} - z - eps^2 F, eps-orders 0..orders."""
    rhs = PuiseuxSeries({0: PuiseuxSeries.monomial(1, 1), 2: F}, lattice=1)
    return _dense(_master_lhs(s.as_eps_series()) - rhs, orders)


def _conv(X: list, Y: list, m: int) -> PuiseuxSeries:
    """[eps^m] of the eps-product X Y from the order lists X and Y: the
    sum of X_i Y_(m-i) for i ascending in one :func:`series._combine`, an
    order past the end of a list read as the exact zero, whose products add
    nothing.  This is how the eps-product itself sums order m, so values,
    z-truncations and float bits all agree with it."""
    X, Y = (L + [_NIL] * (m + 1 - len(L)) for L in (X, Y))
    return _combine([(X[i], Y[m - i], 1) for i in range(m + 1)])


def _recip_order(g: list, f: list, n: int) -> PuiseuxSeries:
    """[eps^n] of 1/g from g's orders and the orders of f = 1/g below n:
    the r = -1 step of Miller's recurrence as ``series._expand`` takes it."""
    if n == 0:
        return g[0].inverse()
    return f[0] * _sum(g[j] * f[n - j] * -n for j in range(1, n + 1)) / n


def reduce_to_airy(F: PuiseuxSeries, N_eps: int, N_z: int) -> ReductionSeries:
    """Reduction series solving the master relation order by order.

    At eps-order k the unknown s_k satisfies 2 z s_k' + s_k = rhs_k with
    rhs_k built from lower orders; coefficientwise (2m+1) c_m = rhs_m, so
    an rhs_k known only to be 0 below z^T gives s_k = 0 + O(z^T).
    Holomorphy forces the odd orders to vanish (asserted, not assumed):
    a nonzero rhs at odd k would demand a z^{-1/2} homogeneous part.

    rhs_k is minus eps-order k of the master residual with s_k = 0, and
    each step forms only that order (relaxed evaluation): order k of
    s (s')^2 and order k - 2 of {s, z} = r' - r^2/2, r = s''/s', read
    from order lists of s, s', s'', 1/s', s s', r and r^2 that grow by one
    order per step.  Each order is summed as the full eps-product sums it
    (:func:`_conv`), so s is the same to the bit as from the full residual
    of the partial s at every order; ``master_relation_residual`` stays
    the full certificate.
    """
    if N_eps < 0:
        raise ValueError("N must be >= 0")
    require_taylor(F, "F")
    Fz = F.with_trunc(min(F.trunc, Fraction(N_z)))
    S = [PuiseuxSeries.monomial(1, 1)]
    S1, S2, inv, SS1, R2, R2R2 = ([] for _ in range(6))
    for k in range(1, N_eps + 1):
        # s_(k-1) is final: order k of s (s')^2, s_k read as 0 ...
        S1.append(S[k - 1].derivative())
        SS1.append(_conv(S, S1, k - 1))
        resid = _conv(SS1 + [_conv(S, S1, k)], S1, k)
        # ... minus (eps^2/2) {s, z}, whose order k - 2 is now final
        if k >= 2:
            j = k - 2
            S2.append(S1[j].derivative())
            inv.append(_recip_order(S1, inv, j))
            R2.append(_conv(S2, inv, j))
            R2R2.append(_conv(R2, R2, j))
            resid = resid - (R2[j].derivative() - R2R2[j] * _HALF) * _HALF
        if k == 2:
            resid = resid - Fz
        rhs = -resid
        if not rhs.is_taylor():
            raise LogObstruction(
                f"resonant non-holomorphic term at eps-order {k}")
        S.append(_make({k: c / Fraction(k // 3 + 1) for k, c in rhs._by6.items()},
                       rhs.trunc))
    return ReductionSeries(s_coeffs=tuple(S))


def schrodinger_pipeline(V: PuiseuxSeries, N: int,
                         N_z: int | None = None) -> tuple[PuiseuxSeries, ReductionSeries]:
    """Full reduction of eps^2 Y'' = V(q) Y at a simple turning point.

    Returns (F, s(q, eps)) where F is the induced potential in the
    straightened variable and s is the composed reduction series in q,
    satisfying s (ds/dq)^2 - (eps^2/2){s, q} = V(q) on retained orders.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    N_z = N_z if N_z is not None else N + 4
    F, zq = _potential_and_map(V, N_z)
    s_can = reduce_to_airy(F, N, N_z)
    # liouville_map(V, N_z), cut from the map F was built on
    return F, s_can.compose_with(zq.with_trunc(min(zq.trunc, Fraction(N_z + 1))))


def schrodinger_master_residual(s_q: ReductionSeries, V: PuiseuxSeries,
                                orders: int) -> EpsSeries:
    """s (ds/dq)^2 - (eps^2/2){s, q} - V(q), the q-variable certificate."""
    return _dense(_master_lhs(s_q.as_eps_series()) - PuiseuxSeries({0: V}), orders)


# ---------------------------------------------------------------------------
# Decomposition in the Airy symbol basis.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisDecomposition:
    """phi = a(z, eps) A + b(z, eps) eps dA/dz with holomorphic a_k, b_k."""

    a_coeffs: tuple
    b_coeffs: tuple

    def holomorphy_scan(self) -> bool:
        """All retained a_k, b_k have integer exponents >= 0."""
        return all(c.is_taylor() for c in self.a_coeffs + self.b_coeffs)


def airy_basis_decomposition(phi: WKBSymbol, N: int) -> BasisDecomposition:
    """Solve phi = a A + b eps dA/dz order by order in eps.

    Both sides carry the common exponential/quarter-power prefactor; at
    the series level A contributes u = sum alpha_n eps^n and eps dA/dz
    contributes v = -z^{1/2} u + eps (u' - u/(4z)).  Each eps-order
    splits over the exponent lattice: integer exponents determine a_n,
    half-integer exponents determine b_n (after dividing -z^{1/2}).
    """
    if phi.sign != +1:
        raise SeriesError("decompose the sign=+1 determination")
    if N > phi.order:
        raise SeriesError(f"phi carries only {phi.order} orders, asked {N}")
    U, V = _airy_basis(N)
    a: list[PuiseuxSeries] = []
    b: list[PuiseuxSeries] = []
    inv_sqrt = PuiseuxSeries.monomial(-1, -_HALF)
    for n in range(N + 1):
        known = PuiseuxSeries.zero()
        for k in range(n):
            known = known + a[k] * U.coeff(n - k) + b[k] * V.coeff(n - k)
        resid = phi.eps_coeffs[n] - known
        a_n, half_part = _lattice_split(resid)
        b_n = inv_sqrt * half_part
        a.append(a_n)
        b.append(b_n)
    return BasisDecomposition(a_coeffs=tuple(a), b_coeffs=tuple(b))


def _airy_basis(N: int) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """The eps-series u of A and v = -z^{1/2} u + eps (u' - u/(4z)) of
    eps dA/dz, common prefactor removed."""
    U = airy_symbol(N).series()
    minus_sqrt = PuiseuxSeries.monomial(-1, _HALF)
    quarter = PuiseuxSeries.monomial(Fraction(1, 4), -1)
    return U, U.map_coefficients(lambda u: minus_sqrt * u) \
        + U.map_coefficients(lambda u: u.derivative() - quarter * u).shift(1)


def reconstruct_from_basis(dec: BasisDecomposition, N: int) -> WKBSymbol:
    """a A + b eps dA/dz as a plain symbol (for exact reconstruction checks)."""
    U, V = _airy_basis(N)
    A, B = (EpsSeries(cs[:N + 1]).series() for cs in (dec.a_coeffs, dec.b_coeffs))
    return WKBSymbol.from_g(EpsSeries.of(A * U + B * V).coeffs)


def _lattice_split(s: PuiseuxSeries) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """Split a half-lattice series into integer and half-integer parts."""
    ints = {k: c for k, c in s._by6.items() if k % 6 == 0}
    halfs = {k: c for k, c in s._by6.items() if k % 6 == 3}
    return _make(ints, s.trunc), _make(halfs, s.trunc)
