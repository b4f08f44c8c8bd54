"""Hardy's polynomial family for higher-order turning points.

P_m comes from the hyperbolic multiple-angle identities, Q_m is its
quasi-homogeneous lift, S_n = (2/(n+2)) Q_{n+2}(-z, zhat) generates the
exponential integrals solving the higher turning-point model, and T_n
is the companion polynomial fixed by the two structural identities

    (dS_n/dz)^2 = T_n dS_n/dzhat + z^n,      d2S_n/dz2 = dT_n/dzhat.

Their algebra runs on the series engine: a polynomial in (z, zhat) is a
zhat-series whose coefficients are z-series, so d/dzhat is
``derivative`` and d/dz is ``map_coefficients(PuiseuxSeries.derivative)``.
The pair is handed out as ``{(i, j): Fraction}`` dicts for z^i zhat^j.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .contours import ContourSpec, LaplaceResult, valley_integral
from .series import PuiseuxSeries

Poly2 = dict  # {(i, j): Fraction} for z^i zhat^j


def hardy_polynomial(m: int) -> list[Fraction]:
    """Coefficients (ascending) of P_m with cosh(mq) = P_m(sinh q) for
    even m and sinh(mq) = P_m(sinh q) for odd m.

    Runs the recurrence P_{k+2} = 2(1 + 2s^2) P_k - P_{k-2}, which is
    f((k+2)q) + f((k-2)q) = 2 cosh(2q) f(kq) for f = cosh, sinh with
    cosh 2q = 1 + 2 sinh^2 q, from the seeds P_0 = 1, P_2 = 1 + 2s^2
    (even m) or P_-1 = -s, P_1 = s (odd m).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m % 2 == 0:
        lo, hi = PuiseuxSeries({0: 1}), PuiseuxSeries({0: 1, 2: 2})
    else:
        lo, hi = PuiseuxSeries({1: -1}), PuiseuxSeries({1: 1})
    step = PuiseuxSeries({0: 2, 2: 4})
    for _ in range((m - 1) // 2):
        lo, hi = hi, hi * step - lo
    return [hi.coeff(k) for k in range(m + 1)]


@dataclass(frozen=True)
class HardyPair:
    """S_n, T_n with the two structural identities holding exactly."""

    n: int
    S: Poly2
    T: Poly2


def _series(p: Poly2) -> PuiseuxSeries:
    """p as a zhat-series with z-series coefficients."""
    rows: dict = {}
    for (i, j), c in p.items():
        rows.setdefault(j, {})[i] = c
    return PuiseuxSeries({j: PuiseuxSeries(r) for j, r in rows.items()})


def _poly2(s: PuiseuxSeries) -> Poly2:
    """The dict of a zhat-series s, in increasing zhat-degree."""
    return {(int(i), int(j)): c for j, zs in s.terms() for i, c in zs.terms()}


def _dz(s: PuiseuxSeries) -> PuiseuxSeries:
    return s.map_coefficients(PuiseuxSeries.derivative)


def _zn(n: int) -> PuiseuxSeries:
    return PuiseuxSeries({0: PuiseuxSeries({n: 1})})


def hardy_S_T(n: int) -> HardyPair:
    """Exact S_n and T_n.

    S_n = (2/(n+2)) z^{m/2} P_m(zhat z^{-1/2}) at z -> -z (m = n+2, a
    genuine polynomial by the parity of P_m); T_n is the zhat-
    antiderivative T_0 of d2S_n/dz2 plus a zhat-free "constant" C(z)
    fixed by the first identity, C dS/dzhat = (dS/dz)^2 - z^n - T_0
    dS/dzhat, read off at zhat^{m-1}, where dS/dzhat has the rational
    leading coefficient.  Both identities are then verified exactly
    (hard error on failure).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 2
    S = PuiseuxSeries({j: PuiseuxSeries({(m - j) // 2: c * Fraction(2, m)
                                         * (-1) ** ((m - j) // 2)})
                       for j, c in enumerate(hardy_polynomial(m)) if c})
    Sz, Szh = _dz(S), S.derivative()
    T0 = _dz(Sz).antiderivative()
    need = Sz * Sz - _zn(n) - T0 * Szh
    C = PuiseuxSeries({0: need.coeff(m - 1) / Szh.coeff(m - 1).coeff(0)})
    # the first identity is need = C dS/dzhat, the second dT/dzhat = d2S/dz2
    if not (need == C * Szh and _dz(Sz) == (T0 + C).derivative()):
        raise AssertionError(f"structural identities failed for n={n}")
    return HardyPair(n=n, S=_poly2(S), T=_poly2(T0 + C))


def hardy_identities_hold(pair: HardyPair) -> bool:
    S, T = _series(pair.S), _series(pair.T)
    Sz = _dz(S)
    return (Sz * Sz == T * S.derivative() + _zn(pair.n)
            and _dz(Sz) == T.derivative())


def quasi_homogeneous_ok(pair: HardyPair) -> bool:
    """S_n(l^2 z, l zhat) = l^{n+2} S_n(z, zhat): weight 2i + j = n + 2."""
    return all(2 * i + j == pair.n + 2 for (i, j) in pair.S)


def hardy_valleys(n: int, w: complex) -> tuple[float, float]:
    """The valleys arg zhat = (arg w + 2 pi k)/m, m = n + 2, that Phi_n
    joins: k = (m - 1)//2 and m - k, either side of arg zhat = pi (S_n
    leads with 2^m zhat^m/m).  With zhat = -sqrt(z) cosh u, S_n = +-(2/m)
    z^{m/2} cosh(m u), so for z, w > 0 the line Im u = pi - 2 pi k/m joins
    them, and int exp(-x cosh t) cosh(nu t) dt = 2 K_nu(x) makes Phi_n =
    -(2i/m) sin(2 pi k/m) sqrt(z) K_{1/m}(2 z^{m/2}/(m w)): the solution
    recessive along z > 0."""
    m = n + 2
    k = (m - 1) // 2
    return tuple((cmath.phase(w) + 2.0 * math.pi * j) / m for j in (k, m - k))


def hardy_phi_eval(n: int, z: complex, eps: complex,
                   spec: ContourSpec | None = None,
                   convention: str = "eps2") -> LaplaceResult:
    """Phi_n(z, eps) = int exp(-S_n(z, zhat)/w) dzhat between the two
    valleys of hardy_valleys, an entire function of z.  At fixed z, S_n =
    (2/m) z^{m/2} T_m(zhat/sqrt z), m = n + 2: the phase (m, 2^m/m, z).

    convention='eps2' takes w = eps, for which the integral solves
    eps^2 Phi'' = z^n Phi; convention='eps' takes w = sqrt(eps), for
    eps Phi'' = z^n Phi as in the first-power normalization (the two
    printed forms of the model equation differ; both are exposed).
    """
    if convention not in ("eps", "eps2"):
        raise ValueError("convention must be 'eps' or 'eps2'")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = eps if convention == "eps2" else cmath.sqrt(eps)
    return valley_integral((n + 2, 2.0 ** (n + 2) / (n + 2), z), w,
                           hardy_valleys(n, w), spec or ContourSpec())


def hardy_ode_residual(n: int, z: complex, eps: complex,
                       spec: ContourSpec | None = None,
                       convention: str = "eps2") -> float:
    """Relative residual of the turning-point ODE at z by 5-point finite
    differences of step 0.02 sqrt|eps| (Phi_n is entire in z, so each
    stencil point takes its own thimbles)."""
    h = 0.02 * abs(eps) ** 0.5

    def phi(zz):
        return hardy_phi_eval(n, zz, eps, spec, convention).value

    val = phi(z)
    f2 = (-phi(z + 2 * h) + 16 * phi(z + h) - 30 * val
          + 16 * phi(z - h) - phi(z - 2 * h)) / (12 * h * h)
    resid = (eps * eps if convention == "eps2" else eps) * f2 - (z ** n) * val
    return abs(resid) / max(abs(z ** n * val), abs(eps * eps * f2))
