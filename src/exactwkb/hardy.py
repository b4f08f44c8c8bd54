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
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contours import (ContourSpec, LaplaceResult, canonical_up_dir,
                       saddle_descent_path, saddle_point_integral)
from .errors import ContourFailure
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
    # T_0's keys, then C's: _poly2(T0 + C) would put the zhat^0 key first
    return HardyPair(n=n, S=_poly2(S), T={**_poly2(T0), **_poly2(C)})


def hardy_identities_hold(pair: HardyPair) -> bool:
    S, T = _series(pair.S), _series(pair.T)
    Sz = _dz(S)
    return (Sz * Sz == T * S.derivative() + _zn(pair.n)
            and _dz(Sz) == T.derivative())


def quasi_homogeneous_ok(pair: HardyPair) -> bool:
    """S_n(l^2 z, l zhat) = l^{n+2} S_n(z, zhat): weight 2i + j = n + 2."""
    return all(2 * i + j == pair.n + 2 for (i, j) in pair.S)


def poly2_eval(p: Poly2, z: complex, zhat) -> complex | np.ndarray:
    return _terms_eval(_terms_at(p, z), zhat)


def _terms_at(p: Poly2, z: complex) -> list[tuple[complex, int]]:
    """p at a fixed z as (float(c) z^i, j) terms in p's order."""
    return [(float(c) * (z ** i), j) for (i, j), c in p.items()]


def _terms_eval(terms: list[tuple[complex, int]], zhat) -> complex | np.ndarray:
    zhat = np.asarray(zhat, dtype=complex)
    out = np.zeros_like(zhat)
    for cz, j in terms:
        out = out + cz * zhat ** j
    return out


@functools.lru_cache(maxsize=None)
def _setup_polys(n: int) -> tuple[HardyPair, Poly2, Poly2]:
    """The verified pair of hardy_S_T(n) with dS_n/dzhat and d2S_n/dzhat2,
    built once per n; read-only, for _hardy_setup alone."""
    pair = hardy_S_T(n)
    dS = _series(pair.S).derivative()
    return pair, _poly2(dS), _poly2(dS.derivative())


def _hardy_setup(n: int, z: complex, eps: complex, convention: str):
    """Shared set-up of the Phi_n integral at z.

    Returns (w, calls, saddle): the exponent scale w for the convention,
    a builder calls(z') -> (S, dS, d2S) of the zhat-callables at z', and
    the most recessive saddle at z (largest Re(S/w): smallest integrand).
    """
    if convention == "eps2":
        w = eps
    elif convention == "eps":
        w = cmath.sqrt(eps)
    else:
        raise ValueError("convention must be 'eps' or 'eps2'")
    pair, dS, dd = _setup_polys(n)

    def calls(zz):
        # the z-powers are taken once per polynomial here, not per zhat
        S_t, dS_t, dd_t = (_terms_at(p, zz) for p in (pair.S, dS, dd))
        return (lambda x: _terms_eval(S_t, x),
                lambda x: _terms_eval(dS_t, x),
                lambda x: _terms_eval(dd_t, x))

    # saddles: roots of dS/dzhat(z, .)
    deg = max(j for (_, j) in dS)
    poly = np.zeros(deg + 1, dtype=complex)
    for cz, j in _terms_at(dS, z):
        poly[deg - j] += cz
    saddles = np.roots(poly)
    if len(saddles) == 0:
        raise ContourFailure("no saddle points")
    S_t = _terms_at(pair.S, z)
    S_at = [complex(_terms_eval(S_t, s)) for s in saddles]
    k = int(np.argmax([(v / w).real for v in S_at]))
    return w, calls, complex(saddles[k])


def hardy_phi_eval(n: int, z: complex, eps: complex,
                   spec: ContourSpec | None = None,
                   convention: str = "eps2") -> LaplaceResult:
    """Phi_n(z, eps) = int exp(-S_n(z, zhat)/w) dzhat through the most
    recessive saddle.

    convention='eps2' takes w = eps, for which each thimble integral
    solves eps^2 Phi'' = z^n Phi; convention='eps' takes w = sqrt(eps),
    for eps Phi'' = z^n Phi as in the first-power normalization (the two
    printed forms of the model equation differ; both are exposed).

    The saddle is chosen afresh at each z, so the value is a solution
    only piecewise: for odd n >= 3 it jumps where that choice flips, as
    it does on the positive real axis, where two saddles tie and
    rounding decides (n = 3, eps = 0.1: -0.29967i at z = 0.3751,
    -0.18514i at z = 0.3752), until one contour per sector replaces the
    choice.
    """
    w, calls, saddle = _hardy_setup(n, z, eps, convention)
    return saddle_point_integral(*calls(z), saddle, w, spec or ContourSpec())


def hardy_ode_residual(n: int, z: complex, eps: complex,
                       spec: ContourSpec | None = None,
                       convention: str = "eps2") -> float:
    """Relative residual of the turning-point ODE at z by 5-point finite
    differences of step 0.02 sqrt|eps| on a fixed contour (the path is
    frozen at the stencil center so Phi stays analytic across the
    stencil)."""
    w, calls, saddle = _hardy_setup(n, z, eps, convention)
    base = spec or ContourSpec()
    S0, dS0, d2S0 = calls(z)
    nodes, _, _ = saddle_descent_path(S0, dS0, d2S0, saddle, w, base,
                                      canonical_up_dir(complex(d2S0(saddle)), w))
    fixed = base.with_path(nodes)

    h = 0.02 * abs(eps) ** 0.5

    def phi(zz):
        return saddle_point_integral(*calls(zz), saddle, w, fixed).value

    f2 = (-phi(z + 2 * h) + 16 * phi(z + h) - 30 * phi(z)
          + 16 * phi(z - h) - phi(z - 2 * h)) / (12 * h * h)
    val = phi(z)
    if convention == "eps2":
        resid = eps * eps * f2 - (z ** n) * val
    else:
        resid = eps * f2 - (z ** n) * val
    return abs(resid) / max(abs(z ** n * val), abs(eps * eps * f2))
