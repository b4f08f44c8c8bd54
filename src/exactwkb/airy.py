"""The Airy reference model (F = 0).

Closed-form WKB symbol with exact rational coefficients, Borel-Pade-
Laplace summation, an independent contour-integral oracle, and the
numeric Stokes-jump check on the lateral sums.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath

from .borel import (PadeApproximant, check_ray_clear, genuine_poles,
                    laplace_pade_mp, laplace_ray, pade_from_taylor)
from .contours import ContourSpec, LaplaceResult, valley_integral
from .errors import ContourFailure, PoleOnRay
from .series import PuiseuxSeries
from .symbols import WKBSymbol, branch_arg, zpow

# Angle of the lateral Laplace rays either side of the singular ray.
LATERAL_DELTA = math.radians(10.0)


def _airy_alphas(N: int) -> list[Fraction]:
    """alpha_0 .. alpha_N (none for N < 0) by one running product.

    alpha_n = (-3/4)^n Gamma(n+1/6) Gamma(n+5/6) / (2 pi n!) reduces to a
    rational: Gamma(1/6) Gamma(5/6) = 2 pi by reflection, and the
    remaining factors are prod_{j<n} (j+1/6)(j+5/6).  So each alpha_n is
    alpha_{n-1} times (n-5/6)(n-1/6) (-3/4)/n = -(6n-5)(6n-1)/(48n).
    """
    alphas = [Fraction(1)] if N >= 0 else []
    for n in range(1, N + 1):
        alphas.append(alphas[-1] * Fraction(-(6 * n - 5) * (6 * n - 1), 48 * n))
    return alphas


def airy_alpha(n: int) -> Fraction:
    """Exact rational alpha_n with alpha_n(z) = alpha_n z^{-3n/2}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _airy_alphas(n)[n]


def airy_symbol(N: int) -> WKBSymbol:
    """Airy WKB symbol to order N (exact monomial coefficients)."""
    return WKBSymbol.from_g([PuiseuxSeries.monomial(a, Fraction(-3 * n, 2))
                             for n, a in enumerate(_airy_alphas(N))])


# ---------------------------------------------------------------------------
# Independent oracle: scaled Airy function via mpmath.
# ---------------------------------------------------------------------------

def airy_oracle(z: complex, eps: complex) -> complex:
    """2 sqrt(pi) eps^{-1/6} Ai(z eps^{-2/3}), evaluated independently of any
    contour machinery (mpmath.airyai at the working precision, at least
    30 digits).

    Principal powers of eps are used; Re(eps) > 0 throughout the toolkit.
    """
    with mpmath.workdps(max(30, mpmath.mp.dps)):
        me = mpmath.mpc(eps)
        arg = mpmath.mpc(z) * me ** mpmath.mpf("-2/3")
        val = 2 * mpmath.sqrt(mpmath.pi) * me ** mpmath.mpf("-1/6") \
            * mpmath.airyai(arg)
        return complex(val)


def airy_contour(z: complex, eps: complex, spec: ContourSpec | None = None,
                 g=None) -> LaplaceResult:
    """The truncated integral of exp(-S/eps) * g (g defaults to 1), S = z
    zhat - zhat^3/3, between the valleys at arg zhat = -/+ pi/3 +
    arg(eps)/3, over i sqrt(pi eps).  With g = 1 that is 2 sqrt(pi)
    eps^{-1/6} Ai(z eps^{-2/3}) for every z != 0, normalized like the
    Borel sum of the symbol; confluent_eval passes its kernel as g.  The
    path is the thimble of +sqrt(z) in S1 and S-1, joined by that of
    -sqrt(z) past the Stokes lines.  Tangents: pi/2 - arg(z)/4 +
    arg(eps)/2 (fixed branch) at +sqrt(z), -i times it."""
    if z == 0:
        raise ContourFailure("z = 0 is the turning point; no saddle path")
    S, dS, d2S = airy_S(z)
    root = zpow(z, Fraction(1, 2))
    up = cmath.exp(1j * (math.pi / 2.0 - branch_arg(z) / 4.0
                         + cmath.phase(eps) / 2.0))
    turn = cmath.phase(eps) / 3.0
    raw = valley_integral(S, dS, d2S, [(root, up), (-root, -1j * up)], eps,
                          (turn - math.pi / 3.0, turn + math.pi / 3.0),
                          spec or ContourSpec(), g=g)
    norm = 1.0 / (1j * cmath.sqrt(math.pi * eps))
    return LaplaceResult(value=raw.value * norm,
                         est_error=raw.est_error * abs(norm),
                         nodes_used=raw.nodes_used)


def airy_S(z: complex):
    """S(z, .) = z w - w^3/3 and its first two w-derivatives (vectorized)."""

    def S(w):
        return z * w - w ** 3 / 3.0

    def dS(w):
        return z - w ** 2

    def d2S(w):
        return -2.0 * w

    return S, dS, d2S


# ---------------------------------------------------------------------------
# Borel-Pade-Laplace summation of the symbol.
# ---------------------------------------------------------------------------

def airy_borel_sum(z: complex, eps: complex, N: int,
                   pade: tuple[int, int] | None = None,
                   theta: float = 0.0) -> LaplaceResult:
    """Borel sum of the Airy symbol at (z, eps) via Pade acceleration.

    N counts eps-orders including eps^0, so the minor is built from
    alpha_1 .. alpha_{N-1}; (L, M) larger than the available data is
    clamped down.  theta rotates the Laplace ray (lateral sums).
    """
    sym = airy_symbol(max(N - 1, 0))
    return symbol_borel_sum(sym, z, eps, pade=pade, theta=theta)


def symbol_borel_sum(symbol: WKBSymbol, z: complex, eps: complex,
                     pade: tuple[int, int] | None = None,
                     theta: float = 0.0) -> LaplaceResult:
    """Borel sum of any formal symbol at fixed z along the ray arg xi =
    theta.  pade is (L, M), or None for the balanced (floor(n/2),
    floor(n/2)) on the n minor coefficients."""
    return _ray_sum(symbol, z, eps, _minor_pade(symbol, z, pade), theta)


def _minor_pade(symbol: WKBSymbol, z: complex, pade: tuple[int, int] | None
                ) -> tuple[PadeApproximant, list] | None:
    """The Pade approximant of the symbol's minor at z and its genuine
    poles, None when the symbol stops at eps^0 (no minor)."""
    c = symbol.minor_values(z)
    if len(c) == 0:
        return None
    L, M = (len(c) // 2, len(c) // 2) if pade is None else pade
    approx = pade_from_taylor(c, L, M)
    return approx, genuine_poles(approx)


def _ray_sum(symbol: WKBSymbol, z: complex, eps: complex,
             minor: tuple[PadeApproximant, list] | None,
             theta: float) -> LaplaceResult:
    """prefactor * (1 + int_ray exp(-xi/eps) approx(xi) dxi) along arg xi
    = theta for minor = (approx, its genuine poles); PoleOnRay when one
    of those poles obstructs the ray."""
    res = LaplaceResult(0j, 0.0, 0)
    if minor is not None:
        approx, poles = minor
        check_ray_clear(poles, theta, abs(eps))
        res = laplace_ray(approx, eps, theta=theta)
    pref = symbol.prefactor(z, eps)
    return LaplaceResult(value=pref * (1.0 + res.value),
                         est_error=abs(pref) * res.est_error,
                         nodes_used=res.nodes_used)


def airy_borel_sum_hp(z, eps, N: int, pade: tuple[int, int] | None = None,
                      dps: int = 40):
    """High-precision Borel-Pade-Laplace sum of the Airy symbol.

    Same construction as airy_borel_sum but in mpmath arithmetic
    throughout: exact rational minor coefficients, the shared
    pade_from_taylor (which LU-solves mpmath data at the working
    precision), and the closed-form Laplace transform laplace_pade_mp
    of that approximant along arg xi = 0 (partial fractions and E1, no
    quadrature).  Returns an mpmath mpc.  Needed where the summation
    error sits below the double-precision floor, e.g. to resolve its
    decay as eps shrinks.
    """
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z)
        em = mpmath.mpc(eps)
        th = mpmath.arg(zm)
        if th <= -2 * mpmath.pi / 3:
            th += 2 * mpmath.pi

        def zpow_mp(r):
            return mpmath.exp(mpmath.log(abs(zm)) * r + 1j * th * r)

        c = []
        fact = mpmath.mpf(1)
        for n, a in enumerate(_airy_alphas(N - 1)[1:], start=1):
            c.append(mpmath.mpf(a.numerator) / a.denominator
                     * zpow_mp(mpmath.mpf(-3 * n) / 2) / fact)
            fact *= n
        pref = mpmath.exp(-(mpmath.mpf(2) / 3) * zpow_mp(mpmath.mpf(3) / 2) / em) \
            * zpow_mp(-mpmath.mpf(1) / 4)
        if not c:
            return pref
        L, M = pade if pade is not None else (len(c) // 2, len(c) // 2)
        approx = pade_from_taylor(c, L, M)
        return pref * (1 + laplace_pade_mp(approx, em))


def stokes_jump(z: complex, eps: complex, N: int,
                mirror: bool = False) -> tuple[complex, complex]:
    """Numeric Stokes jump of the Airy symbol across the singular ray.

    With mirror=False, z is expected on L1 (arg z = 2*pi/3): the minor of
    the recessive-branch symbol is then singular on the positive xi ray.
    Returns (jump, predicted) where

        jump      = lateral sum below the ray - lateral sum above it,
        predicted = -i * Borel sum of the eps -> -eps partner symbol,

    so that jump == predicted expresses the alien-derivative relation of
    the model.  The jump orientation (below minus above) is the one under
    which analytic continuation counterclockwise across L1 picks up the
    -i partner term.

    With mirror=True the same check is run on L0 for the partner symbol,
    whose minor is singular on the positive ray when z is real > 0.
    """
    sym = airy_symbol(max(N - 1, 0))
    if mirror:
        sym = sym.flip_eps()
    partner = sym.flip_eps()
    lo, hi = lateral_sums(sym, z, eps)
    jump = lo - hi
    pred = -1j * symbol_borel_sum(partner, z, eps).value
    return jump, pred


def lateral_sums(symbol: WKBSymbol, z: complex,
                 eps: complex) -> tuple[complex, complex]:
    """Lateral Borel sums of a symbol along arg xi = -/+ delta, just below /
    above the singular ray arg xi = 0, delta = LATERAL_DELTA or, if a Pade
    pole obstructs it, the first 1.1, 1.2, ..., 2 LATERAL_DELTA both rays
    clear.  Both rays, at every delta tried, read one balanced Pade
    approximant of the minor (symbol_borel_sum's) and the genuine poles
    found once from it; laplace_ray's graded panels resolve the pole
    string that emulates the cut."""
    minor = _minor_pade(symbol, z, None)
    for k in range(11):
        try:
            delta = LATERAL_DELTA * (1 + k / 10)
            return (_ray_sum(symbol, z, eps, minor, -delta).value,
                    _ray_sum(symbol, z, eps, minor, delta).value)
        except PoleOnRay as err:
            obstructed = err
    raise obstructed
