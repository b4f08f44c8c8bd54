"""The Airy reference model (F = 0).

Closed-form WKB symbol with exact rational coefficients, Borel-Pade-
Laplace summation, an independent contour-integral oracle, and the
numeric Stokes-jump check on the lateral sums.

The orders g_n = alpha_n z^{-3n/2} are monomials, so the Borel minor at z
is lam B(lam xi), lam = z^{-3/2}, with one function of one variable

    B(t) = sum_k alpha_{k+1} t^k / k! = -(5/48) 2F1(7/6, 11/6; 2; -3t/4),

cut along t <= -4/3; the eps -> -eps partner has lam -> -lam.  Pade
approximants commute with that rescaling, so every sum reads one exact
approximant of B per (N, pade), read in rationals off B's one staircase
(_minor_pade) and split per precision (_minor_fractions); each sum, lateral ones
included, is laplace_pade's closed form of that split times the one
prefactor, at either precision (airy_borel_sum_hp passes z as an mpc).
A symbol of F != 0 has no one-variable minor: symbol_borel_sum solves
its minor's approximant at z in double precision, then splits (_split)
and sums it (_borel_sum) the same way.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from fractions import Fraction

import mpmath

from .borel import PartialFractions, exact_pade, laplace_pade, pade_from_taylor, partial_fractions
from .contours import ContourSpec, LaplaceResult, valley_integral
from .errors import ContourFailure
from .series import PuiseuxSeries
from .symbols import WKBSymbol, _prefactor, zpow

# Angle of the lateral Laplace rays either side of the singular ray.
LATERAL_DELTA = math.radians(10.0)
_B_STAIRCASE, _B_LOCK = [[1], [1]], threading.Lock()   # B's Pade staircase (exact_pade)


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


def _refuse_turning_point(z) -> None:
    """ContourFailure at z = 0, where the saddles merge and each g_n blows up."""
    if z == 0:
        raise ContourFailure("z = 0 is the turning point; no saddle path or Borel sum")


def airy_contour(z: complex, eps: complex, spec: ContourSpec | None = None,
                 g=None) -> LaplaceResult:
    """The truncated integral of exp(-S/eps) * g (g defaults to 1), S = z
    zhat - zhat^3/3, between the valleys at arg zhat = -/+ pi/3 +
    arg(eps)/3, over i sqrt(pi eps).  With g = 1 that is 2 sqrt(pi)
    eps^{-1/6} Ai(z eps^{-2/3}) for every z != 0, normalized like the
    Borel sum of the symbol; confluent_eval passes its kernel as g.  The
    path is the thimble of +sqrt(z) in S1 and S-1, joined by that of
    -sqrt(z) past the Stokes lines."""
    _refuse_turning_point(z)
    turn = cmath.phase(eps) / 3.0
    raw = valley_integral((3, -1.0 / 3.0, 4 * z), eps,
                          (turn - math.pi / 3.0, turn + math.pi / 3.0),
                          spec or ContourSpec(), g=g)
    norm = 1.0 / (1j * cmath.sqrt(math.pi * eps))
    return LaplaceResult(raw.value * norm, raw.est_error * abs(norm), raw.nodes_used)


# ---------------------------------------------------------------------------
# Borel-Pade-Laplace summation of the symbol.
# ---------------------------------------------------------------------------

@functools.cache
def _minor_pade(N: int, pade: tuple[int, int] | None):
    """The exact (L, M) = pade Pade approximant of B from alpha_1 .. alpha_{N-1}
    in Fractions (None: index N - 2 of B's staircase); 0/1 for N <= 1."""
    c = [a / math.factorial(k) for k, a in enumerate(_airy_alphas(N - 1)[1:])]
    if pade is None and c:
        with _B_LOCK:
            return exact_pade(c, (len(c) - 1) // 2, len(c) // 2, _B_STAIRCASE)
    return pade_from_taylor(c, *(pade or (0, 0)))


def _split(approx, dps: int | None) -> PartialFractions:
    """approx split into partial fractions at dps digits (None: at 15, so
    30 working, and rounded to complex)."""
    with mpmath.workdps(dps or 15):
        fractions = partial_fractions(approx)
    if dps is None:
        fractions = PartialFractions(*([complex(x) for x in xs] for xs in fractions))
    return fractions


@functools.cache
def _minor_fractions(N: int, pade: tuple[int, int] | None, dps: int | None):
    """_minor_pade's approximant split by _split at dps."""
    return _split(_minor_pade(N, pade), dps)


def _borel_sum(z: complex, eps: complex, sign: int, fractions, lam,
               theta: float) -> LaplaceResult:
    """pref (1 + int_0^inf(ray theta) exp(-xi/eps) lam R(lam xi) dxi) for
    the symbol of that sign, pref its prefactor at the precision of z,
    from fractions = the split of R; the minor's poles are p/lam.
    est_error adds the rounding of pref and of the product, the bound
    that _prefactor returns in units of 2^-52 or of mpmath.eps."""
    res = laplace_pade(fractions, eps, lam, theta)
    pref, rounding = _prefactor(sign, z, eps)
    value = pref * (1.0 + res.value)
    return LaplaceResult(value, abs(pref) * res.est_error + rounding * abs(value), 0)


def _airy_sum(z: complex, eps: complex, fractions, theta: float,
              sign: int) -> LaplaceResult:
    """Borel sum along arg xi = theta of the Airy symbol (sign +1) or its
    partner (sign -1), from fractions = _minor_fractions' split of B's
    approximant: the minor at z is lam B(lam xi), lam = sign z^{-3/2}."""
    _refuse_turning_point(z)
    return _borel_sum(z, eps, sign, fractions, sign * zpow(z, Fraction(-3, 2)), theta)


def airy_borel_sum(z: complex, eps: complex, N: int,
                   pade: tuple[int, int] | None = None,
                   theta: float = 0.0) -> LaplaceResult:
    """Borel sum of the Airy symbol at (z, eps) via Pade acceleration.

    N counts eps-orders including eps^0, so the minor is built from
    alpha_1 .. alpha_{N-1}; (L, M) larger than the available data is
    clamped down.  theta rotates the Laplace ray (lateral sums).
    """
    fractions = _minor_fractions(N, None if pade is None else tuple(pade), None)
    return _airy_sum(z, eps, fractions, theta, 1)


def symbol_borel_sum(symbol: WKBSymbol, z: complex,
                     eps: complex) -> LaplaceResult:
    """Borel sum of any formal symbol at z along arg xi = 0, from the
    balanced Pade approximant of its minor at z, solved in double
    precision on each call (F != 0 has no one-variable minor), split by
    _split and transformed in closed form as the Airy sums are: est_error
    is the rounding of that sum and its prefactor, nodes_used 0."""
    c = symbol.minor_values(z)
    fractions = _split(pade_from_taylor(c, len(c) // 2, len(c) // 2), None)
    return _borel_sum(z, eps, symbol.sign, fractions, 1, 0.0)


def airy_borel_sum_hp(z, eps, N: int, pade: tuple[int, int] | None = None,
                      dps: int = 40):
    """High-precision Borel-Pade-Laplace sum of the Airy symbol: the value
    of airy_borel_sum's, at dps digits from z as an mpc and the split at
    dps.  Returns an mpmath mpc, finite past double range.  Needed where
    the summation error sits below the double-precision floor."""
    fractions = _minor_fractions(N, None if pade is None else tuple(pade), dps)
    with mpmath.workdps(dps):
        return _airy_sum(mpmath.mpc(z), eps, fractions, 0.0, 1).value


def stokes_jump(z: complex, eps: complex, N: int,
                mirror: bool = False) -> tuple[complex, complex]:
    """Numeric Stokes jump of the Airy symbol across the singular ray.

    With mirror=False, z is expected on L1 (arg z = 2*pi/3): the minor of
    the recessive-branch symbol is then singular on the positive xi ray.
    Returns (jump, predicted) where

        jump      = lateral sum below the ray - lateral sum above it,
        predicted = -i * Borel sum of the eps -> -eps partner symbol,

    the lateral sums running along arg xi = -/+ LATERAL_DELTA, so that
    jump == predicted expresses the alien-derivative relation of the
    model.  The jump orientation (below minus above) is the one under
    which analytic continuation counterclockwise across L1 picks up the
    -i partner term.  All three sums read one approximant of B.

    With mirror=True the same check is run on L0 for the partner symbol,
    whose minor is singular on the positive ray when z is real > 0.
    """
    fractions = _minor_fractions(N, None, None)
    sign = -1 if mirror else 1
    lo, hi = (_airy_sum(z, eps, fractions, theta, sign).value
              for theta in (-LATERAL_DELTA, LATERAL_DELTA))
    return lo - hi, -1j * _airy_sum(z, eps, fractions, 0.0, -sign).value
