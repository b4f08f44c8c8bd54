"""Formal WKB symbols for the canonical simple-turning-point model.

A symbol is exp(-sigma*(2/3) z^{3/2}/eps) * z^{-1/4} * sum_n g_n(z) eps^n
with the quarter-power prefactor kept factored so that the g_n live on
the half-integer exponent lattice.

Branch convention (used by every sector-dependent computation): the
determinations of z^{3/2} and z^{1/4} are fixed to be positive real on
the Stokes line L0 (z real > 0), with the cut placed along
arg z = 4*pi/3 == -2*pi/3, i.e. arguments are reduced to the interval
(-2*pi/3, 4*pi/3].  zpow, action and the prefactor take the precision
of z: double, or mpmath's for an mpmath z, on branch_arg's sheet.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ContourFailure
from .series import EpsSeries, ExponentTable, PuiseuxSeries

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def branch_arg(z: complex) -> float:
    """Argument of z reduced to the cut convention (-2*pi/3, 4*pi/3]."""
    th = cmath.phase(z)
    if th <= -_TWO_THIRDS_PI:
        th += 2.0 * math.pi
    return th


@functools.lru_cache(maxsize=8)
def _mp_log(z, prec: int):
    """log z at the working precision, prec bits, on branch_arg's sheet;
    kept for the last few z, so that one sum's powers of z take one log."""
    log = mpmath.log(z)
    return log + 2j * mpmath.pi if branch_arg(complex(z)) > float(log.imag) + math.pi else log


def zpow(z: complex, e) -> complex:
    """z**e = exp(e log z) on the branch that is positive real along L0,
    in double, or at mpmath's precision for an mpmath z (_mp_log)."""
    if z == 0:
        if e == 0:
            return 1 + 0j
        return 0j if e > 0 else complex("inf")
    if isinstance(z, (mpmath.mpf, mpmath.mpc)):
        return mpmath.exp(mpmath.mpmathify(e) * _mp_log(z, mpmath.mp.prec))
    e = float(e)
    return cmath.exp(complex(math.log(abs(z)) * e, branch_arg(z) * e))


def action(z: complex) -> complex:
    """(2/3) z^{3/2} on the fixed branch, at the precision of z."""
    w = zpow(z, Fraction(3, 2))
    return (2.0 / 3.0 if isinstance(w, complex) else mpmath.mpf(2) / 3) * w


# Every symbol carries the quarter-power prefactor z^PREFACTOR_EXP.
PREFACTOR_EXP = Fraction(-1, 4)


def _prefactor(sign: int, z: complex, eps: complex) -> tuple:
    """(exp(x) z^PREFACTOR_EXP, unit (2 + |x|)), x = -sign (2/3) z^{3/2}/eps,
    at the precision of z (unit 2^-52 or mpmath.eps): x's rounding moves
    exp(x) by unit |x|, and two products round.  ContourFailure when exp(x)
    overflows double precision, x included (an mpmath one never does)."""
    try:
        x = -sign * action(z) / eps
        m, unit = (cmath, 2.0 ** -52) if isinstance(x, complex) else (mpmath, mpmath.eps)
        return m.exp(x) * zpow(z, PREFACTOR_EXP), unit * (2.0 + abs(x))
    except OverflowError:
        raise ContourFailure(f"prefactor exp(-(2/3) z^(3/2)/eps) overflows double precision "
                             f"at z = {complex(z):.6g}") from None


@dataclass(frozen=True)
class WKBSymbol:
    """Formal WKB solution data.

    sign is sigma in exp(-sigma*(2/3) z^{3/2}/eps): +1 for the symbol
    recessive along L0, -1 for its eps -> -eps partner.
    """

    sign: int
    eps_coeffs: tuple

    def __post_init__(self):
        assert self.sign in (+1, -1)

    @property
    def order(self) -> int:
        return len(self.eps_coeffs) - 1

    @classmethod
    def from_g(cls, gs) -> "WKBSymbol":
        """The sign = +1 symbol with orders g_0, g_1, ..."""
        return cls(sign=+1, eps_coeffs=tuple(gs))

    def series(self) -> PuiseuxSeries:
        """sum_n g_n eps^n, an eps-series known below eps^(order+1)."""
        return EpsSeries(self.eps_coeffs).series()

    def flip_eps(self) -> "WKBSymbol":
        """The eps -> -eps partner symbol."""
        gs = [g if n % 2 == 0 else -g for n, g in enumerate(self.eps_coeffs)]
        return WKBSymbol(sign=-self.sign, eps_coeffs=tuple(gs))

    def prefactor(self, z: complex, eps: complex) -> complex:
        return _prefactor(self.sign, z, eps)[0]

    def g_values(self, z: complex) -> np.ndarray:
        """g_n(z) on the fixed branch, n = 0..order."""
        return np.array(ExponentTable(self.eps_coeffs).values(z, zpow))

    def truncated_sum(self, z: complex, eps: complex, orders: int | None = None) -> complex:
        """Plain truncated summation (divergent series; use few orders)."""
        n = self.order + 1 if orders is None else min(orders, self.order + 1)
        vals = self.g_values(z)[:n]
        powers = eps ** np.arange(n)
        return self.prefactor(z, eps) * np.dot(vals, powers)

    def minor_values(self, z: complex) -> np.ndarray:
        """Taylor coefficients of R, the minor of the eps-series part at z
        being lam R(lam xi), lam = sign z^{-3/2}: (sign z^{3/2})^n
        g_n/(n-1)!, n >= 1, each g_n times that monomial exactly, then
        evaluated on the fixed branch (alpha_n/(n-1)! for the Airy symbol).
        ContourFailure where a value leaves double precision."""
        table = ExponentTable([g * PuiseuxSeries.monomial(
            Fraction(self.sign ** n, math.factorial(n - 1)), Fraction(3 * n, 2))
            for n, g in enumerate(self.eps_coeffs[1:], start=1)])
        try:
            values = np.array(table.values(z, zpow), dtype=complex)
            if np.isfinite(values).all():
                return values
        except OverflowError:
            pass
        raise ContourFailure(f"the Borel minor at z = {z:.6g} leaves double precision")
