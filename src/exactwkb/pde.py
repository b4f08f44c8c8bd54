"""The singular PDE behind the quantized canonical transform.

Solves  x^2 psi_xx + (4xz - 2x^2) psi_xz + x^2 psi_zz + (2x - 4z) psi_z
      = x^2 F(z) psi
as a bivariate series psi = sum a_n(z) x^n with a_0 = 1, a_1 = h, by the
coefficient recursion and by the Picard iteration of the integral
equation, whose increments are BivariateSeries carrying the truncation of
F and h.  Checks the explicit convergence-radius and iteration bounds, and
evaluates the induced confluent function by contour integration through
the saddles of S(z, zhat) = z zhat - zhat^3/3 with kernel Psi = psi(z, z - zhat^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .airy import airy_contour, symbol_borel_sum
from .contours import ContourSpec, LaplaceResult, horner
from .errors import ContourFailure, DomainExit
from .series import ExponentTable, PuiseuxSeries, _combine, max_abs_coeff, require_taylor
from .stokes import classify_sector
from .transport import transport_g


@dataclass(frozen=True)
class BivariateSeries:
    """psi(z, x) = sum_{n<=Nx} a_n(z) x^n, each a_n truncated at z^Nz.

    a_list is the exact source of truth.  Numeric evaluation reads its
    ExponentTable, built once per kernel on first use.
    """

    a_list: tuple
    Nx: int
    Nz: int

    def __post_init__(self):
        assert len(self.a_list) == self.Nx + 1

    @cached_property
    def _table(self) -> ExponentTable:
        return ExponentTable(self.a_list)

    def values_at(self, z: complex) -> np.ndarray:
        """[a.eval(z) for a in a_list] as an array (principal branch)."""
        return np.array(self._table.values(z))


def pde_taylor(F: PuiseuxSeries, h: PuiseuxSeries, Nx: int, Nz: int) -> BivariateSeries:
    """Unique formal solution with a_0 = 1, a_1 = h.

    For n >= 2 the ODE  4z a_n' + n a_n = (1/(n-1)) (-a_{n-2}''
    + 2(n-2) a_{n-1}' + F a_{n-2})  is solved by the exact coefficient
    action of its kernel G -> int_0^1 u^{n-1} G(u^4 z) du, which maps
    z^m to z^m/(n+4m); picard_partial_sums_match checks it against the
    independent Picard iteration (picard_deltas).  On terms c z^e the
    right side is a_{n-2} weighted by e(1-e) (shift -2) plus a_{n-1} by
    2(n-2)e (shift -1) plus F a_{n-2}, its term at e then divided by
    (n-1)(n+4e).  ValueError for Nx < 1 or Nz < 0.
    """
    if Nx < 1 or Nz < 0:
        raise ValueError(f"pde orders need Nx >= 1 and Nz >= 0, got {Nx}, {Nz}")
    require_taylor(F, "F")
    require_taylor(h, "h")
    cap = Fraction(Nz + 1)
    # the recursion runs at the inputs' own truncation (exact data stays
    # exact); the retention window Nz is applied at the end
    a = [PuiseuxSeries({0: 1}), h]
    for n in range(2, Nx + 1):
        rhs = [(a[n - 2], -2, (0, 1, -1), (1,))]
        if n > 2:
            rhs.append((a[n - 1], -1, (0, 2 * (n - 2)), (1,)))
        a.append(_combine(rhs + [(F, a[n - 2], 1)], (0, (1,), ((n - 1) * n, 4 * (n - 1)))))
    return BivariateSeries(a_list=tuple(s.with_trunc(min(s.trunc, cap)) for s in a),
                           Nx=Nx, Nz=Nz)


def _require_kernel_of(psi: BivariateSeries, F, h) -> None:
    """ValueError unless psi's a_1 is h and its a_2 is F's image
    sum F_m z^m/(2+4m), compared exactly within psi's truncation."""
    if psi.Nx >= 1 and not (psi.a_list[1] - h).is_zero():
        raise ValueError("psi is not the kernel of the given h (its a_1 differs)")
    if psi.Nx >= 2 and not (psi.a_list[2].is_taylor() and (  # (2 + 4e) is 0 at e = -1/2
            _combine([(psi.a_list[2], 0, (2, 4), (1,))]) - F).is_zero()):
        raise ValueError("psi is not the kernel of the given F (its a_2 differs)")


def pde_residual(psi: BivariateSeries, F: PuiseuxSeries):
    """Largest retained coefficient of the PDE applied to psi.

    Assembles x^2 psi_xx + (4xz - 2x^2) psi_xz + x^2 psi_zz
    + (2x - 4z) psi_z - x^2 F psi and takes the max coefficient magnitude
    over x-orders 0..Nx and retained z-orders (exact zero for pde_taylor
    output in exact mode).  On terms c z^e x^n's coefficient is a_n
    weighted by (n-1)(n+4e), plus a_{n-1} by -2(n-2)e (shift -1), plus
    a_{n-2} by e(e-1) (shift -2), minus F a_{n-2}.
    """
    a, negF = psi.a_list, -F
    terms = []
    for n in range(psi.Nx + 1):
        term = [(a[n], 0, ((n - 1) * n, 4 * (n - 1)), (1,))]
        if n >= 1:
            term.append((a[n - 1], -1, (0, -2 * (n - 2)), (1,)))
        if n >= 2:
            term += [(a[n - 2], -2, (0, -1, 1), (1,)), (negF, a[n - 2], 1)]
        terms.append(_combine(term))
    return max_abs_coeff(terms)


@dataclass(frozen=True)
class RadiusReport:
    """Explicit convergence data for the kernel's polydisk."""

    r0: float
    r1: float
    d0: float
    R: float
    r_prime: float
    M: float

    def __post_init__(self):
        assert 0 < self.r0 < self.r1
        assert self.d0 == self.r1 - self.r0
        assert self.r_prime <= self.R


def convergence_radius(r0: float, r1: float, R: float,
                       F_norm: float, h_norm: float) -> RadiusReport:
    """r' = min{(3 r1 / 2e)(-1 + sqrt(1 + 4 r0 d0/(9 e r1^2))), R} and
    M = h_norm + (R/2) F_norm."""
    if not (0 < r0 < r1):
        raise ValueError("need 0 < r0 < r1")
    if R <= 0:
        raise ValueError("need R > 0")
    if F_norm < 0 or h_norm < 0:
        raise ValueError("norms must be nonnegative")
    d0 = r1 - r0
    e = math.e
    formula = (3.0 * r1 / (2.0 * e)) * (-1.0 + math.sqrt(
        1.0 + 4.0 * r0 * d0 / (9.0 * e * r1 * r1)))
    r_prime = min(formula, R)
    M = h_norm + 0.5 * R * F_norm
    return RadiusReport(r0=r0, r1=r1, d0=d0, R=R, r_prime=r_prime, M=M)


def iteration_bound(k: int, x_abs: float, s: float, M: float,
                    F_norm: float, r0: float, d0: float, r1: float) -> float:
    """Picard-increment bound M (e |x| (alpha_k |x| + beta)/(r0 d0 (1-s)))^k
    with alpha_k = 1 + r0 d0 (1-s) F_norm / k and beta = 3 r1 (k = 0: M)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0 <= s < 1:
        raise ValueError("need 0 <= s < 1")
    if k == 0:
        return M
    alpha_k = 1.0 + r0 * d0 * (1.0 - s) * F_norm / k
    beta = 3.0 * r1
    return M * (math.e * x_abs * (alpha_k * x_abs + beta)
                / (r0 * d0 * (1.0 - s))) ** k


def psi_eval(psi: BivariateSeries, z: complex, x: complex,
             warn=None) -> complex:
    """Horner evaluation with a crude tail estimate from the last terms.

    Calls ``warn(message)`` when the empirical term-ratio test indicates
    divergence at this (z, x).
    """
    vals = psi.values_at(z)
    mags = np.abs(vals * (complex(x) ** np.arange(psi.Nx + 1)))
    if psi.Nx >= 4 and mags[-1] > 0 and mags[-2] > 0:
        ratio = (mags[-1] / mags[-2] + mags[-2] / mags[-3]) / 2.0
        if ratio >= 1.0 and warn is not None:
            warn(f"ratio test {ratio:.3f} >= 1 at z={z}, x={x}: "
                 "outside the empirical convergence domain")
    return complex(horner(vals[::-1])(complex(x)))


def empirical_x_radius(psi: BivariateSeries, z_abs: float) -> float:
    """Root-test estimate of the x-convergence radius at |z| = z_abs,
    from |a_n(z)|^(-1/n) for n = max(2, Nx - 10) .. Nx at 8 equally
    spaced angles; the kernel's table evaluates only those a_n."""
    best = math.inf
    n0 = max(2, psi.Nx - 10)
    for j in range(8):
        z = z_abs * cmath.exp(2j * math.pi * j / 8)
        for n, v in enumerate(np.abs(psi._table.values(z, first=n0)), n0):
            if v > 0:
                best = min(best, v ** (-1.0 / n))
    return best


# ---------------------------------------------------------------------------
# Exact Picard iteration (the integral-equation route).
# ---------------------------------------------------------------------------

def picard_deltas(F: PuiseuxSeries, h: PuiseuxSeries, K: int,
                  Nx: int, Nz: int) -> list[BivariateSeries]:
    """Exact increments delta_k of the Picard iteration for
    phi(z, x) = psi/x - 1/x, each a BivariateSeries (its x-orders 0..Nx).

    delta_0 is h plus x F_m z^m/(4m+2).  On terms c z^m of an x-order n
    part the integral operators of the fixed-point equation are diagonal:
    2x int u d_z delta - int int 2 d_z delta goes to x^{n+1} weighted by
    2mn (shift -1); - int int t d_z^2 delta to x^{n+2} by -m(m-1) (shift
    -2); and int int t F delta to x^{n+2} as
    F delta.  Each x^p part is one _combine, its z^M term divided by
    p(4M+p+1) in the final map.  Each round draws on z-orders up to two
    higher, so F and h are cut at z^{Nz+2K+1} and the series truncation
    drops what K rounds no longer know; a truncated F or h carries into
    every delta.  sum_k delta_k reproduces the a_{n+1} of pde_taylor
    (tested), and each increment obeys the explicit sup-norm bound
    checked in the acceptance suite.
    """
    require_taylor(F, "F")
    require_taylor(h, "h")
    window = Fraction(Nz + 2 * K + 1)
    F, h = (s.with_trunc(min(s.trunc, window)) for s in (F, h))
    zero = PuiseuxSeries.zero()
    delta0 = [h, _combine([(F, 0, (1,), (2, 4))])] + [zero] * (Nx - 1)
    deltas = [delta0[:Nx + 1]]
    for _ in range(K):
        d, nxt = deltas[-1], [zero]
        for p in range(1, Nx + 1):
            terms = [(d[p - 1], -1, (0, 2 * (p - 1)), (1,))]
            if p >= 2:
                terms += [(d[p - 2], -2, (0, 1, -1), (1,)), (F, d[p - 2], 1)]
            nxt.append(_combine(terms, (0, (1,), (p * (p + 1), 4 * p))))
        deltas.append(nxt)
    cap = Fraction(Nz + 1)
    return [BivariateSeries(a_list=tuple(s.with_trunc(min(s.trunc, cap)) for s in d),
                            Nx=Nx, Nz=Nz) for d in deltas]


def picard_partial_sums_match(F, h, K, Nx, Nz) -> bool:
    """sum_{k<=K} delta_k == a_{n+1} of pde_taylor, below both
    truncations, on the x-orders n that K iterations have already frozen
    (order n needs k > n since each iteration raises the x-valuation by
    at least one)."""
    deltas = picard_deltas(F, h, K, Nx, Nz)
    psi = pde_taylor(F, h, Nx + 1, Nz)
    return all((_combine([d.a_list[n] for d in deltas]) - psi.a_list[n + 1]).is_zero()
               for n in range(min(K, Nx + 1)))


def delta_sup_on_disk(delta: BivariateSeries, x_abs: float, r: float) -> float:
    """Empirical sup over |z| = r (12 equally spaced angles) of
    |delta_k(z, x)| at x = x_abs, -x_abs and i x_abs."""
    xs = np.array([x_abs, -x_abs, x_abs * 1j])
    return max(float(np.max(np.abs(horner(
        delta.values_at(r * cmath.exp(2j * math.pi * j / 12))[::-1])(xs)))) for j in range(12))


# ---------------------------------------------------------------------------
# Confluent function: truncated contour integral of the kernel.
# ---------------------------------------------------------------------------

def confluent_eval(F: PuiseuxSeries, h: PuiseuxSeries, z: complex, eps: complex,
                   spec: ContourSpec | None = None,
                   Nx: int = 40, Nz: int = 40,
                   psi: BivariateSeries | None = None) -> LaplaceResult:
    """Confluent-function value at (z, eps), normalized like the Airy model.

    Evaluates int exp(-S(z, zhat)/eps) psi(z, z - zhat^2) dzhat along the
    Airy model's contour between two valleys and divides by i sqrt(pi
    eps): airy_contour with the kernel as g, so that for F = 0, h = 0 the
    value coincides with airy_contour's.  The path is truncated
    where |z - zhat^2| exceeds the kernel's empirical convergence radius
    (DomainExit for explicit paths that violate it).  z = 0 is the
    turning point and raises ContourFailure, as in airy_contour; so does
    a z at which a power of z in the kernel overflows.

    Without psi, Nx < 1 or Nz < 0 raises ValueError, as in pde_taylor.
    A given psi is used as is, so Nx and Nz are then ignored; it must be
    the kernel of F and h (its a_1 and a_2 are compared exactly with h
    and F's image, ValueError otherwise).  The a_n(z) come from psi's
    numeric table (built once per kernel; the exact a_list is untouched)
    and are taken once per call: every path node shares the same z.
    """
    if psi is None:
        psi = pde_taylor(F, h, Nx, Nz)
    else:
        _require_kernel_of(psi, F, h)
    try:
        vals, r = psi.values_at(z), empirical_x_radius(psi, abs(z))
    except OverflowError:
        raise ContourFailure(f"a power of |z| = {abs(z):.6g} in the kernel overflows "
                             "double precision") from None
    x_cap = 0.8 * r if math.isfinite(r) else 1e6
    bad = [w for w in (spec.path if spec else None) or ()
           if abs(z - w * w) > x_cap]
    if bad:
        raise DomainExit(f"path node {bad[0]:.4g} has |z - zhat^2| > {x_cap:.4g}")
    spec = replace(spec or ContourSpec(), x_cap=x_cap)  # on |S'| = |z - zhat^2|

    x_sum = horner(vals[::-1])

    def g(w):
        return x_sum(z - w * w)

    return airy_contour(z, eps, spec, g=g)


def local_decomposition(F: PuiseuxSeries, h: PuiseuxSeries, z: complex,
                        eps_grid, N: int = 30, Nx: int = 40, Nz: int = 40) -> dict:
    """Compare the confluent function against its sector decomposition.

    In S1 and S-1 the (normalized) confluent value is matched against the
    Borel sum of the elementary symbol; in S2 against the two-term
    combination sum(Phi+) + i sum(Phi-); the one-term residual is reported
    alongside for the Stokes-jump visibility check.  The induced symbol
    equals the elementary one at h = 0 only to leading order; for the
    general member the comparison is asymptotic (errors shrink with eps).

    The sector is classify_sector(z)'s: S1 is 0 < arg z < 2 pi/3 (between
    L0 and L1, counterclockwise), S2 is 2 pi/3 < arg z < 4 pi/3, S-1 is
    -2 pi/3 < arg z < 0.  A z on a Stokes line (or z = 0) is a ValueError.
    """
    sector = classify_sector(z)
    if sector.startswith("ON_LINE:"):
        raise ValueError(f"z = {z:.6g} lies on the Stokes line {sector[8:]}")
    sym = transport_g(F, N - 1)
    psi = pde_taylor(F, h, Nx, Nz)
    rows = []
    for eps in eps_grid:
        conf = confluent_eval(F, h, z, eps, psi=psi, Nx=Nx, Nz=Nz)
        plus = symbol_borel_sum(sym, z, eps).value
        if sector == "S2":
            two = plus + 1j * symbol_borel_sum(sym.flip_eps(), z, eps).value
            rows.append({"eps": eps, "confluent": conf.value, "model": two,
                         "rel_err": abs(conf.value - two) / abs(two),
                         "one_term_rel_err": abs(conf.value - plus) / abs(plus)})
        else:
            rows.append({"eps": eps, "confluent": conf.value, "model": plus,
                         "rel_err": abs(conf.value - plus) / abs(plus)})
    return {"sector": sector, "rows": rows}
