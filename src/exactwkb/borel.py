"""Pade acceleration of Borel minors and Laplace transforms along rays.

The Borel sum of a symbol is prefactor * (1 + int_ray exp(-xi/eps) R(xi) dxi)
where R is the (L, M) Pade approximant of the truncated minor.  The Pade
pole string emulates the minor's branch cut, which is what makes lateral
sums and the Stokes-jump measurement possible at finite order.  An
approximant's genuine poles do not depend on the ray: they are found
once (genuine_poles), then each ray is checked against them
(check_ray_clear) and integrated (laplace_ray).

One Pade routine serves both precisions: double-precision minors are
solved with numpy, mpmath minors with mpmath.lu_solve at the working
precision.  The double-precision Laplace integral runs on the composite
Gauss-Legendre panels of contours.py.  The mpmath one is exact:
partial_fractions splits R once into its polynomial part and partial
fractions over the polished poles, and laplace_pade_mp transforms each
term in closed form (factorials and the exponential integral E1), for R
or for any rescaling lam R(lam xi) of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from .contours import ContourSpec, LaplaceResult, integrate_polyline
from .errors import ContourFailure, PoleOnRay

FROISSART_TOL = 1e-12  # residues below this fraction of the largest are doublets
GUARD_DIGITS = 15  # mp partial fractions work this many digits above the caller's dps


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant num/den with coefficients in ascending order
    (numpy arrays in double precision, lists of mpmath numbers otherwise).

    poles() and residues() work at both precisions: np.roots in double
    precision; for mpmath data the np.roots values seed Newton's method
    on the denominator at the working precision.
    """

    num: np.ndarray
    den: np.ndarray

    def __call__(self, xi):
        return np.polyval(self.num[::-1], xi) / np.polyval(self.den[::-1], xi)

    def poles(self):
        if len(self.den) <= 1:
            return np.empty(0, dtype=complex)
        if isinstance(self.den, np.ndarray):
            return np.roots(self.den[::-1])
        q = self.den[::-1]
        return [_newton_root(q, mpmath.mpc(s))
                for s in np.roots(np.array([complex(c) for c in q]))]

    def residues(self, ps):
        """num(p)/den'(p) at the poles ps."""
        if isinstance(self.den, np.ndarray):
            dden = np.polyder(self.den[::-1])
            return np.polyval(self.num[::-1], ps) / np.polyval(dden, ps)
        return [mpmath.polyval(self.num[::-1], p)
                / mpmath.polyval(self.den[::-1], p, derivative=True)[1] for p in ps]


def _newton_root(q, p):
    """Polish the root p of the polynomial q (descending mpmath
    coefficients) by Newton's method at the working precision, until a
    step falls below 10^(GUARD_DIGITS - dps) |p|."""
    tol = mpmath.mpf(10) ** (GUARD_DIGITS - mpmath.mp.dps)
    for _ in range(30):
        val, der = mpmath.polyval(q, p, derivative=True)
        if der == 0:
            break
        step = val / der
        p -= step
        if abs(step) <= tol * abs(p):
            return p
    raise ContourFailure(f"Newton's method did not converge to the Pade pole near "
                         f"{complex(p):.6g}")


def pade_from_taylor(c, L: int, M: int) -> PadeApproximant:
    """(L, M) Pade approximant from Taylor coefficients c[0..].

    If fewer than L+M+1 coefficients are available the degrees are
    clamped down (numerator first) to fit the data exactly; a negative
    degree is a ValueError.  mpmath coefficients are solved by LU at the
    working precision and give list coefficients; anything else is
    solved in complex double.
    """
    if L < 0 or M < 0:
        raise ValueError("Pade orders must be nonnegative")
    if len(c) == 0:
        return PadeApproximant(num=np.zeros(1), den=np.ones(1))
    mp = isinstance(c[0], (mpmath.mpf, mpmath.mpc))
    c = list(c) if mp else np.asarray(c, dtype=complex)
    while L + M + 1 > len(c):
        if L >= M:
            L -= 1
        else:
            M -= 1
    den = [mpmath.mpc(1) if mp else 1.0 + 0j]
    if M > 0:
        A = [[c[L + 1 + i - j] if L + 1 + i - j >= 0 else 0 for j in range(1, M + 1)]
             for i in range(M)]
        rhs = [-c[L + 1 + i] for i in range(M)]
        if mp:
            b = mpmath.lu_solve(A, rhs)
        else:
            A, rhs = np.array(A, dtype=complex), np.array(rhs)
            try:
                b = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                b = np.linalg.lstsq(A, rhs, rcond=None)[0]
        den += [b[i] for i in range(M)]
    num = [sum(den[j] * c[k - j] for j in range(min(k, M) + 1)) for k in range(L + 1)]
    wrap = list if mp else np.array
    return PadeApproximant(num=wrap(num), den=wrap(den))


def _ray_distance(p: complex, theta: float) -> float:
    """Distance from p to the ray {t e^{i theta} : t >= 0}."""
    w = p * cmath.exp(-1j * theta)
    if w.real <= 0:
        return abs(p)
    return abs(w.imag)


def genuine_poles(approx: PadeApproximant) -> list:
    """The poles of approx that are not Froissart doublets (spurious
    pole/zero pairs whose residue is below FROISSART_TOL of the largest),
    in np.roots order.  They do not depend on the ray, so one list serves
    every ray tried (check_ray_clear)."""
    ps = approx.poles()
    if len(ps) == 0:
        return []
    rs = approx.residues(ps)
    scale = max(1.0, float(np.max(np.abs(rs))))
    return [p for p, r in zip(ps, rs) if not abs(r) < FROISSART_TOL * scale]


def check_ray_clear(poles, theta: float, eps_scale: float) -> None:
    """Raise PoleOnRay when one of the genuine poles lies within
    0.03 (|p| + eps_scale) of the ray arg xi = theta.  A pole that close
    to xi = 0, where every ray starts, is named as such; any other as
    obstructing this ray."""
    for p in poles:
        margin = 0.03 * (abs(p) + eps_scale)
        if abs(p) < margin:
            raise PoleOnRay(f"Pade pole at {p:.6g} lies within {margin:.3g} of "
                            "xi = 0, where every Laplace ray starts")
        if _ray_distance(p, theta) < margin:
            raise PoleOnRay(
                f"Pade pole at {p:.6g} obstructs the ray arg xi = {theta:.4f}")


def laplace_ray(R, eps: complex, theta: float = 0.0) -> LaplaceResult:
    """int_0^inf(ray theta) exp(-xi/eps) R(xi) dxi in double precision.

    The ray is truncated at T = 60|eps|/cos(theta - arg eps), where the
    weight is e^-60, and integrated on composite Gauss-Legendre panels
    (contours.integrate_polyline, panels sized by the phase xi/eps) over
    the geometrically graded nodes 0, T 0.7^32, ..., T 0.7, T.  The
    grading keeps a Pade pole string just off the ray (lateral sums) a
    fixed multiple of each panel's width away.  The error estimate
    compares the full and halved Gauss-Legendre orders.  Requires
    cos(theta - arg eps) > 0.05.
    """
    phi = theta - cmath.phase(eps)
    if math.cos(phi) <= 0.05:
        raise PoleOnRay(f"ray arg xi = {theta:.4f} is outside the half-plane of eps")
    T = 60.0 * abs(eps) / math.cos(phi)
    rot = cmath.exp(1j * theta)
    nodes = [0j] + [rot * T * 0.7 ** k for k in range(32, -1, -1)]
    return integrate_polyline(lambda xi: np.exp(-xi / eps) * R(xi), nodes,
                              ContourSpec(), phase=lambda xi: xi / eps)[0]


class PartialFractions(NamedTuple):
    """approx = sum_k quo[k] xi^k + sum_j residues[j]/(xi - poles[j])."""

    approx: PadeApproximant
    poles: list
    residues: list
    quo: list


def partial_fractions(approx: PadeApproximant) -> PartialFractions:
    """Split an mpmath approximant at GUARD_DIGITS above the working
    precision, over its poles polished by Newton's method (ContourFailure
    when one cannot be, e.g. a double pole)."""
    with mpmath.workdps(mpmath.mp.dps + GUARD_DIGITS):
        ps = approx.poles()
        rem, den, quo = list(approx.num), approx.den, []
        m = len(den) - 1
        for k in range(len(rem) - 1, m - 1, -1):
            quo.insert(0, rem[k] / den[m])
            for j in range(m + 1):
                rem[k - m + j] -= quo[0] * den[j]
        return PartialFractions(approx, ps, approx.residues(ps), quo)


def laplace_pade_mp(fractions: PartialFractions, eps, lam=1):
    """int_0^inf exp(-xi/eps) lam R(lam xi) dxi along arg xi = 0, in
    closed form, for R = num/den split into its partial fractions and
    Re eps > 0 (PoleOnRay otherwise).

    lam R(lam xi) = sum_k q_k lam^(k+1) xi^k + sum_j r_j/(xi - p_j/lam),
    and term by term
        int exp(-xi/eps) xi^k dxi = k! eps^(k+1),
        int exp(-xi/eps) r/(xi - p) dxi = r exp(-p/eps) E1(-p/eps),
    where the principal E1 integrates along arg xi = arg eps.  A pole
    strictly between that ray and arg xi = 0 adds 2 pi i r exp(-p/eps)
    when arg eps > 0 and subtracts it when arg eps < 0.  Works at
    GUARD_DIGITS above the caller's precision and returns an mpc.

    Raises PoleOnRay when a pole whose residue exceeds the Froissart
    threshold lies on the ray to working precision, and ContourFailure
    when the rescaled partial fractions do not reproduce lam R(lam xi)
    at a test point to 10^-dps relative.
    """
    dps = mpmath.mp.dps
    with mpmath.workdps(dps + GUARD_DIGITS):
        eps, lam = mpmath.mpc(eps), mpmath.mpc(lam)
        if eps.real <= 0:
            raise PoleOnRay("the ray arg xi = 0 is outside the half-plane of eps")
        approx, rs = fractions.approx, fractions.residues
        ps = [p / lam for p in fractions.poles]
        quo = [q * lam ** (k + 1) for k, q in enumerate(fractions.quo)]
        # test point off the ray, at the scale where the Laplace weight lives
        xi = abs(eps) * (1 + 1j)
        want = lam * mpmath.polyval(approx.num[::-1], lam * xi) \
            / mpmath.polyval(approx.den[::-1], lam * xi)
        got = mpmath.polyval(quo[::-1], xi) + mpmath.fsum(r / (xi - p) for p, r in zip(ps, rs))
        if abs(got - want) > mpmath.mpf(10) ** -dps * abs(want):
            raise ContourFailure("partial fractions do not reproduce the Pade approximant")
        scale = max([mpmath.mpf(1)] + [abs(r) for r in rs])
        on_ray = mpmath.mpf(10) ** (-dps / 2)
        arg_eps = mpmath.arg(eps)
        total = mpmath.fsum(q * mpmath.factorial(k) * eps ** (k + 1)
                            for k, q in enumerate(quo))
        for p, r in zip(ps, rs):
            if abs(r) >= FROISSART_TOL * scale and p.real > 0 \
                    and abs(p.imag) <= on_ray * abs(p):
                raise PoleOnRay(f"Pade pole at {complex(p):.6g} lies on the ray arg xi = 0")
            w = p / eps
            term = mpmath.e1(-w)
            arg_p = mpmath.arg(p)
            if 0 < arg_p < arg_eps:
                term += 2j * mpmath.pi
            elif arg_eps < arg_p < 0:
                term -= 2j * mpmath.pi
            total += r * mpmath.exp(-w) * term
        return total
