"""Pade acceleration of Borel minors and Laplace transforms along rays.

The Borel sum of a symbol is prefactor * (1 + int_ray exp(-xi/eps) R(xi) dxi)
where R is the (L, M) Pade approximant of the truncated minor.  The Pade
pole string emulates the minor's branch cut, which is what makes lateral
sums and the Stokes-jump measurement possible at finite order.  Only
laplace_pade decides whether a ray is clear of the genuine poles
(genuine_poles), at a margin set by the precision of the split.

pade_from_taylor reads rational Taylor coefficients' approximant off a
staircase of the Pade table (exact_pade) and solves others in complex
double precision.  partial_fractions splits any approximant
at any precision into its polynomial part and partial fractions (poles
and residues from one fixed-point integer Horner kernel, _horner), and
laplace_pade transforms each term in closed form (factorials and the
exponential integral E1) along any ray in the half-plane of eps, for R
or any rescaling lam R(lam xi) of it: in mpmath with _expe1_mp, or with
the split rounded to complex in double precision with _expe1, as every
Borel sum of the package does.  Both take e^x E1(x) from the continued
fraction of Abramowitz & Stegun 5.1.22 where it converges fast and from
a series elsewhere: _expe1 by its own rules, _expe1_mp in fixed-point
integers for |x| >= 16 and |arg x| <= 3 pi/4, and mpmath.e1 otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from .contours import LaplaceResult
from .errors import ContourFailure, PoleOnRay, SeriesError

FROISSART_TOL = 1e-12  # residues below this fraction of the largest are doublets
GUARD_DIGITS = 15  # mp partial fractions work this many digits above the caller's dps


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant num/den with coefficients in ascending order:
    lists of Fractions when solved exactly, of complex numbers when solved
    in double precision, of mpmath numbers once split (partial_fractions).

    poles() and residues() work on mpmath data, in integers (_horner):
    np.roots values seed Newton's method on the denominator at the
    working precision, in real arithmetic for the real roots of a real
    denominator, whose complex roots come in conjugate pairs.
    """

    num: list
    den: list

    def poles(self):
        q = self.den[::-1]
        real, cs = all(isinstance(c, mpmath.mpf) for c in q), _gauss(q)[0]
        ps = [_newton_root(cs, s, real and s.imag == 0)
              for s in np.roots(np.array(q, dtype=float if real else complex))
              if not (real and s.imag < 0)]
        return ps + [p.conjugate() for p in ps if real and p.imag > 0]

    def residues(self, ps):
        """num(p)/den'(p) at the poles ps (_horner); an mpf where p and it are real."""
        (a, fa), (b, fb) = _gauss(self.num[::-1]), _gauss(self.den[::-1])
        rs, wp = [], mpmath.mp.prec + 20
        for p in ps:
            [(x, y)], f = _gauss([p], wp)
            (nr, ni, _, _), (_, _, dr, di) = _horner(a, x, y, f), _horner(b, x, y, f)
            m = dr * dr + di * di       # k keeps wp bits or more of the quotient
            k = max(0, wp + 2 + m.bit_length() // 2 - max(abs(nr), abs(ni)).bit_length())
            re, im = (mpmath.ldexp((u << k) // m, fb - fa - k)
                      for u in (nr * dr + ni * di, ni * dr - nr * di))
            rs.append(re if isinstance(p, mpmath.mpf) and not im else mpmath.mpc(re, im))
        return rs


def _gauss(xs, bits=None):
    """mpmath or double values xs as ([(re, im)], f): Gaussian integers in
    units of 2^-f, exact, or truncated to keep bits bits of the largest part."""
    ts = [t for x in map(mpmath.mpmathify, xs)
          for t in ((x._mpf_, (0, 0, 0, 0)) if isinstance(x, mpmath.mpf) else x._mpc_)]
    f = (-min([e for _, m, e, _ in ts if m] or [0]) if bits is None
         else max(0, bits - max([e + n for _, m, e, n in ts if m] or [0])))
    ns = [(-1) ** s * (m << (e + f) if e + f >= 0 else m >> -(e + f)) for s, m, e, _ in ts]
    return list(zip(ns[::2], ns[1::2])), f


def _horner(cs, x, y, f):
    """Fixed-point Horner: (vr, vi, dr, di) = cs(t), cs'(t) at t = (x + i y) 2^-f, units 2^-f."""
    vr = vi = dr = di = 0
    for a, b in cs:
        dr, di = ((dr * x - di * y) >> f) + vr, ((dr * y + di * x) >> f) + vi
        vr, vi = ((vr * x - vi * y) >> f) + (a << f), ((vr * y + vi * x) >> f) + (b << f)
    return vr, vi, dr, di


def _newton_root(cs, s, real):
    """The root of cs (_gauss's) by Newton's method (_horner) from the complex seed s, until
    a step falls below 10^(GUARD_DIGITS - dps) |p|: an mpf if real, else an mpc."""
    [(x, y)], f = _gauss([complex(s)], mpmath.mp.prec + 20)
    for _ in range(30):
        vr, vi, dr, di = _horner(cs, x, y, f)
        if not (m := dr * dr + di * di):
            break
        sr, si = ((vr * dr + vi * di) << f) // m, ((vi * dr - vr * di) << f) // m
        x, y = x - sr, y - si
        if (sr * sr + si * si) * 100 ** mpmath.mp.dps <= (x * x + y * y) * 100 ** GUARD_DIGITS:
            re, im = mpmath.ldexp(x, -f), mpmath.ldexp(y, -f)
            return re if real else mpmath.mpc(re, im)
    raise ContourFailure(f"Newton's method did not converge to the Pade pole near "
                         f"{complex(x / 2 ** f, y / 2 ** f):.6g}")


def pade_from_taylor(c, L: int, M: int) -> PadeApproximant:
    """(L, M) Pade approximant from Taylor coefficients c[0..].

    If fewer than L+M+1 coefficients are available the degrees are
    clamped down (numerator first) to fit the data exactly; a negative
    degree is a ValueError.  int and Fraction coefficients give the exact
    approximant in Fractions, from a staircase of the Pade table of its
    own (exact_pade).  mpmath coefficients are a TypeError (their solve
    would be rounded); anything else is solved in complex double, into
    lists of complex.
    """
    if L < 0 or M < 0:
        raise ValueError("Pade orders must be nonnegative")
    if len(c) == 0:
        return PadeApproximant(num=[0j], den=[1 + 0j])
    if any(isinstance(x, (mpmath.mpf, mpmath.mpc)) for x in c):
        raise TypeError("Pade coefficients must be exact or double, not mpmath numbers")
    exact = all(isinstance(x, (int, Fraction)) for x in c)
    c = [Fraction(x) if exact else complex(x) for x in c]
    while L + M + 1 > len(c):
        if L >= M:
            L -= 1
        else:
            M -= 1
    if exact:
        return exact_pade(c[:L + M + 1], L, M, [[1], [1]])
    A = np.array([[c[L + 1 + i - j] if L + 1 + i - j >= 0 else 0 for j in range(1, M + 1)]
                  + [-c[L + 1 + i]] for i in range(M)], dtype=complex).reshape(M, M + 1)
    try:
        b = np.linalg.solve(A[:, :M], A[:, M])
    except np.linalg.LinAlgError:
        b = np.linalg.lstsq(A[:, :M], A[:, M], rcond=None)[0]
    den = [1 + 0j] + b.tolist()
    num = [sum(den[j] * c[k - j] for j in range(min(k, M) + 1)) for k in range(L + 1)]
    return PadeApproximant(num=num, den=den)


def exact_pade(c, L: int, M: int, qs: list) -> PadeApproximant:
    """The (L, M) Pade approximant of the L + M + 1 Fractions c, in Fractions,
    off the staircase [0/0], [0/1], [1/1], [1/2], ... of one series: c if
    L = M or M - 1; if L > M, the tail c[L - M:], whose [M/M] has [L/M]'s
    den (the shift identity); if L < M - 1, 1/c ([L/M] is 1/[M/L] of 1/c,
    the reciprocal identity).  qs = [Q_-1, Q_0, ...] holds the staircase's
    dens, content-free ints (Q_-1 = Q_0 = [1], Q_k of ceil(k/2) + 1 terms),
    extended in place by Q_(k+1) = e_(k-1) Q_k - e_k t Q_(k-1) over their
    gcd, e_k the t^(k+1) coefficient of the series times Q_k (Baker &
    Graves-Morris, Pade Approximants, 2nd ed., CUP 1996); num is the series
    times den cut at t^L.  SeriesError if c[0] = 0 below the staircase or an
    e_(k-1) is 0 (a singular system of index k + 1 on the way), even if the
    (L, M) system is not."""
    msg, flip = f"the ({L}, {M}) Pade system is singular", L < M - 1
    if flip:
        if not c[0]:
            raise SeriesError(msg)
        r = [1 / c[0]]
        for k in range(1, len(c)):
            r.append(-sum(c[j] * r[k - j] for j in range(1, k + 1)) / c[0])
        c, L, M = r, M, L
    d = math.lcm(*(x.denominator for x in c))
    C = [x.numerator * (d // x.denominator) for x in c]
    S = C[max(L - M, 0):]
    while len(qs) <= len(S):
        k = len(qs) - 2
        f, e = (sum(q * S[m + 1 - j] for j, q in enumerate(qs[m + 1])) for m in (k - 1, k))
        if not f:
            raise SeriesError(msg)
        g = math.gcd(f, e)
        q = [f // g * a - e // g * b for a, b in zip(qs[-1] + [0], [0] + qs[-2])]
        qs.append([x // g for g in [math.gcd(*q)] for x in q])
    Q = qs[len(S)]
    num = [sum(Q[j] * C[k - j] for j in range(min(k, M) + 1)) for k in range(L + 1)]
    den = [d * x for x in Q]
    if flip:
        num, den = den, num
    return PadeApproximant([Fraction(x, den[0]) for x in num], [Fraction(x, den[0]) for x in den])


def genuine_poles(pairs) -> list:
    """The poles of the (pole, residue) pairs that are not Froissart
    doublets (spurious pole/zero pairs whose residue is below
    FROISSART_TOL of the largest), in their order: the poles that
    laplace_pade checks against its ray."""
    pairs = [(p, abs(complex(r))) for p, r in pairs]     # |r| in double
    scale = max([1.0] + [a for _, a in pairs])
    return [p for p, a in pairs if not a < FROISSART_TOL * scale]


class PartialFractions(NamedTuple):
    """R = sum_k quo[k] xi^k + sum_j residues[j]/(xi - poles[j]), in
    mpmath numbers or rounded to complex."""

    poles: list
    residues: list
    quo: list


def partial_fractions(approx: PadeApproximant) -> PartialFractions:
    """Split an approximant at GUARD_DIGITS above the working precision,
    its poles and residues in integers (_horner); Fractions are divided
    at that precision, other coefficients converted exactly.
    ContourFailure when a pole cannot be polished (e.g. a double pole) or
    the split misses the approximant by 10^-dps relative at a test point."""
    dps = mpmath.mp.dps
    with mpmath.workdps(dps + GUARD_DIGITS):
        num, den = ([mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction)
                     else mpmath.mpmathify(x) for x in xs] for xs in (approx.num, approx.den))
        approx = PadeApproximant(num, den)
        ps = approx.poles()
        rs = approx.residues(ps)
        rem, quo = list(num), []
        m = len(den) - 1
        for k in range(len(rem) - 1, m - 1, -1):
            quo.insert(0, rem[k] / den[m])
            for j in range(m + 1):
                rem[k - m + j] -= quo[0] * den[j]
        t = mpmath.mpc(0.6, 0.8)
        want = mpmath.polyval(num[::-1], t) / mpmath.polyval(den[::-1], t)
        got = mpmath.polyval(quo[::-1], t) + mpmath.fsum(r / (t - p) for p, r in zip(ps, rs))
        if abs(got - want) > mpmath.mpf(10) ** -dps * abs(want):
            raise ContourFailure("partial fractions do not reproduce the Pade approximant")
        return PartialFractions(list(ps), rs, quo)


def _expe1(x: complex) -> complex:
    """e^x E1(x) in double precision on the principal branch, cut along
    x <= 0; the sign of a zero imaginary part picks the side of the cut.
    The power series (Abramowitz & Stegun 5.1.11) serves near 0 and next
    to the cut, where its terms cancel by at most e^4; Lentz's continued
    fraction (A&S 5.1.22) elsewhere up to |x| = 50, and the asymptotic
    series past it, with the -/+ i pi e^x that E1 gains next to the cut."""
    if abs(x) > 50:
        term = s = 1 / x
        k = 0
        while abs(term) > 2.0 ** -54 * abs(s):
            k += 1
            term *= -k / x
            s += term
        if x.real < 0 and abs(x.imag) < -x.real / 4:
            s -= math.copysign(math.pi, x.imag) * 1j * cmath.exp(x)
        return s
    if abs(x) <= 2 or abs(x) + x.real < 4:
        term, s, k = -x, -x, 1
        while abs(term) > 2.0 ** -54 * k * abs(s):
            k += 1
            term *= -x / k
            s += term / k
        return cmath.exp(x) * (-np.euler_gamma - cmath.log(x) - s)
    b, c = x + 1, 1e300
    h = d = 1 / b
    for i in range(1, 500):
        b += 2
        d, c = 1 / (b - i * i * d), b - i * i / c
        h *= c * d
        if abs(c * d - 1) < 2.0 ** -53:
            break
    return h


def _expe1_mp(x):
    """e^x E1(x) at mpmath's working precision on the principal branch,
    for an mpc x or a real mpf one.  For |x| >= 16 and |arg x| <= 3 pi/4
    it is _expe1's continued fraction h = 1/(b_0 - 1^2/(b_1 - 2^2/(b_2 -
    ...))), b_k = x + 2k + 1, cut at the depth n where its convergents
    A_k/B_k step by at most 2^-wp of h_0 = 1/b_0, wp = mp.prec + 20 bits.
    A double-precision pass finds n from |h_k - h_(k-1)| = (k!)^2/|B_k
    B_(k-1)| and the ratios B_k/B_(k-1) = b_k - k^2 B_(k-2)/B_(k-1).  The
    fraction is then summed backward from k = n in fixed-point Python ints
    (units of 2^-wp, as mpmath's own series), its tail as a pair P/Q:
    (P, Q) -> (-k^2 Q, b_k Q + P), one complex product a step, with Q
    kept at wp + 16 to wp + 48 bits.  Elsewhere (small |x|, next to the
    cut) and past 400 steps, mpmath.exp(x) * mpmath.e1(x)."""
    cx, wp = complex(x), mpmath.mp.prec + 20
    r, step, tol, n = cx + 1, 1.0, 2.0 ** -wp, 0
    if abs(cx) >= 16 and abs(cmath.phase(cx)) <= 0.75 * math.pi:
        while step > tol and n < 400:
            n += 1
            s = cx + (2 * n + 1) - n * n / r
            step *= n * n / (abs(s) * abs(r))
            r = s
    if step > tol:
        return mpmath.exp(x) * mpmath.e1(x)
    one = 1 << wp
    xre, xim = int(mpmath.ldexp(x.real, wp)), int(mpmath.ldexp(x.imag, wp))
    pre = pim = 0
    qre, qim, top = one << 16, 0, wp + 48
    for k in range(n, 0, -1):
        bre = xre + (2 * k + 1) * one
        pre, pim, qre, qim = -k * k * qre, -k * k * qim, \
            ((bre * qre - xim * qim) >> wp) + pre, ((bre * qim + xim * qre) >> wp) + pim
        if qre.bit_length() > top or qim.bit_length() > top:
            pre, pim, qre, qim = pre >> 32, pim >> 32, qre >> 32, qim >> 32
    bre = xre + one             # h = Q/(b_0 Q + P), to wp + 8 bits
    dre, dim = ((bre * qre - xim * qim) >> wp) + pre, ((bre * qim + xim * qre) >> wp) + pim
    e = wp + 8 + max(abs(dre), abs(dim)).bit_length() - max(abs(qre), abs(qim)).bit_length()
    m = dre * dre + dim * dim
    return mpmath.mpc(mpmath.ldexp(((qre * dre + qim * dim) << e) // m, -e),
                      mpmath.ldexp(((qim * dre - qre * dim) << e) // m, -e))


def laplace_pade(fractions: PartialFractions, eps, lam=1, theta=0.0) -> LaplaceResult:
    """int_0^inf(ray theta) exp(-xi/eps) lam R(lam xi) dxi in closed form,
    for R split into partial fractions: mpmath ones at GUARD_DIGITS above
    the caller's precision, complex ones in double precision.

    lam R(lam xi) = sum_k q_k lam^(k+1) xi^k + sum_j r_j/(xi - p_j/lam),
    and term by term, with w = p/(lam eps),
        int exp(-xi/eps) xi^k dxi = k! eps^(k+1),
        int exp(-xi/eps) r/(xi - p/lam) dxi = r e^(-w) E1(-w),
    where the principal E1 integrates along arg xi = arg eps.  A pole
    strictly between that ray and arg xi = theta (the signs of Im w and
    Im(w conj d) tell, d the ray's direction) adds 2 pi i r e^(-w) when
    theta lies clockwise of arg eps and subtracts it otherwise.  One on
    the arg eps ray to rounding takes E1 from above its cut, so it counts
    as lying just off that ray on the side away from theta (the sum is
    continuous across the ray).  e^x E1(x) is _expe1_mp for an mpmath
    split (its continued fraction in fixed-point integers, or mpmath.e1)
    and _expe1 for a complex one.

    The value is an mpc or a complex, est_error the rounding of the sum
    (the unit roundoff, 2^-52 or mpmath's eps, times the sum of its
    terms' moduli, in double) and nodes_used 0.  PoleOnRay, first, when
    a genuine pole (genuine_poles) q = p/lam lies within tol (|q| + |eps|)
    (in double) of xi = 0, where every ray starts, or of the ray itself:
    tol is 0.03 for a split rounded to complex and 64 mpmath.eps (rounding)
    for an mpmath one.  Then PoleOnRay when the ray leaves the half-plane.
    """
    m, expe1, unit, tol, ae = cmath, _expe1, 2.0 ** -52, 0.03, abs(complex(eps))
    with mpmath.workdps(mpmath.mp.dps + GUARD_DIGITS):
        if not isinstance((fractions.quo + fractions.residues)[0], complex):
            m, expe1, unit = mpmath, _expe1_mp, mpmath.eps
            eps, lam, tol = mpmath.mpc(eps), mpmath.mpc(lam), 64 * float(mpmath.eps)
        for p in genuine_poles(zip(fractions.poles, fractions.residues)):
            q = p / lam
            margin = tol * ((aq := abs(complex(q))) + ae)     # in double
            if aq < margin:
                raise PoleOnRay(f"Pade pole at {complex(q):.6g} lies within "
                                f"{margin:.3g} of xi = 0, where every Laplace ray starts")
            w = q * m.exp(-1j * theta)     # its distance to the ray: |Im w|, or |q| behind 0
            if (abs(w.imag) if w.real > 0 else aq) < margin:
                raise PoleOnRay(
                    f"Pade pole at {complex(q):.6g} obstructs the ray arg xi = {theta:.4f}")
        d = m.exp(1j * theta) * abs(eps) / eps     # the ray's direction, seen from arg eps
        if d.real <= 0:
            raise PoleOnRay(f"ray arg xi = {theta:.4f} is outside the half-plane of eps")
        s = lam * eps
        terms = [q * math.factorial(k) * s ** (k + 1) for k, q in enumerate(fractions.quo)]
        for p, r in zip(fractions.poles, fractions.residues):
            w = p / s
            if w.real > 0 and abs(w.imag) <= 64 * unit * abs(w):
                w = w.real                  # a real -w takes E1 from above
            term, side = expe1(-w), w.imag * d.real - w.real * d.imag
            if d.imag < 0 and side > 0 and w.imag <= 0:     # arg d < arg w <= 0
                term += 2j * m.pi * m.exp(-w)
            elif d.imag > 0 and side < 0 and w.imag > 0:    # 0 < arg w < arg d
                term -= 2j * m.pi * m.exp(-w)
            terms.append(r * term)
        return LaplaceResult(sum(terms), float(unit) * sum(map(abs, map(complex, terms))), 0)
