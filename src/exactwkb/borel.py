"""Pade acceleration of Borel minors and Laplace transforms along rays.

The Borel sum of a symbol is prefactor * (1 + int_ray exp(-xi/eps) R(xi) dxi)
where R is the (L, M) Pade approximant of the truncated minor.  The Pade
pole string emulates the minor's branch cut, which is what makes lateral
sums and the Stokes-jump measurement possible at finite order.  Only
laplace_pade decides whether a ray is clear of the genuine poles
(genuine_poles), at a margin set by the precision of the split.

pade_from_taylor reads rational Taylor coefficients' approximant off a
staircase of the Pade table (exact_pade) and solves others in complex
double precision.  partial_fractions splits any approximant at any
precision in fixed-point integers (one Horner kernel, _horner, in real
arithmetic for real poles), and laplace_pade transforms each term in
closed form (factorials and the exponential integral E1) along any ray in
the half-plane of eps, for R or any rescaling lam R(lam xi) of it: in
mpmath with _expe1_mp, or with the split rounded to complex in double
precision with _expe1, as every Borel sum of the package does.  Both
take e^x E1(x) from the continued fraction of Abramowitz & Stegun 5.1.22
where it converges fast and from a series elsewhere: _expe1 by its own
rules, _expe1_mp in fixed-point integers for |x| >= 16 off the cut when
it converges in 400 steps, and mpmath.e1 otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from mpmath.libmp import from_float, from_int, from_man_exp, fzero, mpf_div, to_float

from .contours import LaplaceResult
from .errors import ContourFailure, PoleOnRay, SeriesError

FROISSART_TOL = 1e-12  # residues below this fraction of the largest are doublets
GUARD_DIGITS = 15  # mp partial fractions work this many digits above the caller's dps


@dataclass(frozen=True)
class PadeApproximant:
    """Rational approximant num/den, coefficients ascending: Fractions when
    solved exactly, complex numbers when solved in double precision."""

    num: list
    den: list


def _parts(x, prec: int = 0) -> tuple:
    """The mpf tuples (re, im) of a number, im None for a real type: a
    Fraction n/d rounded to prec bits as mpf(n)/d rounds it, else exact."""
    if isinstance(x, Fraction):     # from_int(d), its trailing zeros stripped at once
        d = x.denominator >> (k := (x.denominator & -x.denominator).bit_length() - 1)
        d = (0, d, k, d.bit_length())
        return mpf_div(from_int(x.numerator, prec, "n"), d, prec, "n"), None
    return (x._mpf_, None) if isinstance(x := mpmath.mpmathify(x), mpmath.mpf) else x._mpc_


def _fixed(xs, f=None, bits=None) -> tuple:
    """The _parts xs as (re, im, f, real): ints in units of 2^-f truncated
    toward 0, real if every im is None; f given, or keeping bits bits, or exact."""
    ts = [t or fzero for x in xs for t in x]
    if f is None:
        f = (-min([e for _, m, e, _ in ts if m] or [0]) if bits is None
             else max(0, bits - max([e + n for _, m, e, n in ts if m] or [0])))
    ns = [(-1) ** s * (m << (e + f) if e + f >= 0 else m >> -(e + f)) for s, m, e, _ in ts]
    return ns[::2], ns[1::2], f, all(im is None for _, im in xs)


def _horner(P, x, y, f, deriv=True):
    """(vr, vi, dr, di) = P(t), P'(t) in units of 2^-f at t = (x + i y) 2^-f, P
    _fixed's from the leading coefficient; real arithmetic where P, t are real."""
    (re, im, _, real), vr, vi, dr, di = P, 0, 0, 0, 0
    if real and not y:      # dr is 0 unless deriv
        for a in re:
            dr, vr = (dr * x >> f) + vr if deriv else 0, (vr * x >> f) + (a << f)
        return vr, 0, dr, 0
    for a, b in zip(re, im):
        dr, di = ((dr * x - di * y) >> f) + vr, ((dr * y + di * x) >> f) + vi
        vr, vi = ((vr * x - vi * y) >> f) + (a << f), ((vr * y + vi * x) >> f) + (b << f)
    return vr, vi, dr, di


def _newton(P, s, real: bool, roots=None):
    """The root of P by Newton's method (_horner) from the complex seed s until
    a step is below 10^(GUARD_DIGITS - dps) |p|, an mpf if real (in real
    arithmetic), else an mpc; given real roots z, of P/prod(t - z), to 10^-dps |p|."""
    (x,), (y,), f, _ = _fixed([(from_float(s.real), from_float(s.imag))], bits=mpmath.mp.prec + 20)
    zs = roots and _fixed([(z._mpf_, None) for z in roots], f)[0]
    tol = 100 ** (mpmath.mp.dps - (GUARD_DIGITS if roots is None else 0))
    for _ in range(30):
        vr, vi, dr, di = _horner(P, x, y, f)
        if zs and x not in zs:      # Maehly's implicit deflation
            dr -= vr * sum((1 << 2 * f) // (x - z) for z in zs) >> f
        if not (m := dr * dr + di * di):
            break
        sr, si = (((vr << f) // dr, 0) if real     # floor(v d 2^f / d^2) = floor(v 2^f / d)
                  else (((vr * dr + vi * di) << f) // m, ((vi * dr - vr * di) << f) // m))
        x, y = x - sr, y - si
        if (sr * sr + si * si) * tol <= x * x + y * y:
            pr = mpmath.mp.make_mpf(from_man_exp(x, -f))
            return pr if real else mpmath.mpc(pr, mpmath.mp.make_mpf(from_man_exp(y, -f)))
    raise ContourFailure(f"Newton did not converge near {complex(x / 2 ** f, y / 2 ** f):.6g}")


def _poles(P, den: list, deflate: bool) -> list:
    """The roots of den (P its _fixed) by _newton from np.roots seeds, a real
    den's complex ones in conjugate pairs.  deflate polishes each to 10^-dps,
    a real one deflated by those found before it, and a pair of seeds that
    Newton takes to the real axis as two real roots from the pair's real ends."""
    q = [complex(*(to_float(t, rnd="n") for t in x if t)) for x in reversed(den)]
    real, ps = P[3], []
    for s in np.roots(np.array([c.real for c in q] if real else q)):
        if real and s.imag < 0:
            continue
        pair = real and s.imag > 0
        reals = [z for z in ps if isinstance(z, mpmath.mpf)] if deflate else None
        p = _newton(P, s, real and not pair, [] if pair and deflate else reals)
        if deflate and pair and abs(p.imag) * 10 ** (mpmath.mp.dps - GUARD_DIGITS) <= abs(p):
            for end in (s.real - s.imag, s.real + s.imag):
                ps.append(_newton(P, complex(end), True, reals))
                reals = reals + ps[-1:]
        else:
            ps.append(p)
    return ps + [p.conjugate() for p in ps if real and p.imag > 0]


def _residues(num, den, ps: list, quo: list, dps: int):
    """num(p)/den'(p) at the poles ps (_horner; num, den _fixed's), an mpf where
    p and it are real, and whether the split they make with quo is num/den to
    10^-dps at t = 0.6 + 0.8i, in units of 2^-G, G past wp by -log2 |num/den|."""
    wp, (tx, ty) = mpmath.mp.prec + 20, (int(v * 2 ** 53) for v in (0.6, 0.8))  # units 2^-53
    (nr, ni, _, _), (dr, di, _, _) = (_horner(P, tx << wp >> 53, ty << wp >> 53, wp)
                                      for P in (num, den))
    G = wp + max(0, max(abs(dr), abs(di)).bit_length() - max(abs(nr), abs(ni)).bit_length()
                 + num[2] - den[2], num[2] - den[2] - wp)
    sr, si, _, _ = _horner(_fixed([_parts(c) for c in reversed(quo)], G),  # 2^G quo(t)
                           tx << G >> 53, ty << G >> 53, G)
    sr, si, rs = sr >> G, si >> G, []
    for p in ps:
        (x,), (y,), f, _ = _fixed([_parts(p)], bits=wp)
        (ur, ui, _, _), (_, _, vr, vi) = _horner(num, x, y, f, False), _horner(den, x, y, f)
        m = vr * vr + vi * vi       # k keeps wp bits or more of the quotient
        k = max(0, wp + 2 + m.bit_length() // 2 - max(abs(ur), abs(ui)).bit_length())
        pr, pi = (mpmath.mp.make_mpf(from_man_exp((u << k) // m, den[2] - num[2] - k))
                  for u in (ur * vr + ui * vi, ui * vr - ur * vi))
        rs.append(pr if isinstance(p, mpmath.mpf) and not pi else mpmath.mpc(pr, pi))
        wr, wi = (tx << f >> 53) - x, (ty << f >> 53) - y     # w = t - p in units of 2^-f
        wr, wi = vr * wr - vi * wi, vr * wi + vi * wr   # v w; r/(t - p) = u 2^(fb - fa + f)/(v w)
        m, e = wr * wr + wi * wi, den[2] - num[2] + G + f
        sr, si = sr + ((ur * wr + ui * wi) << e) // m, si + ((ui * wr - ur * wi) << e) // m
    e, xr, xi = G + den[2] - num[2], sr * dr - si * di, sr * di + si * dr  # s d against n 2^e
    miss = (xr - (nr << e)) ** 2 + (xi - (ni << e)) ** 2
    return rs, miss * 100 ** dps <= (nr * nr + ni * ni) << 2 * e


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
    """Split an approximant at GUARD_DIGITS above the working precision in
    integers (_parts, _fixed, _poles, _residues), a real den that fails the
    check once more, deflating; only the poles, residues and polynomial part
    become mpmath numbers.  ContourFailure when a pole cannot be polished
    (e.g. a double pole) or the split misses the approximant by 10^-dps
    relative at a test point."""
    dps = mpmath.mp.dps
    with mpmath.workdps(dps + GUARD_DIGITS):
        num, den = ([_parts(x, mpmath.mp.prec) for x in xs] for xs in (approx.num, approx.den))
        for xs in (num, den):       # split at the true degrees
            while len(xs) > 1 and not any(t and t[1] for t in xs[-1]):
                xs.pop()
        a, b, quo, m = _fixed(num[::-1]), _fixed(den[::-1]), [], len(den) - 1
        if len(num) > m:            # the polynomial part, in mpmath
            rem, q = ([mpmath.mp.make_mpf(re) if im is None else mpmath.mp.make_mpc((re, im))
                       for re, im in xs] for xs in (num, den))
            for k in range(len(rem) - 1, m - 1, -1):
                quo.insert(0, rem[k] / q[m])
                for j in range(m + 1):
                    rem[k - m + j] -= quo[0] * q[j]
        for deflate in (False, True)[:1 + b[3]]:
            ps = _poles(b, den, deflate)
            rs, reproduces = _residues(a, b, ps, quo, dps)
            if reproduces:
                return PartialFractions(ps, rs, quo)
        raise ContourFailure("partial fractions do not reproduce the Pade approximant")


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
    for an mpc x or a real mpf one.  For |x| >= 16 off the cut it can be
    _expe1's continued fraction h = 1/(b_0 - 1^2/(b_1 - 2^2/(b_2 -
    ...))), b_k = x + 2k + 1, cut at the depth n where its convergents
    A_k/B_k step by at most 2^-wp of h_0 = 1/b_0, wp = mp.prec + 20 bits.
    A double-precision pass finds n from |h_k - h_(k-1)| = (k!)^2/|B_k
    B_(k-1)| and the ratios B_k/B_(k-1) = b_k - k^2 B_(k-2)/B_(k-1).  The
    fraction is then summed backward from k = n in fixed-point Python ints
    (units of 2^-wp, as mpmath's own series), its tail as a pair P/Q:
    (P, Q) -> (-k^2 Q, b_k Q + P), one complex product a step, with Q
    kept at wp + 16 to wp + 48 bits.  Elsewhere (small |x|, on the cut, and
    past 400 steps next to it), mpmath.exp(x) * mpmath.e1(x)."""
    cx, wp = complex(x), mpmath.mp.prec + 20
    r, step, tol, n = cx + 1, 1.0, 2.0 ** -wp, 0
    while abs(cx) >= 16 and (cx.imag or cx.real > 0) and step > tol and n < 400:
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


def _obstructs(q, theta: float) -> str:
    """laplace_pade's PoleOnRay message for a pole q by the ray arg xi = theta."""
    return f"Pade pole at {complex(q):.6g} obstructs the ray arg xi = {theta:.4f}"


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
    (in double) of xi = 0, where every ray starts, or lies so by the ray
    while the nearest genuine pole does too (the ray is then a Stokes line
    of the sum): tol is 0.03 for a split rounded to complex and 64
    mpmath.eps (rounding) for an mpmath one.  Then PoleOnRay when the ray
    leaves the half-plane, and when a farther pole by the ray could move
    the sum by more than est_error: crossing the ray moves it by 2 pi i r
    e^(-q/eps), up to e^(tol (|q/eps| + 1)) times more within the margin.
    A farther pole below that is summed on the side it lies: a double Pade
    solve places its far poles roughly, and their side of the ray is lost
    in the rounding.  ContourFailure, last, when est_error is not finite.
    """
    m, expe1, unit, tol, ae = cmath, _expe1, 2.0 ** -52, 0.03, abs(complex(eps))
    with mpmath.workdps(mpmath.mp.dps + GUARD_DIGITS):
        if not isinstance((fractions.quo + fractions.residues)[0], complex):
            m, expe1, unit = mpmath, _expe1_mp, mpmath.eps
            eps, lam, tol = mpmath.mpc(eps), mpmath.mpc(lam), 64 * float(mpmath.eps)
        turn, near, least = m.exp(-1j * theta), [], math.inf     # near: those by the ray
        # genuine_poles keeps the first element of each pair, here the pole's index
        for i in genuine_poles(enumerate(fractions.residues)):
            q = fractions.poles[i] / lam
            margin = tol * ((aq := abs(complex(q))) + ae)     # in double
            least = min(least, aq)
            w = q * turn     # its distance to the ray: |Im w|, or |q| behind 0
            if (abs(w.imag) if w.real > 0 else aq) < margin:
                near.append((aq, q, fractions.residues[i], margin))
        # the ray is a Stokes line of the sum when the nearest genuine pole
        # lies by it, as one within the margin of xi = 0 does
        if near and min(aq for aq, *_ in near) == least:
            aq, q, _, margin = near[0]
            if aq < margin:
                raise PoleOnRay(f"Pade pole at {complex(q):.6g} lies within "
                                f"{margin:.3g} of xi = 0, where every Laplace ray starts")
            raise PoleOnRay(_obstructs(q, theta))
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
        est_error = float(unit) * sum(map(abs, map(complex, terms)))
        for _, q, r, margin in near:
            # crossing the ray moves the sum by 2 pi i r e^(-q/eps), and
            # |e^(-q/eps)| is at most e^grow within the margin
            grow = min(margin / ae - complex(q / eps).real, 700.0)
            if not 2 * math.pi * abs(complex(r)) * math.exp(grow) <= est_error:
                raise PoleOnRay(_obstructs(q, theta))
        if not est_error < math.inf:
            raise ContourFailure("the Laplace transform's terms leave double precision")
        return LaplaceResult(sum(terms), est_error, 0)
