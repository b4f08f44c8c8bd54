"""Hardy's polynomial family for higher-order turning points.

P_m comes from the hyperbolic multiple-angle identities, Q_m is its
quasi-homogeneous lift, S_n = (2/(n+2)) Q_{n+2}(-z, zhat) generates the
exponential integrals solving the higher turning-point model, and T_n
is the companion polynomial fixed by the two structural identities

    (dS_n/dz)^2 = T_n dS_n/dzhat + z^n,      d2S_n/dz2 = dT_n/dzhat.
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
        lo, hi = [Fraction(1)], [Fraction(1), Fraction(0), Fraction(2)]
    else:
        lo, hi = [Fraction(0), Fraction(-1)], [Fraction(0), Fraction(1)]
    for _ in range((m - 1) // 2):
        nxt = [Fraction(0)] * (len(hi) + 2)
        for i, c in enumerate(hi):
            nxt[i] += 2 * c
            nxt[i + 2] += 4 * c
        for i, c in enumerate(lo):
            nxt[i] -= c
        lo, hi = hi, nxt
    return hi


@dataclass(frozen=True)
class HardyPair:
    """S_n, T_n with the two structural identities holding exactly."""

    n: int
    S: Poly2
    T: Poly2


def hardy_S_T(n: int) -> HardyPair:
    """Exact S_n and T_n.

    S_n = (2/(n+2)) z^{m/2} P_m(zhat z^{-1/2}) at z -> -z (m = n+2, a
    genuine polynomial by the parity of P_m); T_n is the zhat-
    antiderivative of d2S_n/dz2 with the z-dependent constant matched so
    the first identity holds at zhat = 0.  Both identities are then
    verified by exact expansion (hard error on failure).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 2
    P = hardy_polynomial(m)
    S: Poly2 = {}
    for j, c in enumerate(P):
        if c == 0:
            continue
        if (m - j) % 2 != 0:
            raise AssertionError("P_m parity violated")
        i = (m - j) // 2
        S[(i, j)] = S.get((i, j), Fraction(0)) + c * Fraction(2, m) * Fraction(-1) ** i
    Szz = _d(_d(S, 0), 0)
    T = _anti(Szz, 1)
    # the zhat-free integration "constant" C(z) is fixed by the first
    # identity: C * dS/dzhat = (dS/dz)^2 - z^n - T0 * dS/dzhat, an exact
    # polynomial division
    Sz = _d(S, 0)
    Szh = _d(S, 1)
    need = _sub(_sub(_mul(Sz, Sz), {(n, 0): Fraction(1)}), _mul(T, Szh))
    corr, rem = _poly2_divmod(need, Szh)
    if rem:
        raise AssertionError(f"T_n correction not divisible for n={n}")
    T = _add(T, corr)
    pair = HardyPair(n=n, S={k: v for k, v in S.items() if v != 0},
                     T={k: v for k, v in T.items() if v != 0})
    if not hardy_identities_hold(pair):
        raise AssertionError(f"structural identities failed for n={n}")
    return pair


def _poly2_divmod(a: Poly2, b: Poly2) -> tuple[Poly2, Poly2]:
    """Division by leading-term elimination, zhat-major ordering."""
    def lead(p):
        return max(p, key=lambda k: (k[1], k[0]))

    rem = dict(a)
    quot: Poly2 = {}
    lb = lead(b)
    cb = b[lb]
    while rem:
        la = lead(rem)
        if la[0] < lb[0] or la[1] < lb[1]:
            break
        k = (la[0] - lb[0], la[1] - lb[1])
        c = rem[la] / cb
        quot[k] = quot.get(k, Fraction(0)) + c
        rem = _sub(rem, _mul({k: c}, b))
    return quot, rem


def hardy_identities_hold(pair: HardyPair) -> bool:
    Sz = _d(pair.S, 0)
    Szh = _d(pair.S, 1)
    lhs = _mul(Sz, Sz)
    rhs = _add(_mul(pair.T, Szh), {(pair.n, 0): Fraction(1)})
    if _sub(lhs, rhs):
        return False
    if _sub(_d(Sz, 0), _d(pair.T, 1)):
        return False
    return True


def quasi_homogeneous_ok(pair: HardyPair) -> bool:
    """S_n(l^2 z, l zhat) = l^{n+2} S_n(z, zhat): weight 2i + j = n + 2."""
    return all(2 * i + j == pair.n + 2 for (i, j) in pair.S)


def _d(p: Poly2, var: int) -> Poly2:
    out: Poly2 = {}
    for (i, j), c in p.items():
        if var == 0 and i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + c * i
        if var == 1 and j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + c * j
    return {k: v for k, v in out.items() if v != 0}


def _anti(p: Poly2, var: int) -> Poly2:
    out: Poly2 = {}
    for (i, j), c in p.items():
        if var == 1:
            out[(i, j + 1)] = c / (j + 1)
        else:
            out[(i + 1, j)] = c / (i + 1)
    return out


def _mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def _sub(a: Poly2, b: Poly2) -> Poly2:
    return _add(a, {k: -c for k, c in b.items()})


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
    dS = _d(pair.S, 1)
    return pair, dS, _d(dS, 1)


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

    convention='eps2' takes w = eps, under which the integral satisfies
    eps^2 Phi'' = z^n Phi; convention='eps' takes w = sqrt(eps) so that
    eps Phi'' = z^n Phi as in the first-power normalization (the two
    printed forms of the model equation differ; both are exposed).
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
