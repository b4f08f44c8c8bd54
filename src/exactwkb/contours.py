"""Contours named by the two valleys they join.

The integrals here are all of the shape int exp(-S(w)/eps) g(w) dw.  When
S leads with lead w^m, the integrand decays at infinity in m valleys,
centred on arg w = (arg(eps/lead) + 2 pi k)/m, and for entire g the
integral depends only on the valley the path comes from and the one it
goes to.  So that pair is the whole description of a contour:
``valley_integral`` writes the path as the signed sum of the
steepest-descent paths (thimbles) of the saddles that join the two
valleys, the Picard-Lefschetz decomposition (Berry & Howls, Proc. R. Soc.
A 434, 1991; Witten, "Analytic continuation of Chern-Simons theory",
2010).  Explicit polylines can be supplied through :class:`ContourSpec`.

S is given by its Chebyshev data, phase = (m, lead, c2): S(w) = lead w^m
+ ... = 2^(1-m) lead c^m T_m(w/c), a polynomial in w and c^2 that stays
defined at c = 0 (Mason & Handscomb, Chebyshev Polynomials, 2003, ch. 1;
Airy: (3, -1/3, 4z); Hardy: (n + 2, 2^(n+2)/(n+2), z)).  With w = c cosh u
it is A cosh(m u), A = 2 lead (c/2)^m, so each thimble is known in closed
form: its integral is one trapezoid sum of a tanh-sinh rule in its
parameter (geometric convergence on analytic integrands: Trefethen &
Weideman, SIAM Review 56, 2014).  A ContourSpec's x_cap cuts a thimble
where |S'| passes it (for the Airy phase S'(zhat) = z - zhat^2,
confluent_eval's kernel x).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContourFailure

LEVELS = 10     # halvings of a thimble's trapezoid step, from 1/2
SCAN = 0.125    # step of the x_cap scan along a thimble, and its shortest cut half

_gl = functools.cache(np.polynomial.legendre.leggauss)  # n -> (nodes, weights)


@dataclass(frozen=True)
class LaplaceResult:
    """Value of a contour/Laplace quadrature with an error estimate."""

    value: complex
    est_error: float
    nodes_used: int

    def __post_init__(self):
        assert self.est_error >= 0.0


@dataclass(frozen=True)
class ContourSpec:
    """Integration path and quadrature settings.

    path : explicit polyline of complex nodes (None: the thimbles)
    rel_tol : a thimble's cut-off, where e^{-s^2} is below rel_tol e^-3, and
        the relative move of its trapezoid sum at which the step stops halving
    gl_order : Gauss-Legendre order per panel of a path
    x_cap : optional cap on |S'| along a thimble, which is cut where it
        passes the cap (confluent_eval: for the Airy phase S'(zhat) is the
        kernel's x = z - zhat^2, kept inside its convergence disk)
    max_panel_phase : phase increment of S/eps per panel of a path
    """

    path: tuple | None = None
    rel_tol: float = 1e-13
    gl_order: int = 16
    x_cap: float | None = None
    max_panel_phase: float = 2.0


def integrate_polyline(f: Callable[[np.ndarray], np.ndarray], nodes: Sequence[complex],
                       spec: ContourSpec, phase: Callable[[complex], complex]
                       ) -> tuple[LaplaceResult, float]:
    """Composite Gauss-Legendre integral of f along straight segments, and
    the sum of the |terms| of that quadrature.

    Panel counts per segment follow the increment of ``phase`` (typically
    S/eps).  The error estimate compares the target order against a
    halved-order rule on the same panels.
    """
    nodes = [complex(p) for p in nodes]
    if len(nodes) < 2:
        raise ContourFailure("polyline needs at least two nodes")
    rules = [(_gl(n), [], []) for n in (spec.gl_order, max(4, spec.gl_order // 2))]
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a == b:
            continue
        # an increment that is a whole number of max_panel_phase up to the
        # rounding of S gets that many panels, not one more
        dph = abs(phase(b) - phase(a)) / spec.max_panel_phase
        npan = int(min(640, max(1, math.ceil(dph * (1 - 1e-12)))))
        h = (b - a) / npan
        for k in range(npan):
            mid = a + h * (k + 0.5)
            for (x, w), pts, wts in rules:
                pts.append(mid + 0.5 * h * x)
                wts.append(0.5 * h * w)
    if not rules[0][1]:
        return LaplaceResult(0j, 0.0, 0), 0.0
    (hv, hw), (lv, lw) = ((np.asarray(f(np.concatenate(pts)), dtype=complex),
                           np.concatenate(wts)) for _, pts, wts in rules)
    hi, lo = np.dot(hv, hw), np.dot(lv, lw)
    err = abs(hi - lo)
    if not (cmath.isfinite(hi) and math.isfinite(err)):
        raise ContourFailure("the integrand overflows along the path")
    return (LaplaceResult(complex(hi), float(err),
                          sum(len(pts) * len(x) for (x, _), pts, _ in rules)),
            float(np.dot(abs(hv), abs(hw))))


def horner(cs):
    """x -> sum_k cs[k] x^(K-k), K = len(cs) - 1, by Horner's rule on a
    Python complex or a numpy array: the one evaluator of a dense
    coefficient list (Stokes potentials, the PDE kernel's x-sums)."""
    head, rest = cs[0], tuple(cs[1:])

    def f(x):
        acc = head
        for c in rest:
            acc = acc * x + c
        return acc

    return f


def _chebyshev(m: int, lead, c2, w):
    """S(w) and S'(w) for S = 2^(1-m) lead P_m, on a Python complex or a numpy
    array, by the three-term recurrence in w and c^2: P_0 = 1, P_1 = w, P_(k+1)
    = 2w P_k - c^2 P_(k-1), so P_m = c^m T_m(w/c) (and S = lead w^m at c = 0),
    and P_m' = m Q_(m-1) for Q_k = c^k U_k(w/c) = w Q_(k-1) + P_k, Q_0 = 1."""
    p, p1, q1 = 1.0, w, 1.0     # P_0, P_1, Q_0
    for _ in range(m - 1):
        q1 = w * q1 + p1
        p, p1 = p1, 2 * w * p1 - c2 * p
    return 2.0 ** (1 - m) * lead * p1, 2.0 ** (1 - m) * lead * m * q1


def valley_integral(phase, eps: complex, valleys: tuple[float, float],
                    spec: ContourSpec, g: Callable | None = None) -> LaplaceResult:
    """int exp(-S/eps) g dw from the valley at arg w = valleys[0] to the one
    at valleys[1], phase = (m, lead, c2) for S = lead w^m + ... = A T_m(w/c),
    c = sqrt(c2), A = 2 lead (c/2)^m, whose valleys are at valleys[0] + 2 pi k/m.
    The thimble of s_k = c cos(pi k/m), S(s_k) = A (-1)^k, runs from the
    valley at arg c + (2 arg r - pi k)/m to arg c + (2 arg r + pi k)/m, r =
    sqrt(eps/(2 S(s_k))); as edges of a graph on the valleys, most
    recessive first, those joining the two give the value.  ContourFailure
    when c or A is 0 or not finite, a thimble's ends share a valley or none
    join the two.  A spec.path is used as given, scaled at the first
    saddle, with the Laplace tail |f eps/S'| at its ends.  est_error adds
    the rounding of S/eps and of the sum, 2^-52 (1 + size/|eps|) |value|
    (along a spec.path, times the sum of the |terms| of its quadrature),
    size the sum of |terms of S| at the outermost saddle."""
    m, lead, c2 = phase
    S = functools.partial(_chebyshev, *phase)
    c = cmath.sqrt(c2)
    saddles = [c * math.cos(math.pi * k / m) if 2 * k != m else 0j for k in range(1, m)]
    try:
        A = 2.0 * lead * (c / 2.0) ** m
    except OverflowError:
        A = math.inf
    if spec.path is None and not all(sys.float_info.min <= abs(x) < math.inf for x in (c, A)):
        raise ContourFailure(f"the saddles merge (c = {c:.6g}) or S there leaves "
                             "double precision: no thimbles")
    # the terms of S alternate in sign with the power of c^2: at -|c^2| they add
    size = _chebyshev(m, abs(lead), -abs(c2), abs(saddles[0]))[0]
    rounding = 2.0 ** -52 * (1.0 + size / abs(eps))

    def weight(w, a):
        """e^-a g(w), g = 1 when None."""
        return np.exp(-a) * (1.0 if g is None else g(w))

    if spec.path is not None:
        shift = S(saddles[0])[0] / eps

        def f(w):
            return weight(w, S(w)[0] / eps - shift)

        with np.errstate(over="ignore", invalid="ignore"):
            res, mass = integrate_polyline(f, spec.path, spec, lambda w: S(w)[0] / eps)
            scale = _scale(shift)
            ends = np.array([spec.path[0], spec.path[-1]], dtype=complex)
            trunc = float(np.sum(np.abs(f(ends) * eps / S(ends)[1])))
        return LaplaceResult(res.value * scale, (res.est_error + trunc) * abs(scale)
                             + rounding * (mass * abs(scale)), res.nodes_used)

    def thimble(k):
        """exp(-S(s_k)/eps) int e^{-s^2} g(x) x'(s) ds over the thimble x(s) =
        c cosh((i pi k + 2 asinh(r s))/m), on which S = S(s_k) + eps s^2.  Its
        branch points s = +-i/r (the next saddle) near the real axis near a
        Stokes line, so s = p - i eta tanh(|r| p), bent to the side that
        keeps each where it was, for p from -p_lo to p_hi: p_max, or the
        last p before |S'(x)| passes x_cap.  p runs through one tanh-sinh
        rule centred on the saddle, p'(0) = min(1, 1/|r|), whose trapezoid
        step in t halves until the sum moves by at most rel_tol of itself.
        est_error: that move, the Laplace tail |e^{-s^2} g eps/S'| at each
        end (doubled at a cut) and 2^-53 max|u| (sum of |terms|), the rounding
        of x and x' as |u| ~ (2/m) ln|r s| grows, times |scale|, plus 2^-1074
        (1 + sum of |terms|), what a scale at the bottom of double range loses."""
        r, q, scale = root[k], abs(root[k]), _scale(A * (-1) ** k / eps)
        eta = math.copysign(0.5 * min(abs(r.imag) / q ** 2, 1.0), r.imag)    # Re(i/r)
        p_max = math.sqrt(3.0 - math.log(spec.rel_tol))     # e^{-s^2} < rel_tol e^-3
        us = []     # u at every point along evaluates

        def along(p):
            """x, s and dx/dp at the points p of the path."""
            th = np.tanh(q * p)
            s = p - 1j * eta * th
            a = np.arcsinh(r * s)
            u = (1j * math.pi * k + 2.0 * a) / m
            us.append(u)
            ds = 1.0 - 1j * eta * q * (1.0 - th * th)
            return c * np.cosh(u), s, (2.0 * c * r / m) * np.sinh(u) / np.cosh(a) * ds

        def end(side):
            """p_max, or the last p before |S'| passes x_cap: scanned in steps of
            SCAN (the first leaves no interval), then refined 64-fold 8 times."""
            grid = SCAN * np.arange(math.ceil(p_max / SCAN) + 1)
            for _ in range(9 if spec.x_cap is not None else 0):
                over = np.flatnonzero(np.abs(S(along(side * grid)[0])[1]) > spec.x_cap)
                if not len(over):
                    return p_max, 1.0
                if grid[over[0]] == SCAN:
                    raise ContourFailure(f"the x_cap cuts the thimble of {saddles[k - 1]:.6g} "
                                         f"within {SCAN} of its saddle: no interval")
                grid = np.linspace(grid[over[0] - 1], grid[over[0]], 65)
            return (p_max, 1.0) if spec.x_cap is None else (grid[0], 2.0)

        with np.errstate(over="ignore", invalid="ignore"):
            (p_lo, cut_lo), (p_hi, cut_hi) = end(-1), end(1)
            b, L = math.log(p_lo / p_hi), p_lo + p_hi
            # p = -p_lo + L expit(b + kappa sinh t), p(0) = 0, p'(0) = min(1, 1/|r|)
            kappa = min(1.0, 1.0 / q) * L / (p_lo * p_hi)
            t_max = math.asinh((p_max ** 2 + abs(b)) / kappa)    # weights < e^-(p_max^2)
            h, total, mass = 1.0, 0.0, 0.0
            for i in range(LEVELS + 1):
                h *= 0.5
                ks = np.arange(-int(t_max / h), int(t_max / h) + 1)
                t = h * (ks[ks % 2 == 1] if i else ks)      # the new nodes
                e = np.exp(-b - (ky := kappa * np.sinh(t)))
                x, s, dx = along(-p_hi * np.expm1(-ky) / (1.0 + e))
                vals = weight(x, s * s) * dx * (L * kappa * np.cosh(t) * e / (1.0 + e) ** 2)
                prev, total = total, 0.5 * total + h * vals.sum()
                mass = 0.5 * mass + h * np.abs(vals).sum()
                if i and abs(total - prev) <= spec.rel_tol * abs(total):
                    break
            x, s, _ = along(np.array([-p_lo, p_hi]))
            dS = [S(v)[1] for v in x.tolist()]     # at two points Python's complex is faster
            tail = np.dot(np.abs(weight(x, s * s) * eps / dS), (cut_lo, cut_hi))
            err = abs(total - prev) + tail + 2.0 ** -53 * np.abs(np.concatenate(us)).max() * mass
            value, err = complex(total * scale), float(err * abs(scale))
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise ContourFailure(f"the sum along the thimble of {saddles[k - 1]:.6g} "
                                 "leaves double precision")
        return LaplaceResult(value, err + math.ulp(0.0) * (1.0 + float(mass)), len(ks))

    ka, kb = (round((v - valleys[0]) * m / (2.0 * math.pi)) % m for v in valleys)
    edges, root = {}, {}        # valley -> [(valley, saddle k, sign)]; k -> r
    for k in sorted(range(1, m), key=lambda k: -(A * (-1) ** k / eps).real):
        root[k] = cmath.sqrt(eps / (2.0 * A * (-1) ** k))
        turns = m * (cmath.phase(c) - valleys[0]) + 2.0 * cmath.phase(root[k])
        k_lo, k_hi = (round((turns + j * math.pi) / (2.0 * math.pi)) % m for j in (-k, k))
        if k_lo == k_hi:
            raise ContourFailure(f"both ends of the thimble of {saddles[k - 1]:.6g} "
                                 f"are in valley {k_lo}")
        edges.setdefault(k_lo, []).append((k_hi, k, 1))
        edges.setdefault(k_hi, []).append((k_lo, k, -1))
        route, queue = {ka: []}, [ka]     # (saddle, sign) steps from ka
        for v in queue:
            for nxt, j, sign in edges.get(v, ()):
                if nxt not in route:
                    route[nxt] = route[v] + [(j, sign)]
                    queue.append(nxt)
        if kb in route:
            break
    else:
        raise ContourFailure(f"no thimbles join valleys {ka} and {kb}")
    results = [(sign, thimble(k)) for k, sign in route[kb]]
    value = sum(sign * r.value for sign, r in results)
    return LaplaceResult(value, sum(r.est_error for _, r in results) + rounding * abs(value),
                         sum(r.nodes_used for _, r in results))


def _scale(shift: complex) -> complex:
    """exp(-shift), ContourFailure when it overflows double precision."""
    try:
        return cmath.exp(-shift)
    except OverflowError:
        raise ContourFailure(f"saddle scale exp({-shift:.6g}) overflows "
                             "double precision") from None
