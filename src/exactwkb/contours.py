"""Contours named by the two valleys they join.

The integrals here are all of the shape int exp(-S(w)/eps) g(w) dw.  When
S has leading term c w^m, the integrand decays at infinity in m valleys,
centred on arg w = (arg(eps/c) + 2 pi k)/m, and for entire g the integral
depends only on the valley the path comes from and the one it goes to.
So that pair is the whole description of a contour: ``valley_integral``
writes the path as the signed sum of the steepest-descent paths
(thimbles) of the saddles that join the two valleys, the
Picard-Lefschetz decomposition (Berry & Howls, Proc. R. Soc. A 434,
1991; Witten, "Analytic continuation of Chern-Simons theory", 2010).
Explicit polylines can be supplied through :class:`ContourSpec`.

S is a polynomial of one parity, phase = (cs, odd) for S(w) = w^odd
sum_k cs[k] (w^2)^(K-k) at the point of evaluation (Airy: ([-1/3, z], 1);
Hardy: hardy._coeffs_at).  Every such S is a scaled Chebyshev polynomial
A T_m(w/c) (Airy: c = 2 sqrt(z), A = -(2/3) z^(3/2)), so with w = c cosh u
it is A cosh(m u): the saddles are c cos(pi k/m), and along the thimble
of one, S(w) = S(s) + eps T with T real and rising, its points are
c cosh((i pi j + 2 asinh(r sqrt T))/m) in closed form.  Each
half-thimble is one walk through those points up to the target decay,
and the valley it heads to is read off its branch; a ContourSpec's x_cap
caps |S'| along it (for the Airy phase S'(zhat) = z - zhat^2,
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

MAX_EXTENT = 12.0  # cap on |w - saddle| while tracing a half-thimble

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
    """Truncated integration-path description plus quadrature knobs.

    path : explicit polyline of complex nodes (None -> adaptive descent)
    rel_tol : target relative size of the integrand at path endpoints
    gl_order : Gauss-Legendre order per panel
    x_cap : optional cap on |S'| along a traced thimble, which is cut
        where it passes the cap (confluent_eval: for the Airy phase S'(zhat)
        is the kernel's x = z - zhat^2, kept inside its convergence disk)
    max_panel_phase : phase increment of S/eps per quadrature panel
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


LATERAL_TURN = 0.02     # radians: eps e^{+-i LATERAL_TURN} off a Stokes line


def horner(cs):
    """x -> sum_k cs[k] x^(K-k), K = len(cs) - 1, by Horner's rule on a
    Python complex or a numpy array: the one evaluator of a dense
    coefficient list (phases, Stokes potentials, the PDE kernel's x-sums)."""
    head, rest = cs[0], tuple(cs[1:])

    def f(x):
        acc = head
        for c in rest:
            acc = acc * x + c
        return acc

    return f


def _horner(cs, odd: int):
    """w -> w^odd sum_k cs[k] (w^2)^(K-k), K = len(cs) - 1: horner in w^2."""
    p = horner(cs)
    return (lambda w: p(w * w) * w) if odd else (lambda w: p(w * w))


def _derivative(cs, odd: int):
    """The (cs, odd) form of d/dw of the one given, by the power rule."""
    d = [c * (2 * (len(cs) - 1 - k) + odd) for k, c in enumerate(cs)]
    return (d, 0) if odd else (d[:-1], 1)


def valley_integral(phase, eps: complex, valleys: tuple[float, float],
                    spec: ContourSpec, g: Callable | None = None) -> LaplaceResult:
    """int exp(-S/eps) g dw from the valley at arg w = valleys[0] to the one
    at valleys[1], S = _horner(*phase) = A T_m(w/c) a scaled Chebyshev
    polynomial (ValueError past 1e-12 relative in a coefficient), whose
    valleys are at valleys[0] + 2 pi k/m.  Both half-thimbles of each
    saddle s_k = c cos(pi k/m), most recessive first, are walked through
    the closed-form roots of S = S(s_k) + eps T to the target decay T,
    and labelled by the valley their branch heads to; as edges of a graph
    on the valleys, the ones joining the two give the value.  A stalled
    half (a Stokes line) is retraced for eps e^{+-i LATERAL_TURN}.  An
    x_cap on |S'| cuts a path (truncation estimate doubled).
    ContourFailure when c or some S(s_k) is 0 (merged saddles) or not
    finite, a half reaches no valley, both halves share one, or the
    valleys stay apart.  A spec.path is used as given, scaled at the
    first saddle.  est_error counts the rounding of S/eps and of the sum,
    2^-52 (1 + size/|eps|) times |value| (along a spec.path, the sum of
    the |terms| of its quadrature), size the largest sum of |terms of S|
    at a saddle."""
    (cs, odd), dphase = phase, _derivative(*phase)
    S, dS = _horner(*phase), _horner(*dphase)
    m = 2 * len(cs) - 2 + odd
    c2 = -4.0 * cs[1] / (m * cs[0])
    c = cmath.sqrt(c2)
    saddles = [c * math.cos(math.pi * k / m) if 2 * k != m else 0j for k in range(1, m)]
    if spec.path is None and not all(sys.float_info.min <= abs(x) < math.inf
                                     for x in [c, *map(S, saddles)]):
        raise ContourFailure(f"the saddles merge (c = {c:.6g}) or S there leaves "
                             "double precision: no thimbles")
    # A T_m(w/c) has the coefficients cs[0] (c^2)^i t_i/2^(m-1), with t_i
    # T_m's coefficient of y^(m - 2i), in ratio -(m-2i)(m-2i-1)/(4(i+1)(m-i-1))
    e = cs[0]
    for i, ci in enumerate(cs[1:]):
        e *= -c2 * (m - 2 * i) * (m - 2 * i - 1) / (4 * (i + 1) * (m - i - 1))
        if abs(ci - e) > 1e-12 * abs(e):
            raise ValueError(f"phase coefficient {ci} is not {e}, as in A T_{m}(w/c)")
    size = max(map(_horner([abs(x) for x in cs], odd), map(abs, saddles)))
    parts = None if spec.path is None else [(1, (saddles[0], spec.path, 1.0))]
    ka, kb = (round((v - valleys[0]) * m / (2.0 * math.pi)) % m for v in valleys)
    target = -math.log(spec.rel_tol) + 3.0

    def half(k, sign, turn):
        # with x = c cosh u, S = A cosh(m u): the half of s = s_k whose
        # branch is rho = sign sqrt(eps/(2 S(s))) e^{i turn/2} has the
        # roots x(T) = c cosh((i pi j + 2 asinh(r sqrt T))/m) of S = S(s) +
        # wT, w = eps e^{i turn}, r = +-rho with Re r >= 0 and j = +-k to
        # match (cosh is even, asinh odd), so x heads to arg c + (pi j + 2
        # arg r)/m.  The walk takes x(T + dT) when the tangent predictor
        # x + w dT/S'(x) (at s, x ~ s + a sqrt(T)) lands within a quarter
        # step of it, to T = target or until |S'(x)| passes the x_cap (a
        # cut).  The first step is a quarter of the smaller of the Gaussian
        # width |a|/sqrt 2 and the gap to the next saddle; dT then doubles
        # to 8 and a refusal quarters it.  Where x ~ T^(1/m) (near z = 0)
        # T grows about 1.5x a node, 2.5 nodes per e-fold of target/dT, with
        # at most half as many refusals again plus 15 (the floor), so a walk
        # gets 16 ln(target/dT) tries.  None on a stall (dT below 1e-9 of
        # the first or 0, past MAX_EXTENT, the tries spent) or a cut before
        # the first node.
        s, w = saddles[k - 1], eps * cmath.exp(1j * turn)
        rho = sign * cmath.sqrt(eps / (2.0 * S(s))) * cmath.exp(0.5j * turn)
        r, j = (rho, k) if rho.real >= 0 else (-rho, -k)
        a = 2j * c * r * math.sin(math.pi * j / m) / m
        step = 0.25 * min([abs(a) / math.sqrt(2.0)] + [abs(s - x) for x in saddles if x != s])
        pts, q, T, dT = [s], s, 0.0, (step / abs(a)) ** 2
        floor = 1e-9 * dT
        tries = 16.0 * (math.log(target) - math.log(dT)) if dT else 0.0
        for _ in range(int(tries)):
            v = 2.0 * cmath.asinh(r * math.sqrt(T + dT))
            y = c * cmath.cosh((1j * math.pi * j + v) / m)
            pred = s + a * math.sqrt(dT) if q == s else q + w * dT / dS(q)
            if abs(y - pred) > 0.25 * abs(pred - q):
                dT *= 0.25
                if dT < floor:
                    return None
                continue
            cut = spec.x_cap is not None and abs(dS(y)) > spec.x_cap
            if not cut:
                pts.append(y)
                q, T, dT = y, T + dT, min(2.0 * dT, 8.0)
                if T < target:
                    if abs(y - s) > MAX_EXTENT:
                        return None
                    continue
            if len(pts) == 1:
                return None
            turns = (m * (cmath.phase(c) - valleys[0]) + math.pi * j
                     + 2.0 * cmath.phase(r) - turn) / (2.0 * math.pi)
            return pts, round(turns) % m, cut
        return None

    def labelled(k, sign):
        for turn in (0.0, LATERAL_TURN, -LATERAL_TURN):
            got = half(k, sign, turn)
            if got is not None:
                return got
        raise ContourFailure(f"a half-thimble of the saddle {saddles[k - 1]:.6g} "
                             "reaches no valley")

    edges, thimbles = {}, []        # valley -> [(valley, thimble, sign)]
    for k in sorted(range(1, m), key=lambda k: -(S(saddles[k - 1]) / eps).real) \
            if parts is None else ():
        (lo, k_lo, cut_lo), (hi, k_hi, cut_hi) = labelled(k, -1), labelled(k, 1)
        s = saddles[k - 1]
        if k_lo == k_hi:
            raise ContourFailure(f"both halves of the thimble of {s:.6g} end in valley {k_lo}")
        thimbles.append((s, lo[::-1] + hi[1:], 2.0 if cut_lo or cut_hi else 1.0))
        edges.setdefault(k_lo, []).append((k_hi, len(thimbles) - 1, 1))
        edges.setdefault(k_hi, []).append((k_lo, len(thimbles) - 1, -1))
        route, queue = {ka: []}, [ka]     # (thimble, sign) steps from ka
        for v in queue:
            for nxt, e, sign in edges.get(v, ()):
                if nxt not in route:
                    route[nxt] = route[v] + [(e, sign)]
                    queue.append(nxt)
        if kb in route:
            parts = [(sign, thimbles[e]) for e, sign in route[kb]]
            break
    if parts is None:
        raise ContourFailure(f"no thimbles join valleys {ka} and {kb}")
    results = [(sign, *_polyline_tail(S, dS, nodes, anchor, eps, spec, g, trunc))
               for sign, (anchor, nodes, trunc) in parts]
    values = [r.value if sign > 0 else -r.value for sign, r, _ in results]
    value = sum(values[1:], values[0])
    # rounding S's terms moves the exponent by up to 2^-52 size/|eps|, and
    # the sum itself is rounded; along a spec.path that need not descend,
    # the terms of the sum may cancel
    mass = abs(value) if spec.path is None else results[0][2]
    return LaplaceResult(value, sum(r.est_error for _, r, _ in results)
                         + 2.0 ** -52 * (1.0 + size / abs(eps)) * mass,
                         sum(r.nodes_used for _, r, _ in results))


def _polyline_tail(S, dS, nodes: Sequence[complex], anchor: complex,
                   eps: complex, spec: ContourSpec, g: Callable | None,
                   trunc_factor: float) -> tuple[LaplaceResult, float]:
    """int exp(-S/eps) g along a finished polyline, scaled at the anchor
    saddle, and the scaled sum of the |terms| of its quadrature: the
    integrand carries exp(S(anchor)/eps) so it stays O(1), and the
    truncation error is the Laplace tail beyond each end, |f eps/S'|
    there, times trunc_factor.  Raises ContourFailure when the scale
    exp(-S(anchor)/eps) overflows double precision."""
    shift = S(anchor) / eps

    def f(w):
        vals = np.exp(-S(w) / eps + shift)
        return vals if g is None else vals * g(w)

    res, mass = integrate_polyline(f, nodes, spec, lambda w: S(w) / eps)
    try:
        scale = cmath.exp(-shift)
    except OverflowError:
        raise ContourFailure(f"saddle scale exp({-shift:.6g}) overflows "
                             "double precision") from None
    ends = np.array([nodes[0], nodes[-1]], dtype=complex)
    trunc_err = float(np.sum(np.abs(f(ends) * eps / dS(ends)))) * trunc_factor
    return LaplaceResult(value=res.value * scale,
                         est_error=(res.est_error + trunc_err) * abs(scale),
                         nodes_used=res.nodes_used), mass * abs(scale)
