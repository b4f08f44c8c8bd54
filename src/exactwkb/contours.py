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
Hardy: hardy._coeffs_at).  From it ``valley_integral`` builds S, dS, d2S,
the saddles (roots of dS), their tangents and est_error's rounding floor.
Along the thimble of a saddle s, S(w) = S(s) + eps T with T real and
rising, so its nodes are Newton roots of that equation at increasing T,
taken in one walk per half-thimble up to the target decay; a ContourSpec's
x_cap caps |S'| along it (for the Airy phase S'(zhat) = z - zhat^2,
confluent_eval's kernel x).  Every such S is a scaled Chebyshev polynomial
A T_m(w/c) (Airy: c = 2 sqrt(z), A = -(2/3) z^(3/2)), whose level sets
are known in closed form, so the valley a walk's last node flows to is
read off without walking there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContourFailure

_GL_CACHE: dict = {}
MAX_EXTENT = 12.0  # cap on |w - saddle| while tracing a half-thimble


def _gl(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


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
        dph = abs(phase(b) - phase(a))
        npan = int(min(640, max(1, math.ceil(dph / spec.max_panel_phase))))
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


def descent_scale(d2s: complex, eps: complex) -> float:
    """Gaussian width sqrt(|eps / S''|) at a nondegenerate saddle."""
    return math.sqrt(abs(eps) / abs(d2s)) if d2s != 0 else math.sqrt(abs(eps))


def canonical_up_dir(d2s: complex, eps: complex) -> complex:
    """The descent tangent -arg(S''/eps)/2 (mod pi) at a saddle."""
    return cmath.exp(-0.5j * cmath.phase(d2s / eps))


LATERAL_TURN = 0.02     # radians: eps e^{+-i LATERAL_TURN} off a Stokes line


def _horner(cs, odd: int):
    """w -> w^odd sum_k cs[k] (w^2)^(K-k), K = len(cs) - 1, by Horner in w^2:
    one Python frame per call, on a Python complex or a numpy array."""
    head, rest = cs[0], tuple(cs[1:])

    def f(w):
        x2 = w * w
        acc = head
        for c in rest:
            acc = acc * x2 + c
        return acc * w if odd else acc

    return f


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
    saddle s, most recessive first, are traced as roots of S = S(s) + eps T
    to the target decay T and labelled in closed form by the valley their
    last root flows to; as edges of a graph on the valleys, the ones
    joining the two give the value.  A stalled half (a Stokes line) is
    retraced for eps e^{+-i LATERAL_TURN}.  An x_cap on |S'| cuts a path
    (truncation estimate doubled).  ContourFailure when c = 0 (one merged
    saddle), a half reaches no valley, both halves share one, or the
    valleys stay apart.  A spec.path is used as given, scaled at the first
    saddle.  est_error counts the rounding of S/eps, 2^-52 size/|eps|
    times |value| (along a spec.path, the sum of the |terms| of its
    quadrature), size the largest sum of |terms of S| at a saddle."""
    (cs, odd), dphase = phase, _derivative(*phase)
    S, dS, d2S = _horner(*phase), _horner(*dphase), _horner(*_derivative(*dphase))
    m = 2 * len(cs) - 2 + odd
    # A T_m(w/c) has the coefficients cs[0] (c^2)^i t_i/2^(m-1), with t_i
    # T_m's coefficient of y^(m - 2i), in ratio -(m-2i)(m-2i-1)/(4(i+1)(m-i-1))
    c2, e = -4.0 * cs[1] / (m * cs[0]), cs[0]
    for i, ci in enumerate(cs[1:]):
        e *= -c2 * (m - 2 * i) * (m - 2 * i - 1) / (4 * (i + 1) * (m - i - 1))
        if abs(ci - e) > 1e-12 * abs(e):
            raise ValueError(f"phase coefficient {ci} is not {e}, as in A T_{m}(w/c)")
    if not c2 and spec.path is None:
        raise ContourFailure("the saddles merge at w = 0 (c = 0): no thimbles")
    c = cmath.sqrt(c2)
    cs, odd = dphase            # dS's roots: 0 if odd, +-sqrt(r) for cs's roots r
    roots = [-cs[1] / cs[0]] if len(cs) == 2 else np.roots(cs)
    saddles = [sign * cmath.sqrt(r) for r in roots for sign in (1, -1)] + [0j] * odd
    size = max(map(_horner([abs(x) for x in phase[0]], phase[1]), map(abs, saddles)))
    parts = None if spec.path is None else [(1, (saddles[0], spec.path, 1.0))]
    ka, kb = (round((v - valleys[0]) * m / (2.0 * math.pi)) % m for v in valleys)
    target = -math.log(spec.rel_tol) + 3.0

    def half(s, t, w):
        # one walk from s along t through the roots x of S(x) = S(s) + wT, T
        # rising, each from the tangent predictor x + w dT/dS(x), to T =
        # target or until |S'(x)| passes the x_cap (a cut); dT doubles to 8
        # and a refusal quarters it.  x = c cosh u makes S = A cosh(m u), s =
        # c cos(pi k/m) and the last root q = c cosh((i pi j + v)/m), j = k
        # mod 2, v = arccosh(1 + dT), d = w/S(s): v is analytic up the ray T
        # -> oo, where arg x -> arg c + (pi j + arg d)/m names the valley.
        # None on a stall (dT < 1e-9, past MAX_EXTENT, 400 steps) or a cut
        # before the first root.
        step0 = 0.25 * min([descent_scale(d2S(s), w)]
                           + [abs(s - x) for x in saddles if x != s])
        S0, pts, q, pred = S(s), [s], s, s + step0 * (t / abs(t))
        T, dT = 0.0, ((S(pred) - S0) / w).real
        for _ in range(400):
            try:
                if len(pts) > 1:
                    pred = q + w * dT / dS(q)
                y = _root(S, dS, q, S0 + w * (T + dT), pred)
            except (OverflowError, ZeroDivisionError):
                y = None
            if y is None:
                dT *= 0.25
                if dT < 1e-9:
                    return None
                if len(pts) == 1:   # the seed, halved as T ~ |x - s|^2
                    pred = s + 0.5 * (pred - s)
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
            k = round(m * math.acos(max(-1.0, min(1.0, (s / c).real))) / math.pi)
            d = w / S0
            v = 2.0 * cmath.asinh(cmath.sqrt(0.5 * d * T))     # arccosh(1 + dT)
            miss, j = min((abs(c * cmath.cosh((1j * math.pi * j + v) / m) - q), j)
                          for j in range(k % 2, 2 * m, 2))
            if miss > 1e-6 * abs(q):
                raise ContourFailure(f"the walk from {s:.6g} left its level at {q:.6g}")
            turns = (m * (cmath.phase(c) - valleys[0]) + math.pi * j + cmath.phase(d)
                     - cmath.phase(w / eps)) / (2.0 * math.pi)
            return pts, round(turns) % m, cut
        return None

    def labelled(s, t):
        got = half(s, t, eps)
        for turn in (LATERAL_TURN, -LATERAL_TURN):
            if got is None:
                w = eps * cmath.exp(1j * turn)
                u = canonical_up_dir(d2S(s), w)
                got = half(s, u if (u * t.conjugate()).real > 0 else -u, w)
        if got is None:
            raise ContourFailure(f"a half-thimble of the saddle {s:.6g} "
                                 "reaches no valley")
        return got

    edges, thimbles = {}, []        # valley -> [(valley, thimble, sign)]
    for s in sorted(saddles, key=lambda s: -(S(s) / eps).real) if parts is None else ():
        t = canonical_up_dir(d2S(s), eps)
        (lo, k_lo, cut_lo), (hi, k_hi, cut_hi) = labelled(s, -t), labelled(s, t)
        if k_lo == k_hi:
            raise ContourFailure(f"both halves of the thimble of {s:.6g} "
                                 f"end in valley {k_lo}")
        thimbles.append((s, lo[::-1] + hi[1:], 2.0 if cut_lo or cut_hi else 1.0))
        edges.setdefault(k_lo, []).append((k_hi, len(thimbles) - 1, 1))
        edges.setdefault(k_hi, []).append((k_lo, len(thimbles) - 1, -1))
        route, queue = {ka: []}, [ka]     # (thimble, sign) steps from ka
        for k in queue:
            for nxt, e, sign in edges.get(k, ()):
                if nxt not in route:
                    route[nxt] = route[k] + [(e, sign)]
                    queue.append(nxt)
        if kb in route:
            parts = [(sign, thimbles[e]) for e, sign in route[kb]]
            break
    if parts is None:
        raise ContourFailure(f"no thimbles join valleys {ka} and {kb}")
    results = [(sign, *_polyline_tail(S, d2S, nodes, anchor, eps, spec, g, trunc))
               for sign, (anchor, nodes, trunc) in parts]
    values = [r.value if sign > 0 else -r.value for sign, r, _ in results]
    value = sum(values[1:], values[0])
    # rounding S's terms moves the exponent by up to 2^-52 size/|eps|; along
    # a spec.path that need not descend, the terms of the sum may cancel
    mass = abs(value) if spec.path is None else results[0][2]
    return LaplaceResult(value, sum(r.est_error for _, r, _ in results)
                         + 2.0 ** -52 * size / abs(eps) * mass,
                         sum(r.nodes_used for _, r, _ in results))


def _root(S, dS, q: complex, v: complex, pred: complex) -> complex | None:
    """Newton's root of S(x) = v from pred (8 iterations, stopping at |dy|
    <= 1e-8 |y|), or None when it does not settle or settles more than a
    quarter step |pred - q| from pred (so on another branch)."""
    y = pred
    try:
        for _ in range(8):
            dy = (S(y) - v) / dS(y)
            y -= dy
            if abs(dy) <= 1e-8 * abs(y):
                return y if abs(y - pred) <= 0.25 * abs(pred - q) else None
    except ZeroDivisionError:
        pass
    return None


def _polyline_tail(S, d2S, nodes: Sequence[complex], anchor: complex,
                   eps: complex, spec: ContourSpec, g: Callable | None,
                   trunc_factor: float) -> tuple[LaplaceResult, float]:
    """int exp(-S/eps) g along a finished polyline, scaled at the anchor
    saddle, and the scaled sum of the |terms| of its quadrature: the
    integrand carries exp(S(anchor)/eps) so it stays O(1), and the
    truncation error is the endpoint magnitude times the anchor's
    Gaussian width times trunc_factor.  Raises ContourFailure when the
    scale exp(-S(anchor)/eps) overflows double precision."""
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
    end_mag = max(abs(complex(f(np.array([nodes[0]]))[0])),
                  abs(complex(f(np.array([nodes[-1]]))[0])))
    trunc_err = end_mag * descent_scale(d2S(anchor), eps) * trunc_factor
    return LaplaceResult(value=res.value * scale,
                         est_error=(res.est_error + trunc_err) * abs(scale),
                         nodes_used=res.nodes_used), mass * abs(scale)
