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
    x_cap / x_of : optional cap on an auxiliary coordinate (keeps paths
        inside a kernel's convergence polydisk)
    max_panel_phase : phase increment of S/eps per quadrature panel
    """

    path: tuple | None = None
    rel_tol: float = 1e-13
    gl_order: int = 16
    x_cap: float | None = None
    x_of: Callable[[complex], complex] | None = None
    max_panel_phase: float = 2.0


def integrate_polyline(f: Callable[[np.ndarray], np.ndarray],
                       nodes: Sequence[complex],
                       spec: ContourSpec,
                       phase: Callable[[complex], complex] | None = None,
                       ) -> LaplaceResult:
    """Composite Gauss-Legendre integral of f along straight segments.

    Panel counts per segment follow the phase increment when ``phase``
    (typically S/eps) is given.  The error estimate compares the target
    order against a halved-order rule on the same panels.
    """
    nodes = [complex(p) for p in nodes]
    if len(nodes) < 2:
        raise ContourFailure("polyline needs at least two nodes")
    rules = [(_gl(n), [], []) for n in (spec.gl_order, max(4, spec.gl_order // 2))]
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a == b:
            continue
        npan = 1
        if phase is not None:
            dph = abs(phase(b) - phase(a))
            npan = int(min(640, max(1, math.ceil(dph / spec.max_panel_phase))))
        h = (b - a) / npan
        for k in range(npan):
            mid = a + h * (k + 0.5)
            for (x, w), pts, wts in rules:
                pts.append(mid + 0.5 * h * x)
                wts.append(0.5 * h * w)
    if not rules[0][1]:
        return LaplaceResult(0j, 0.0, 0)
    hi, lo = (np.dot(np.asarray(f(np.concatenate(pts)), dtype=complex),
                     np.concatenate(wts)) for _, pts, wts in rules)
    err = abs(hi - lo)
    if not (cmath.isfinite(hi) and math.isfinite(err)):
        raise ContourFailure("the integrand overflows along the path")
    return LaplaceResult(complex(hi), float(err),
                         sum(len(pts) * len(x) for (x, _), pts, _ in rules))


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
    at valleys[1], S = _horner(*phase) ~ c w^m having valleys at valleys[0]
    + 2 pi k/m.  Both half-thimbles of each saddle, most recessive first, are
    traced to the target decay and labelled by the valley their flow cannot
    leave; as edges of a graph on the valleys, the ones joining the two give
    the value.  A stalled half (a Stokes line) is retraced for eps e^{+-i
    LATERAL_TURN}.  An x_cap cuts a path (truncation estimate doubled), never
    a label.  ContourFailure when a half reaches no valley, both halves share
    one, or the valleys stay apart.  A spec.path is used as given, scaled at
    the first saddle.  est_error counts the rounding of S/eps, 2^-52
    size/|eps| |value|, size the largest sum of |terms of S| at a saddle."""
    dphase = _derivative(*phase)
    S, dS, d2S = _horner(*phase), _horner(*dphase), _horner(*_derivative(*dphase))
    dense = [x for c in dphase[0] for x in (0j, c)][1:] + [0j] * dphase[1]
    saddles = [complex(s) for s in np.roots(dense)]
    size = max(map(_horner([abs(c) for c in phase[0]], phase[1]), map(abs, saddles)))
    parts = None if spec.path is None else [(1, (saddles[0], spec.path, 1.0))]
    a, m = valleys[0], len(saddles) + 1
    ka, kb = (round((v - a) * m / (2.0 * math.pi)) % m for v in valleys)
    target = -math.log(spec.rel_tol) + 3.0
    centre = sum(saddles) / len(saddles)
    crit = [S(s) for s in saddles]
    spread = [abs(s - centre) for s in saddles]
    R, R2 = max(spread), sum(x * x for x in spread)

    def valley(q, phi):
        # the valley the flow of Re(e^{-i phi} S/eps) from q cannot leave:
        # its heading is the leading term's plus Im sum log(1 - u_i), u_i =
        # (s_i - centre)/(q - centre), |.| <= D = R2/(2r(r - R)) as sum u_i
        # = 0; within pi/2 - 2D of k's centre it stays within pi/2 - D
        r = abs(q - centre)
        d = ((cmath.phase(q - centre) - a) * m - phi) / (2.0 * math.pi) % m
        k = round(d) % m
        if r > R and (2.0 * math.pi * abs((d - k + m / 2) % m - m / 2)
                      + R2 / (r * (r - R)) <= 0.5 * math.pi):
            return k
        return None

    def half(s, t, w):
        step0 = 0.25 * min([descent_scale(d2S(s), w)]
                           + [abs(s - x) for x in saddles if x != s])
        pts = [s, _phase_correct(S, dS, s + step0 * (t / abs(t)), S(s), w)]
        reached = _march(S, dS, pts, S(s), w, step0, target, spec)
        rot = cmath.phase(w / eps)
        k = None if reached is False else valley(pts[-1], rot)
        if k is None and reached is not False:
            k = _follow(S, dS, pts[-1], w, rot, valley, crit, centre, m)
        return None if k is None else (pts, k, reached is None)

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
    order = sorted(zip(saddles, crit), key=lambda sc: -(sc[1] / eps).real)
    for s, _ in order if parts is None else ():     # none for a spec.path
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
    results = [(sign, _polyline_tail(S, d2S, nodes, anchor, eps, spec, g, trunc))
               for sign, (anchor, nodes, trunc) in parts]
    values = [r.value if sign > 0 else -r.value for sign, r in results]
    value = sum(values[1:], values[0])
    # rounding S's terms moves the exponent by up to 2^-52 size/|eps|
    return LaplaceResult(value, sum(r.est_error for _, r in results)
                         + 2.0 ** -52 * size / abs(eps) * abs(value),
                         sum(r.nodes_used for _, r in results))


def _follow(S, dS, q: complex, w: complex, rot: float, label,
            crit: list[complex], centre: complex, m: int) -> int | None:
    """Follow the thimble of exp(-S/w) past q, the root x of S(x) = w zeta,
    zeta = S(q)/w + T, until label(x, rot + arg(dzeta)) names a valley (None
    on a stall).  Steps keep dT under half the distance to the critical
    values crit/w, so x jumps no branch point; once zeta is twice as far
    from their mean zeta0 as any, with Re >= 0, the ray is homotopic to the
    radial one, analytic in t = (zeta - zeta0)^(-1/m) for |t| < t_max."""
    zc = [c / w for c in crit]
    zeta0 = sum(zc) / len(zc)
    C = max(abs(c - zeta0) for c in zc)
    zeta, dT, shrink = S(q) / w, 1.0, 0.5
    for _ in range(400):
        radial = abs(zeta - zeta0) >= 2.0 * C and (zeta - zeta0).real >= 0.0
        ok = False
        try:
            if not radial:
                dT = min(2.0 * dT, 0.5 * min(abs(zeta - c) for c in zc))
                z_new, pred = zeta + dT, q + w * dT / dS(q)
            else:
                phi = rot + cmath.phase(zeta - zeta0)
                tau = (C / abs(zeta - zeta0)) ** (1.0 / m)     # |t| / t_max
                ratio = 1.0 / max(1.0 - shrink * (1.0 - tau) / tau, 0.25) if tau else 4.0
                z_new = zeta0 + (zeta - zeta0) * ratio ** m
                # log(x - centre) is linear in log t to first order, with
                # slope -kappa -> -1 as t -> 0
                kappa = m * (zeta - zeta0) * w / ((q - centre) * dS(q))
                pred = centre + (q - centre) * cmath.exp(kappa * math.log(ratio))
            y, v = pred, w * z_new              # Newton's root of S = v
            for _ in range(8):
                dy = (S(y) - v) / dS(y)
                y -= dy
                if abs(dy) <= 1e-8 * abs(y):
                    ok = abs(y - pred) <= 0.25 * abs(pred - q)
                    break
        except (OverflowError, ZeroDivisionError):
            pass
        if not ok:
            dT, shrink = 0.25 * dT, 0.5 * shrink
            if dT < 1e-9 or shrink < 1e-6:
                return None
            continue
        q, zeta, shrink = y, z_new, 0.5
        k = label(q, phi if radial else rot)
        if k is not None:
            return k
    return None


def _march(S, dS, pts: list, S0: complex, eps: complex, step0: float,
           target: float, spec: ContourSpec) -> bool | None:
    """Extend the steepest-descent path pts from the saddle pts[0] in place
    along Im((S - S0)/eps) = 0 (RK2 on the normalized gradient flow, a
    Newton phase corrector each step) until Re((S - S0)/eps) reaches
    target (True), the x_cap stops it (None), or it passes MAX_EXTENT or
    stalls (False: a vanishing gradient is a saddle connection)."""
    saddle, p, h = pts[0], pts[-1], step0
    prev = ((S(p) - S0) / eps).real

    def grad_dir(w):
        g = (dS(w) / eps).conjugate()
        a = abs(g)
        return (g / a if a > 0 else 0j), a

    for _ in range(6000):
        d1, a1 = grad_dir(p)
        if a1 < 1e-13:
            break
        d2, a2 = grad_dir(p + 0.5 * h * d1)
        if a2 < 1e-13:
            break
        q = _phase_correct(S, dS, p + h * d2, S0, eps)
        level = ((S(q) - S0) / eps).real
        if level <= prev - 1e-12:
            h *= 0.5
            if h < step0 * 1e-5:
                break
            continue
        if spec.x_cap is not None and spec.x_of is not None \
                and abs(spec.x_of(q)) > spec.x_cap:
            return None
        p = q
        pts.append(p)
        if level >= target:
            return True
        if abs(p - saddle) > MAX_EXTENT:
            break
        # keep the per-step decay increment moderate
        dlev = level - prev
        if dlev < 0.5:
            h = min(h * 1.6, step0 * 50.0)
        elif dlev > 2.5:
            h *= 0.6
        prev = level
    return False


def _phase_correct(S, dS, w, S0, eps):
    """Up to three Newton steps restoring Im((S(w) - S0)/eps) = 0 along
    i conj(dS/eps), which keeps Re(S/eps) to first order."""
    for _ in range(3):
        f = ((S(w) - S0) / eps).imag
        if abs(f) < 1e-15:
            break
        dphi = dS(w) / eps
        g = dphi.conjugate()
        a2 = (dphi * 1j * g).imag  # d/dt Im(phi(w + i t g))
        if a2 == 0:
            break
        w = w - 1j * g * (f / a2)
    return w


def _polyline_tail(S, d2S, nodes: Sequence[complex], anchor: complex,
                   eps: complex, spec: ContourSpec, g: Callable | None,
                   trunc_factor: float) -> LaplaceResult:
    """int exp(-S/eps) g along a finished polyline, scaled at the anchor
    saddle: the integrand carries exp(S(anchor)/eps) so it stays O(1),
    and the truncation error is the endpoint magnitude times the anchor's
    Gaussian width times trunc_factor.  Raises ContourFailure when the
    scale exp(-S(anchor)/eps) overflows double precision."""
    shift = S(anchor) / eps

    def f(w):
        arr = np.asarray(w)
        vals = np.exp(-S(arr) / eps + shift)
        if g is not None:
            vals = vals * g(arr)
        return vals

    def phase(w):
        return S(w) / eps

    res = integrate_polyline(f, nodes, spec, phase=phase)
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
                         nodes_used=res.nodes_used)
