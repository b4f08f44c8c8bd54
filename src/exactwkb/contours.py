"""Saddle/Laplace contour machinery shared by the numeric modules.

The integrals here are all of the shape int exp(-S(w)/eps) g(w) dw along
a truncated path.  Default paths are steepest-descent (constant-phase)
polylines traced from the relevant saddle(s) by a predictor-corrector
marcher; explicit polylines can be supplied through :class:`ContourSpec`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ContourFailure

_GL_CACHE: dict = {}


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
    max_extent : cap on |w - saddle| while tracing
    x_cap / x_of : optional cap on an auxiliary coordinate (keeps paths
        inside a kernel's convergence polydisk)
    max_panel_phase : phase increment of S/eps per quadrature panel
    """

    path: tuple | None = None
    rel_tol: float = 1e-13
    gl_order: int = 16
    max_extent: float = 12.0
    x_cap: float | None = None
    x_of: Callable[[complex], complex] | None = None
    max_panel_phase: float = 2.0

    def with_path(self, nodes) -> "ContourSpec":
        return replace(self, path=tuple(nodes))


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
    n_hi = spec.gl_order
    n_lo = max(4, n_hi // 2)
    x_hi, w_hi = _gl(n_hi)
    x_lo, w_lo = _gl(n_lo)
    pts_hi, wts_hi = [], []
    pts_lo, wts_lo = [], []
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
            pts_hi.append(mid + 0.5 * h * x_hi)
            wts_hi.append(0.5 * h * w_hi)
            pts_lo.append(mid + 0.5 * h * x_lo)
            wts_lo.append(0.5 * h * w_lo)
    if not pts_hi:
        return LaplaceResult(0j, 0.0, 0)
    p_hi = np.concatenate(pts_hi)
    v_hi = np.asarray(f(p_hi), dtype=complex)
    total_hi = np.dot(v_hi, np.concatenate(wts_hi))
    p_lo = np.concatenate(pts_lo)
    v_lo = np.asarray(f(p_lo), dtype=complex)
    total_lo = np.dot(v_lo, np.concatenate(wts_lo))
    err = abs(total_hi - total_lo)
    return LaplaceResult(complex(total_hi), float(err), len(p_hi) + len(p_lo))


def _angle_gap(a: complex, b: complex) -> float:
    d = abs(cmath.phase(a / b))
    return d


def descent_scale(d2s: complex, eps: complex) -> float:
    """Gaussian width sqrt(|eps / S''|) at a nondegenerate saddle."""
    if d2s == 0:
        return math.sqrt(abs(eps))
    return math.sqrt(abs(eps) / abs(d2s))


def trace_thimble(S, dS, saddle: complex, eps: complex, init_dir: complex,
                  spec: ContourSpec, step0: float) -> tuple[list[complex], bool]:
    """Constant-phase steepest-descent half-path from a saddle.

    Marches the curve Im((S - S(saddle))/eps) = 0 in the direction of
    increasing Re(S/eps) (integrand decay), with an RK2 predictor on the
    normalized gradient flow and a Newton phase corrector each step.
    Stops at the target decay level, the extent/x caps, or a stall
    (gradient vanishing: a saddle connection).

    Returns (nodes-outward-from-saddle, reached_target).
    """
    S0 = S(saddle)
    target = -math.log(spec.rel_tol) + 3.0

    def grad_dir(w):
        g = (dS(w) / eps).conjugate()
        a = abs(g)
        return (g / a if a > 0 else 0j), a

    h = step0
    p = saddle + step0 * (init_dir / abs(init_dir))
    p = _phase_correct(S, dS, p, S0, eps)
    pts = [saddle, p]
    reached = False
    for _ in range(6000):
        d1, a1 = grad_dir(p)
        if a1 < 1e-13:
            break
        d2, a2 = grad_dir(p + 0.5 * h * d1)
        if a2 < 1e-13:
            break
        step = h * d2
        q = _phase_correct(S, dS, p + step, S0, eps)
        level = ((S(q) - S0) / eps).real
        prev = ((S(p) - S0) / eps).real
        if level <= prev - 1e-12:
            h *= 0.5
            if h < step0 * 1e-5:
                break
            continue
        if spec.x_cap is not None and spec.x_of is not None \
                and abs(spec.x_of(q)) > spec.x_cap:
            break
        p = q
        pts.append(p)
        if level >= target:
            reached = True
            break
        if abs(p - saddle) > spec.max_extent:
            break
        # keep the per-step decay increment moderate
        dlev = level - prev
        if dlev < 0.5:
            h = min(h * 1.6, step0 * 50.0)
        elif dlev > 2.5:
            h *= 0.6
    return pts, reached


def _phase_correct(S, dS, w, S0, eps):
    """Up to three Newton steps restoring Im((S(w) - S0)/eps) = 0
    transversally."""
    for _ in range(3):
        f = ((S(w) - S0) / eps).imag
        if abs(f) < 1e-15:
            break
        dphi = dS(w) / eps
        # move along the i*gradient direction (constant Re(S/eps) to
        # first order): w -> w + i t conj(dphi)/|dphi|
        g = dphi.conjugate()
        a2 = (dphi * 1j * g).imag  # d/dt Im(phi(w + i t g))
        if a2 == 0:
            break
        w = w - 1j * g * (f / a2)
    return w


def saddle_descent_path(S, dS, d2S, saddle: complex, eps: complex,
                        spec: ContourSpec,
                        up_dir: complex) -> tuple[list[complex], bool, float]:
    """Two-sided descent polyline through a saddle, oriented along up_dir."""
    step0 = 0.25 * descent_scale(d2S(saddle), eps)
    fwd, ok_f = trace_thimble(S, dS, saddle, eps, up_dir, spec, step0)
    bwd, ok_b = trace_thimble(S, dS, saddle, eps, -up_dir, spec, step0)
    nodes = list(reversed(bwd)) + fwd[1:]
    return nodes, ok_f and ok_b, step0


def canonical_up_dir(d2s: complex, eps: complex) -> complex:
    """Descent tangent at a saddle: Re((S''/eps) d^2) > 0 is centered on
    the angle -arg(S''/eps)/2 (mod pi); either representative traces the
    same two-sided path."""
    return cmath.exp(-0.5j * cmath.phase(d2s / eps))


def saddle_point_integral(S, dS, d2S, saddle: complex, eps: complex,
                          spec: ContourSpec,
                          g: Callable | None = None,
                          up_dir: complex | None = None) -> LaplaceResult:
    """int exp(-S/eps) g(w) dw along a descent path through one saddle.

    With spec.path set, that polyline is used verbatim (orientation as
    given).  Otherwise the path is traced adaptively; up_dir fixes the
    crossing orientation.
    """
    if spec.path is not None:
        nodes: Sequence[complex] = list(spec.path)
        trunc_extra = 0.0
    else:
        if up_dir is None:
            up_dir = canonical_up_dir(d2S(saddle), eps)
        nodes, clean, _ = saddle_descent_path(S, dS, d2S, saddle, eps, spec, up_dir)
        trunc_extra = 0.0 if clean else 1.0
        if len(nodes) < 3:
            raise ContourFailure("descent trace collapsed at the saddle")
    return _polyline_tail(S, d2S, nodes, saddle, eps, spec, g, 1.0 + trunc_extra)


def descent_chain_integral(S, dS, d2S, saddles: Sequence[complex], eps: complex,
                           spec: ContourSpec,
                           g: Callable | None = None,
                           up_dir_last: complex | None = None,
                           in_dir_hint: complex | None = None) -> LaplaceResult:
    """Descent integral threading several saddles in order.

    Builds per-saddle descent paths, joins consecutive ones by bridging
    their nearest endpoints (which lie in a shared deep valley), and
    orients the final saddle crossing along up_dir_last.  Used for the
    continued contour past a Stokes line, where the path picks up a
    second saddle.
    """
    if spec.path is not None or len(saddles) == 1:
        return saddle_point_integral(S, dS, d2S, saddles[-1], eps, spec,
                                     g=g, up_dir=up_dir_last)
    # inbound half-thimble at the first saddle, straight runs between
    # consecutive saddles, outbound half-thimble at the last one
    chain: list[complex] = []
    for j, s in enumerate(saddles):
        if j == 0:
            ud = canonical_up_dir(d2S(s), eps)
            step0 = 0.25 * descent_scale(d2S(s), eps)
            half_a, _ = trace_thimble(S, dS, s, eps, ud, spec, step0)
            half_b, _ = trace_thimble(S, dS, s, eps, -ud, spec, step0)
            if in_dir_hint is not None:
                half = min((half_a, half_b),
                           key=lambda h: _angle_gap(h[-1] - s, in_dir_hint))
            else:
                away = saddles[j + 1] - s
                half = half_a if ((half_a[-1] - s).conjugate() * away).real < 0 \
                    else half_b
            chain.extend(reversed(half))
        else:
            chain.append(s)
        if j == len(saddles) - 1:
            ud = up_dir_last if up_dir_last is not None \
                else canonical_up_dir(d2S(s), eps)
            away = s - saddles[j - 1]
            if (ud.conjugate() * away).real < 0:
                ud = -ud
            half, _ = trace_thimble(S, dS, s, eps, ud, spec,
                                    0.25 * descent_scale(d2S(s), eps))
            chain.extend(half[1:])

    dominant = min(saddles, key=lambda s: (S(s) / eps).real)
    return _polyline_tail(S, d2S, chain, dominant, eps, spec, g, 1.0)


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
