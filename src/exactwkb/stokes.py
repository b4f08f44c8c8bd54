"""Stokes lines and sectors for the canonical model and for analytic
potentials with a simple turning point at the origin.

A Stokes line for direction alpha is the locus Im(e^{-i alpha}
int_0^q sqrt(V)) = 0; for the canonical V = q these are the three exact
rays arg q in {2 alpha/3, 2 alpha/3 +- 2 pi/3}.

Sector convention (printed by the CLI): S1 lies between L0 and L1
counterclockwise, S2 between L1 and L-1, S-1 between L-1 and L0, for
rays L0: arg = 2 alpha/3, L1: +2 pi/3, L-1: -2 pi/3.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contours import _gl
from .errors import TraceEscape
from .series import PuiseuxSeries, require_taylor

TWO_PI_3 = 2.0 * math.pi / 3.0
GL_ACTION = 24  # Gauss-Legendre points per panel of int_0^q sqrt(V) off the tracer

SECTOR_CONVENTION = ("S1: (L0, L1) counterclockwise; S2: (L1, L-1); "
                     "S-1: (L-1, L0)")


@dataclass(frozen=True)
class StokesDiagram:
    direction_alpha: float
    lines: tuple          # tuple of polylines (tuples of complex nodes)


def canonical_stokes_lines(alpha: float, extent: float = 3.0) -> StokesDiagram:
    """The three exact rays of the canonical simple turning point, each
    sampled at 40 equally spaced nodes."""
    lines = []
    for k in (0, 1, -1):
        th = 2.0 * (alpha + k * math.pi) / 3.0
        ray = tuple((extent * j / 39) * cmath.exp(1j * th) for j in range(40))
        lines.append(ray)
    return StokesDiagram(direction_alpha=alpha, lines=tuple(lines))


def classify_sector(z: complex, alpha: float = 0.0) -> str:
    """Sector id of z for the canonical diagram, or ON_LINE within 1e-9
    radians of a Stokes ray."""
    if z == 0:
        raise ValueError("z = 0 is the turning point")
    th = cmath.phase(z * cmath.exp(-2j * alpha / 3.0))
    for k, name in ((0.0, "L0"), (TWO_PI_3, "L1"), (-TWO_PI_3, "L-1")):
        d = abs((th - k + math.pi) % (2.0 * math.pi) - math.pi)
        if d < 1e-9:
            return "ON_LINE:" + name
    if 0.0 < th < TWO_PI_3:
        return "S1"
    if -TWO_PI_3 < th < 0.0:
        return "S-1"
    return "S2"


@functools.cache
def _gl_pairs(n: int) -> tuple:
    """n-point Gauss-Legendre (node, weight) pairs as Python floats, for
    the tracer's scalar loops: iterating the numpy arrays of _gl would
    make every product there, and the running action w built from them,
    numpy scalar arithmetic, several times slower than float arithmetic
    and no more accurate.  Built on first use, so that importing the
    package does not load numpy.polynomial."""
    return tuple(zip(*(a.tolist() for a in _gl(n))))


def _sqrt_near(v: complex, ref: complex) -> complex:
    """The square root of v nearer ref: sqrt(V) with its branch continued
    from the previous value ref (the scalar form of _running_action's
    sign rule)."""
    s = cmath.sqrt(v)
    return -s if abs(s - ref) > abs(s + ref) else s


def _callable_potential(V) -> Callable[[complex], complex]:
    if callable(V):
        return V
    if isinstance(V, PuiseuxSeries):
        require_taylor(V, "V")
        coeffs = V.to_float().coeffs
        dense = [0j] * (int(max(coeffs, default=0)) + 1)
        for e, c in coeffs.items():
            dense[int(e)] = c
        # Horner from the leading coefficient down; the same form serves
        # complex scalars (the tracer) and complex arrays (the node check)
        top, rest = dense[-1], dense[-2::-1]

        def f(q):
            tot = top
            for c in rest:
                tot = tot * q + c
            return tot

        return f
    raise TypeError("V must be callable or a Taylor series")


def potential_stokes_curves(V, alpha: float = 0.0,
                            step: float = 0.01,
                            extent: float = 2.0,
                            region_radius: float | None = None) -> StokesDiagram:
    """Trace the three Stokes curves of a simple turning point at 0.

    Predictor-corrector on the field dq/dt = e^{i alpha}/sqrt(V(q)) with
    the branch of sqrt(V) continued along the curve, plus a Newton
    correction restoring Im(e^{-i alpha} w) = 0 for the running action
    w = int_0^q sqrt(V).  A step calls V 12 times (three RK4 slopes, the
    8-point action increment and its end point) and a correction once,
    integrating its small dq by the trapezoid rule, unless the line
    passes within about a step of another zero of V.  Each accepted node
    keeps the defining residual below trace tolerance; leaving the
    declared analyticity region raises TraceEscape.  A line stops after
    at most 2000 steps.  V is a Taylor series, evaluated by Horner's
    rule, or a callable; the tracer calls it on complex scalars, but a
    callable V must also accept a complex numpy array and act on it
    elementwise, as the node check evaluates it on arrays.
    """
    Vf = _callable_potential(V)
    region = region_radius if region_radius is not None else extent * 1.5
    lines = []
    for k in (0, 1, -1):
        th = 2.0 * (alpha + k * math.pi) / 3.0
        nodes = _trace_one(Vf, alpha, th, step, extent, region)
        lines.append(tuple(nodes))
    return StokesDiagram(direction_alpha=alpha, lines=tuple(lines))


def _trace_one(Vf, alpha, theta0, step, extent, region):
    # seed just off the turning point along the exact local ray; the
    # local model V ~ q gives w ~ (2/3) q^{3/2}
    q = 0.25 * step * cmath.exp(1j * theta0)
    w, sq = _action_from_origin(Vf, q)
    nodes = [0j, q]
    rot, unrot = cmath.exp(1j * alpha), cmath.exp(-1j * alpha)
    outward = cmath.exp(1j * theta0)

    # RK4 on unit-speed dq/ds = +- e^{i alpha} / sqrt(V), the sign chosen
    # to march away from the turning point; the branch of sqrt(V) is
    # continued from the previous sample
    def slope(s, ref_dir):
        d = rot / s
        d /= abs(d)
        return -d if (d.conjugate() * ref_dir).real < 0 else d

    def f(qq, sq_prev, ref_dir):
        s = _sqrt_near(Vf(qq), sq_prev)
        return slope(s, ref_dir), s

    # the seed's sq is sqrt(V) at an interior quadrature point, not at q
    k1, s1 = f(q, sq, outward)
    for _ in range(2000):
        k2, s2 = f(q + 0.5 * step * k1, s1, k1)
        k3, s3 = f(q + 0.5 * step * k2, s2, k2)
        k4, _ = f(q + step * k3, s3, k3)
        q_new = q + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        outward = (q_new - q) / abs(q_new - q)
        # action increment by 8-point Gauss-Legendre, branch-continued; it
        # also gives V and sqrt(V) at the new node, which the stop test
        # and the next step's first RK4 slope reuse
        dw, sq_new, v_new = _action_increment(Vf, q, q_new, sq)
        w_new = w + dw
        # Newton correction restoring Im(e^{-i alpha} w) = 0.  One V call
        # at the corrected node gives V and the branch-continued sqrt(V)
        # that the step hands on, and the trapezoid rule on the sqrt(V)
        # at both ends integrates the action over dq.  Near a simple zero
        # of V that rule errs by about |dq| |change of sqrt(V)|^2 /
        # (12 |sqrt(V)|).  dq is the RK4 step's error, 1e-7 or less, so
        # this stays below the stop tolerance unless the line passes
        # within about a step of another zero of V; there the correction
        # is integrated as the step is
        for _ in range(2):
            resid = (w_new * unrot).imag
            if abs(resid) < 1e-15:
                break
            dq = -1j * resid * rot / sq_new
            q_old, sq_old, q_new = q_new, sq_new, q_new + dq
            v_new = Vf(q_new)
            sq_new = _sqrt_near(v_new, sq_old)
            if abs(dq) * abs(sq_new - sq_old) ** 2 < 1e-15 * abs(sq_new):
                w_new += 0.5 * (sq_old + sq_new) * dq
            else:
                dw2, sq_new, v_new = _action_increment(Vf, q_old, q_new,
                                                       sq_old)
                w_new += dw2
        if abs(q_new) > region:
            raise TraceEscape(
                f"trace left the analyticity region |q| <= {region}")
        q, w, sq = q_new, w_new, sq_new
        nodes.append(q)
        if abs(q) >= extent:
            break
        if abs(q) > 3.0 * step and abs(v_new) < 0.5 * step:
            break  # within a step of another zero of V
        k1, s1 = slope(sq, outward), sq
    return nodes


def _action_increment(Vf, a, b, sq_prev):
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    total = 0j
    s_run = sq_prev
    for xi, wi in _gl_pairs(8):
        s_run = _sqrt_near(Vf(mid + half * xi), s_run)
        total += wi * s_run
    v_end = Vf(b)
    return total * half, _sqrt_near(v_end, s_run), v_end


def action_along_polyline(Vf_or_V, nodes) -> complex:
    """int_0^q sqrt(V) along a polyline from the turning point, with the
    branch continued segmentwise.  Independent of the tracer's running
    increments (used to re-verify traced nodes).  The last running total
    of :func:`_running_action`, the one pass that the node check also
    walks.  A callable V must accept a complex numpy array and act on it
    elementwise."""
    return complex(_running_action(_callable_potential(Vf_or_V), nodes)[-1])


def _running_action(Vf, nodes):
    """int_0^{nodes[j]} sqrt(V) for every node j of the polyline (0 at
    nodes[0]): GL_ACTION-point Gauss-Legendre on panels, V evaluated on
    every point of the line at once, the branch continued from point to
    point and the totals summed in point order by one cumsum."""
    nodes = np.asarray(nodes, dtype=complex)
    x, wts = _gl(GL_ACTION)
    heads, s_run, a, b = [0j], None, nodes[:-1], nodes[1:]
    if len(nodes) > 1 and nodes[0] == 0:
        w0, s_run = _action_from_origin(Vf, nodes[1])
        heads, a, b = [0j, w0], a[1:], b[1:]
    if np.any(a == 0):
        raise ValueError("only the first node may be the turning point 0")
    # panelize where the sqrt branch point at 0 is close relative to
    # the chord length
    npan = np.clip(np.ceil(4.0 * abs(b - a) / abs(a)), 1, 32).astype(int)
    seg = np.repeat(np.arange(len(a)), npan)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(npan) - npan, npan)
    aa = a[seg] + (b - a)[seg] * k / npan[seg]
    bb = a[seg] + (b - a)[seg] * (k + 1) / npan[seg]
    mid, half = (aa + bb) / 2.0, (bb - aa) / 2.0
    qq = (mid[:, None] + half[:, None] * x).ravel()
    try:
        v = Vf(qq)
    except TypeError as exc:
        raise TypeError("a callable V must accept a complex numpy array and "
                        "act on it elementwise (numpy, not cmath or math)"
                        ) from exc
    s = np.sqrt(np.broadcast_to(np.asarray(v, dtype=complex), qq.shape))
    # each point takes the sign of sqrt(V) nearer the previous point's
    # (already continued) value; that is a running parity of the flips
    # between consecutive principal values, seeded as the scalar rule is
    prev = np.concatenate([np.sqrt(qq[:1]) if s_run is None else [s_run],
                           s])[:-1]
    s = np.where(np.cumsum(abs(s - prev) > abs(s + prev)) % 2 == 1, -s, s)
    terms = (wts * s.reshape(-1, GL_ACTION)) * half[:, None]
    w = np.cumsum(np.concatenate([heads[-1:], terms.ravel()]))
    return np.concatenate([heads, w[np.cumsum(npan) * GL_ACTION]])


def _action_from_origin(Vf, q):
    """int_0^q sqrt(V) on the straight segment, with the sqrt(q')
    endpoint singularity removed by q' = q u^2 (integrand 2 q u
    sqrt(V(q u^2)) is analytic in u); GL_ACTION-point Gauss-Legendre."""
    root_q = cmath.sqrt(q)
    total = 0j
    s_run = None
    for xi, wi in _gl_pairs(GL_ACTION):
        u = 0.5 * (xi + 1.0)
        s_run = _sqrt_near(Vf(q * u * u), u * root_q if s_run is None else s_run)
        total += wi * 2.0 * q * u * s_run * 0.5
    return total, s_run


def node_condition_residuals(V, diagram: StokesDiagram) -> list[float]:
    """|Im(e^{-i alpha} int_0^q sqrt(V))| at every fifth trace node
    q = line[j], j = 2, 7, 12, ..., re-integrated independently of the
    tracer along the traced polyline.

    One pass per line: the running totals of :func:`_running_action`
    (the rule of :func:`action_along_polyline`) are read off at the
    sampled nodes, so a line of n nodes costs O(n) points, evaluated as
    arrays.  A callable V must accept a complex numpy array and act on it
    elementwise.
    """
    Vf = _callable_potential(V)
    rot = cmath.exp(-1j * diagram.direction_alpha)
    return [abs((complex(w) * rot).imag) for line in diagram.lines
            for w in _running_action(Vf, line)[2::5]]
