"""Stokes lines and sectors for the canonical model and for analytic
potentials with a simple turning point at the origin.

A Stokes line for direction alpha is the locus Im(e^{-i alpha}
int_0^q sqrt(V)) = 0; for the canonical V = q these are the three exact
rays arg q in {2 alpha/3, 2 alpha/3 +- 2 pi/3}.  The tracer takes each
node as Newton's root of W(q) = int_0^q sqrt(V) = e^{i alpha} t, t real.

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

from .contours import _gl, horner
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


def classify_sector(z: complex) -> str:
    """Sector id of z for the canonical diagram in the direction alpha = 0,
    or ON_LINE within 1e-9 radians of a Stokes ray."""
    if z == 0:
        raise ValueError("z = 0 is the turning point")
    th = cmath.phase(z)
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
        # on complex scalars (the tracer) and complex arrays (the node check)
        return horner([coeffs.get(n, 0j) for n in range(int(max(coeffs, default=0)), -1, -1)])
    raise TypeError("V must be callable or a Taylor series")


def potential_stokes_curves(V, alpha: float = 0.0,
                            step: float = 0.01,
                            extent: float = 2.0,
                            region_radius: float | None = None) -> StokesDiagram:
    """Trace the three Stokes curves of a simple turning point at 0.

    Each node is Newton's root x of W(x) = e^{i alpha} t (:func:`_root`)
    for the action W = int_0^x sqrt(V), the branch of sqrt(V) continued
    along the curve, with t real and rising by dt = step |sqrt(V)|, so
    nodes lie about a step apart; a refused root quarters dt.  A node
    costs about 11 V calls.  A line stops at extent, within a step of
    another zero of V, when refusals take dt 1e-9 below step |sqrt(V)|,
    or after 2000 nodes; leaving the declared analyticity region raises
    TraceEscape.  V is a Taylor series, evaluated by Horner's rule, or a
    callable; the tracer calls it on complex scalars, but a callable V
    must also accept a complex numpy array and act on it elementwise, as
    the node check evaluates it on arrays.
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
    sq = _sqrt_near(Vf(q), sq)
    nodes = [0j, q]
    # the line is w = rot t, t real and rising away from the turning point
    rot = cmath.exp(1j * alpha)
    t = (w * rot.conjugate()).real
    if t < 0:
        rot, t = -rot, -t
    # the predictor is quadratic in tau = t^(2/3), in which q is analytic
    # at the turning point (and linear for V = q): dq/dtau = 1.5 rot
    # t^(1/3) / sqrt(V), and its change over the last step gives d2q
    dq, d2q, dt = 1.5 * rot * t ** (1 / 3) / sq, 0j, step * abs(sq)
    while len(nodes) < 2002:
        dtau = (t + dt) ** (2 / 3) - t ** (2 / 3)
        pred = q + dtau * (dq + 0.5 * dtau * d2q)
        root = _root(Vf, q, w, sq, rot * (t + dt), pred)
        if root is None:
            dt *= 0.25
            if dt < 1e-9 * step * abs(sq):
                break   # stalled: no root near the predicted one
            continue
        q, w, sq, v_new = root
        if abs(q) > region:
            raise TraceEscape(
                f"trace left the analyticity region |q| <= {region}")
        nodes.append(q)
        t += dt
        dq_new = 1.5 * rot * t ** (1 / 3) / sq
        dq, d2q = dq_new, (dq_new - dq) / dtau
        if abs(q) >= extent:
            break
        if abs(q) > 3.0 * step and abs(v_new) < 0.5 * step:
            break  # within a step of another zero of V
        dt = min(2.0 * dt, step * abs(sq))
    return nodes


def _root(Vf, q, w, sq, target, pred):
    """Newton's root x of W(x) = w + int_q^x sqrt(V) = target from pred,
    sq = sqrt(V(q)), as (x, W(x), sqrt(V(x)), V(x)): 8 iterations,
    stopping at |dx| <= 1e-8 |x|, or None when it does not settle or
    settles more than a quarter step |pred - q| from pred (so on another
    branch).  The 8-point action increment integrates the step to pred;
    an iteration calls V once and integrates its dx by the trapezoid
    rule, which errs by about |dx| |change of sqrt(V)|^2 / (12 |sqrt(V)|),
    or, where that reaches 1e-15 (near another zero of V), as the step."""
    dw, s, v = _action_increment(Vf, q, pred, sq)
    x, wx = pred, w + dw
    for _ in range(8):
        dx = (target - wx) / s
        x_old, s_old, x = x, s, x + dx
        v = Vf(x)
        s = _sqrt_near(v, s_old)
        if abs(dx) * abs(s - s_old) ** 2 < 1e-15 * abs(s):
            wx += 0.5 * (s_old + s) * dx
        else:
            dw, s, v = _action_increment(Vf, x_old, x, s_old)
            wx += dw
        if abs(dx) <= 1e-8 * abs(x):
            if abs(x - pred) > 0.25 * abs(pred - q):
                return None
            return x, wx, s, v
    return None


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
