"""Stokes-line geometry: canonical rays, sector classification, tracing."""

import cmath
import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from exactwkb import stokes
from exactwkb.contours import _gl
from exactwkb.errors import SeriesError, TraceEscape
from exactwkb.series import PuiseuxSeries, TaylorSeries
from exactwkb.stokes import (GL_ACTION, _action_from_origin,
                             _action_increment, _callable_potential,
                             _sqrt_near,
                             action_along_polyline,
                             canonical_stokes_lines, classify_sector,
                             node_condition_residuals,
                             potential_stokes_curves)

V_FIG5 = TaylorSeries({1: 1, 2: Fr(1, 2)})


def _canon(th):
    return round(th % (2 * math.pi), 10) % round(2 * math.pi, 10)


def ray_args(diagram):
    return sorted(_canon(cmath.phase(line[-1])) for line in diagram.lines)


def test_canonical_rays_alpha_zero():
    d = canonical_stokes_lines(0.0)
    assert ray_args(d) == sorted(_canon(x) for x in
                                 (0.0, 2 * math.pi / 3, -2 * math.pi / 3))


def test_canonical_rays_rotate_with_alpha():
    d = canonical_stokes_lines(math.pi / 2)
    expect = sorted(_canon((math.pi / 2 + k * math.pi) * 2 / 3)
                    for k in (0, 1, -1))
    assert ray_args(d) == expect


def test_alpha_periodicity_and_half_turn():
    base = set(ray_args(canonical_stokes_lines(0.0)))
    assert set(ray_args(canonical_stokes_lines(3 * math.pi))) == base
    # alpha -> alpha + pi maps the ray set to itself (roles swap)
    assert set(ray_args(canonical_stokes_lines(math.pi))) == base


def test_classification():
    assert classify_sector(cmath.exp(1j * math.pi / 3)) == "S1"
    assert classify_sector(cmath.exp(2j * math.pi / 3)) == "ON_LINE:L1"
    assert classify_sector(cmath.exp(1j * math.pi)) == "S2"
    assert classify_sector(cmath.exp(-1j * math.pi / 3)) == "S-1"
    with pytest.raises(ValueError):
        classify_sector(0j)


def test_classification_locally_constant():
    for th in (0.3, 1.2, -0.9, 2.8):
        z = cmath.exp(1j * th)
        if classify_sector(z).startswith("ON_LINE"):
            continue
        up = classify_sector(z * cmath.exp(1e-9j))
        dn = classify_sector(z * cmath.exp(-1e-9j))
        assert up == dn == classify_sector(z)


def test_tracer_reduces_to_canonical_rays():
    d = potential_stokes_curves(TaylorSeries({1: 1}), 0.0, step=0.02, extent=1.0)
    for line in d.lines:
        th = cmath.phase(line[-1])
        for q in line[2:]:
            dev = abs((cmath.phase(q) - th + math.pi) % (2 * math.pi) - math.pi)
            assert dev < 1e-9


def test_fig5_potential_node_condition():
    d = potential_stokes_curves(V_FIG5, 0.0, step=0.01, extent=1.5,
                                region_radius=5.0)
    assert len(d.lines) == 3
    assert max(node_condition_residuals(V_FIG5, d)) < 1e-10


def test_fig5_topology_real_ray_and_connection():
    # alpha = 0: one line runs out along the positive real axis
    d = potential_stokes_curves(V_FIG5, 0.0, step=0.01, extent=2.0,
                                region_radius=8.0)
    ends = [line[-1] for line in d.lines]
    real_line = min(ends, key=lambda q: abs(q.imag))
    assert real_line.real > 1.9 and abs(real_line.imag) < 1e-9
    # the connection to the second turning point q = -2 shows up in the
    # imaginary direction: V < 0 on (-2, 0) makes the action imaginary
    d2 = potential_stokes_curves(V_FIG5, math.pi / 2, step=0.005, extent=6.0,
                                 region_radius=20.0)
    ends2 = [line[-1] for line in d2.lines]
    assert min(abs(q + 2.0) for q in ends2) < 5e-3
    assert max(node_condition_residuals(V_FIG5, d2)) < 1e-10


def _short_fig5():
    return potential_stokes_curves(V_FIG5, 0.0, step=0.01, extent=0.5,
                                   region_radius=2.0)


def test_node_check_matches_prefix_reintegration():
    # the one-pass check reads the same totals as integrating every
    # sampled prefix from the turning point again
    d = _short_fig5()
    rot = cmath.exp(-1j * d.direction_alpha)
    expect = [abs((action_along_polyline(V_FIG5, line[:j + 1]) * rot).imag)
              for line in d.lines for j in range(2, len(line), 5)]
    assert node_condition_residuals(V_FIG5, d) == expect


def test_node_check_is_one_pass_per_line():
    # counts evaluated points, not calls, since V is called on arrays
    d = _short_fig5()
    points = [0]

    def V(q):
        points[0] += np.size(q)
        return q + 0.5 * q * q

    node_condition_residuals(V, d)
    check_points, points[0] = points[0], 0
    for line in d.lines:
        action_along_polyline(V, line)
    assert check_points == points[0] > 0


def test_node_check_flags_a_node_off_the_curve():
    # the check re-integrates along the nodes it is given rather than
    # trusting the tracer: a node moved off the curve fails, and by path
    # independence the nodes after it pass again
    d = _short_fig5()
    j = 12
    line = list(d.lines[0])
    tangent = line[j + 1] - line[j - 1]
    line[j] += 1e-3 * 1j * tangent / abs(tangent)
    moved = replace(d, lines=(tuple(line),) + d.lines[1:])
    resid = node_condition_residuals(V_FIG5, moved)
    k = (j - 2) // 5
    later = resid[k + 1:len(range(2, len(line), 5))]
    assert resid[k] > 1e-10
    assert later and max(later) < 1e-10


def test_trace_escape():
    with pytest.raises(TraceEscape):
        potential_stokes_curves(V_FIG5, 0.0, step=0.01, extent=4.0,
                                region_radius=0.5)


@pytest.mark.parametrize("V", [PuiseuxSeries({1: 1, Fr(5, 2): 1}),
                               PuiseuxSeries({Fr(1, 2): 1})])
def test_non_taylor_potential_is_refused(V):
    # a fractional exponent would otherwise be read as int(e): z + z^2, or 1
    with pytest.raises(SeriesError, match="V must be holomorphic"):
        potential_stokes_curves(V, 0.0, step=0.01, extent=1.0)
    with pytest.raises(SeriesError):
        node_condition_residuals(V, canonical_stokes_lines(0.0, extent=0.5))


V_BENCH = TaylorSeries({1: 1, 2: Fr(-1, 2), 3: Fr(5, 6)})


@pytest.mark.parametrize("V, alpha, extent, region, counts, digest", [
    (V_FIG5, 0.0, 1.5, 5.0, [154, 155, 155],
     "416fbc1998e2515cb5f7f79c569f76cd72e850b385fb6791b2689dc58e3bc353"),
    (TaylorSeries({1: 1, 2: Fr(-2, 3), 3: Fr(1, 4)}), 0.6, 1.5, 5.0,
     [154, 154, 155],
     "c513c67441143b52ae9b5f40ca71abeeb3088dea14fbbf755451ba07a30ddbe3"),
    # as the benchmark draws them: alpha < 0, region three times extent
    (V_BENCH, -0.9, 2.5, 7.5, [256, 264, 255],
     "d760551416808e141efc32335fd1c7e4e4c3edae72b1a5802e1c6853d95f097c"),
], ids=["fig5", "cubic", "cubic_bench"])
def test_tracer_nodes_are_pinned(V, alpha, extent, region, counts, digest):
    # a refactor of the tracer must not move any bit of any node (the
    # repr of every node is hashed).  Each node is Newton's root of
    # W(x) = e^{i alpha} t, so the node check reads rounding-level
    # residuals
    d = potential_stokes_curves(V, alpha, step=0.01, extent=extent,
                                region_radius=region)
    assert [len(line) for line in d.lines] == counts
    assert max(node_condition_residuals(V, d)) < 1e-13
    assert hashlib.sha256(repr(d.lines).encode()).hexdigest() == digest


def test_tracer_calls_v_about_eleven_times_a_node():
    # per node: the 8-point action increment to the predictor and V at
    # its end, and one V call for each of two Newton iterations;
    # integrating an iteration's small dx by 8-point Gauss-Legendre again
    # would cost 9
    calls = [0]
    Vf = _callable_potential(V_BENCH)

    def V(q):
        calls[0] += 1
        return Vf(q)

    d = potential_stokes_curves(V, -0.9, step=0.01, extent=2.5,
                                region_radius=7.5)
    assert calls[0] <= 11.1 * sum(len(line) for line in d.lines)


def test_correction_near_another_turning_point_keeps_the_node_condition():
    # alpha just off 0 and real V: the line along the positive axis runs
    # into the zero of V = q - q^2/2 - q^3/3 near q = 1.14 and turns off
    # it (at alpha = 0 it would end there); the trapezoid rule over the
    # Newton iterations' dx there would leave 7e-7 in the action
    V = TaylorSeries({1: 1, 2: Fr(-1, 2), 3: Fr(-1, 3)})
    d = potential_stokes_curves(V, 1e-3, step=0.01, extent=2.5,
                                region_radius=7.5)
    assert max(node_condition_residuals(V, d)) < 1e-10


def test_line_through_another_turning_point_keeps_the_node_condition():
    # the line along the positive axis runs into the zero of V = q - 2q^3
    # at q = 1/sqrt(2), where |V| = 0.0105 is just above the stop rule.
    # The nodes are roots of W(x) = t on the axis, and past the zero none
    # is near its predictor, so the line ends within a step of the zero
    # rather than running through it
    V = TaylorSeries({1: 1, 3: -2})
    d = potential_stokes_curves(V, 0.0, step=0.01, extent=1.0,
                                region_radius=8.0)
    assert max(node_condition_residuals(V, d)) < 1e-10
    assert abs(d.lines[0][-1] - 2 ** -0.5) < 0.01


def test_root_keeps_to_the_predicted_branch(monkeypatch):
    # V = q - 2q^3 as above.  Past its zero r = 1/sqrt(2) the axis has no
    # root of W(x) = W(r) + 1e-4: from a predictor at 0.7, Newton settles
    # at 0.7084 - 0.0021i, on another Stokes line leaving r.  A step of
    # 0.01 refuses that as more than a quarter step away, and a step of
    # 0.1 accepts it
    Vf = _callable_potential(TaylorSeries({1: 1, 3: -2}))
    w_r, _ = _action_from_origin(Vf, 2 ** -0.5)
    for q, refused in ((0.69, True), (0.6, False)):
        w, sq = _action_from_origin(Vf, q)
        root = stokes._root(Vf, q, w, _sqrt_near(Vf(q), sq), w_r + 1e-4, 0.7)
        assert (root is None) == refused
    assert abs(root[0] - (0.70837 - 0.00212j)) < 1e-5
    # the tracer retries a refused target a quarter as far
    steps, root_of = [], stokes._root

    def spy(Vf, q, w, sq, target, pred):
        root = root_of(Vf, q, w, sq, target, pred)
        steps.append((abs(target - w), root is None))
        return root

    monkeypatch.setattr(stokes, "_root", spy)
    potential_stokes_curves(Vf, 0.0, step=0.01, extent=1.0)
    retries = [(dt, steps[k + 1][0]) for k, (dt, refused) in
               enumerate(steps[:-1]) if refused]
    assert retries
    assert all(abs(after - 0.25 * dt) <= 1e-9 * dt for dt, after in retries)


def test_tracer_ends_a_line_that_stalls():
    # V = 10^12 q (1 - q): |V| would reach the stop rule only within 5e-15
    # of the zero at q = 1.  Targets past the zero are refused until dt
    # falls 1e-9 below its cap, and the line ends there, 1.6e-11 short
    V = TaylorSeries({1: 10 ** 12, 2: -10 ** 12})
    d = potential_stokes_curves(V, 0.0, step=0.01, extent=2.0,
                                region_radius=8.0)
    assert abs(d.lines[0][-1] - 1.0) < 1e-9


@pytest.mark.parametrize("V", [
    V_FIG5, V_BENCH, TaylorSeries({0: Fr(1, 3), 3: -2}),
    TaylorSeries({2: Fr(1, 7), 5: Fr(-3, 11), 6: 1}),
    TaylorSeries({1: 1, 4: Fr(1, 3) + 2j / 5}),
], ids=["fig5", "cubic", "constant_and_gap", "gaps", "complex_coeff"])
def test_horner_potential_matches_the_power_sum(V):
    Vf = _callable_potential(V)
    items = [(int(e), complex(c)) for e, c in V.coeffs.items()]
    qs = [0.3 - 0.2j, -1.7 + 0.4j, 2.5j, 1e-3 + 1e-3j, -3.0 + 0j]
    arr = np.array(qs)
    got_arr = Vf(arr)
    assert got_arr.shape == arr.shape
    for q, g in zip(qs, got_arr):
        expect = sum(c * q ** e for e, c in items)
        scale = sum(abs(c) * abs(q) ** e for e, c in items)
        assert type(Vf(q)) is complex
        assert abs(Vf(q) - expect) <= 8 * 2.0 ** -52 * scale
        assert abs(g - expect) <= 8 * 2.0 ** -52 * scale


def test_tracer_runs_on_python_scalars():
    # numpy scalar arithmetic costs several times float arithmetic per
    # operation; none may leak into the nodes or the running action w
    V = TaylorSeries({1: 1, 2: Fr(-1, 2), 3: Fr(5, 6)})
    d = potential_stokes_curves(V, -0.9, step=0.01, extent=1.0)
    assert {type(q) for line in d.lines for q in line} == {complex}
    Vf, q = _callable_potential(V), 0.0025 * cmath.exp(-0.6j)
    w, sq = _action_from_origin(Vf, q)
    dw, sq_new, _ = _action_increment(Vf, q, 1.5 * q, sq)
    assert type(w) is type(sq) is type(dw) is type(sq_new) is complex


def _scalar_running_action(Vf, nodes):
    """Reference for the node check: the same rule as a scalar loop, one
    V call per Gauss-Legendre point; yields the total at each node after
    the first."""
    x, wts = _gl(GL_ACTION)
    total = 0j
    s_run = None
    for a, b in zip(nodes[:-1], nodes[1:]):
        if a == 0:
            dw, s_run = _action_from_origin(Vf, b)
            total += dw
            yield total
            continue
        npan = min(32, max(1, int(math.ceil(4.0 * abs(b - a) / abs(a)))))
        for k in range(npan):
            aa = a + (b - a) * k / npan
            bb = a + (b - a) * (k + 1) / npan
            mid, half = (aa + bb) / 2.0, (bb - aa) / 2.0
            for xi, wi in zip(x, wts):
                qq = mid + half * xi
                s = cmath.sqrt(Vf(qq))
                if s_run is None:
                    ref = cmath.sqrt(qq)
                    if abs(s - ref) > abs(s + ref):
                        s = -s
                elif abs(s - s_run) > abs(s + s_run):
                    s = -s
                s_run = s
                total += wi * s * half
        yield total


def _seeded_cubic(seed):
    rng = random.Random(seed)
    V = TaylorSeries({1: 1, 2: Fr(rng.randint(-6, 6), 6),
                      3: Fr(rng.randint(-6, 6), 6)})
    return V, math.pi * (rng.random() - 0.5), rng.uniform(1.1, 2.5)


@pytest.mark.parametrize("V, alpha, extent", [(V_FIG5, 0.0, 1.5)]
                         + [_seeded_cubic(seed) for seed in (1, 2, 3)],
                         ids=["fig5", "cubic1", "cubic2", "cubic3"])
def test_node_check_matches_scalar_reference(V, alpha, extent):
    # V is evaluated on arrays, so its products round differently from
    # the scalar loop; agreement is to rounding, not to the bit
    d = potential_stokes_curves(V, alpha, step=0.01, extent=extent,
                                region_radius=3.0 * extent)
    Vf, rot = _callable_potential(V), cmath.exp(-1j * alpha)
    expect = [abs((w * rot).imag) for line in d.lines
              for j, w in enumerate(_scalar_running_action(Vf, line), 1)
              if j % 5 == 2]
    got = node_condition_residuals(V, d)
    assert len(got) == len(expect) > 0
    assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-15


RING = [0.3 * cmath.exp(1j * math.pi * k / 8) for k in range(49)]


@pytest.mark.parametrize("V, nodes", [
    # three turns around the turning point: the principal sqrt(V) jumps
    # each time the path crosses the negative real axis, where
    # V = q + q^2/2 < 0, and the continued branch must not
    (V_FIG5, [0j] + RING),
    # without the origin segment the branch is seeded by sqrt(q)
    (V_FIG5, RING),
    # along the ray to q1, sqrt(V) for V = q (1 + q/2)^3 turns by more
    # than pi/2 against sqrt(q): the next segment must continue the
    # origin segment's last sqrt(V), not the principal sqrt(q)
    (TaylorSeries({1: 1, 2: Fr(3, 2), 3: Fr(3, 4), 4: Fr(1, 8)}),
     [0j, -3 + 0.5j, -3.2 + 0.4j, -3.3 + 0.1j]),
], ids=["ring", "ring_off_origin", "origin_seed"])
def test_action_continues_the_branch_as_the_scalar_reference(V, nodes):
    expect = list(_scalar_running_action(_callable_potential(V), nodes))
    got = [action_along_polyline(V, nodes[:j + 2])
           for j in range(len(expect))]
    assert max(abs(g - e) for g, e in zip(got, expect)) < 1e-15


def test_turning_point_only_at_the_start():
    with pytest.raises(ValueError, match="first node"):
        action_along_polyline(V_FIG5, [0j, 0.1, 0j, 0.1j])


def test_scalar_only_callable_is_refused_by_the_check():
    def V(q):
        return cmath.sqrt(q) ** 2 + 0.5 * q * q

    d = potential_stokes_curves(V, 0.0, step=0.01, extent=0.3)
    with pytest.raises(TypeError, match="complex numpy array"):
        node_condition_residuals(V, d)
    with pytest.raises(TypeError, match="complex numpy array"):
        action_along_polyline(V, d.lines[0])
