"""Stokes-line geometry: canonical rays, sector classification, tracing."""

import cmath
import math
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from exactwkb.errors import SeriesError, TraceEscape
from exactwkb.series import PuiseuxSeries, TaylorSeries
from exactwkb.stokes import (action_along_polyline, canonical_stokes_lines,
                             classify_sector, node_condition_residuals,
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
    d = _short_fig5()
    calls = [0]

    def V(q):
        calls[0] += 1
        return q + 0.5 * q * q

    node_condition_residuals(V, d)
    check_calls, calls[0] = calls[0], 0
    for line in d.lines:
        action_along_polyline(V, line)
    assert check_calls == calls[0] > 0


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
