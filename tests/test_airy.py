"""Airy model: exact coefficients, the one-variable minor, contour
oracle, Borel summation, lateral sums and the Stokes jump."""

import cmath
import itertools
import math
import random
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from exactwkb.airy import (LATERAL_DELTA, airy_alpha,
                           airy_borel_sum, airy_borel_sum_hp, airy_contour,
                           airy_oracle, airy_symbol, stokes_jump,
                           symbol_borel_sum)
from exactwkb import airy, borel, symbols
from exactwkb.borel import exact_pade, genuine_poles, pade_from_taylor
from exactwkb.contours import ContourSpec, integrate_polyline
from exactwkb.errors import ContourFailure, ExactWKBError, PoleOnRay
from exactwkb.hardy import hardy_phi_eval
from exactwkb.pde import confluent_eval, pde_taylor
from exactwkb.series import PuiseuxSeries, TaylorSeries
from exactwkb.symbols import WKBSymbol, branch_arg, zpow
from exactwkb.transport import transport_g

L1_POINT = 0.8 * cmath.exp(2j * math.pi / 3)


def rational(approx):
    """xi -> num(xi)/den(xi) on numpy arrays, the Pade approximant's
    coefficients rounded to complex."""
    num, den = (np.array(xs, dtype=complex)[::-1] for xs in (approx.num, approx.den))
    return lambda xi: np.polyval(num, xi) / np.polyval(den, xi)


def laplace_quadrature(R, eps):
    """int_0^inf exp(-xi/eps) R(xi) dxi along arg xi = 0 on composite
    Gauss-Legendre panels (contours.integrate_polyline, sized by the phase
    xi/eps) over the graded nodes 0, T 0.7^32, ..., T 0.7, T, with e^-60
    weight at T = 60|eps|/cos(arg eps).  The grading keeps a Pade pole
    string just off the ray a fixed multiple of each panel's width away;
    est_error compares the full and halved orders.  A reference for the
    closed form that shares no code with it."""
    T = 60.0 * abs(eps) / math.cos(cmath.phase(eps))
    nodes = [0j] + [T * 0.7 ** k for k in range(32, -1, -1)]
    return integrate_polyline(lambda xi: np.exp(-xi / eps) * R(xi), nodes,
                              ContourSpec(), phase=lambda xi: xi / eps)[0]


def test_alpha_exact_values():
    assert airy_alpha(0) == 1
    assert airy_alpha(1) == Fr(-5, 48)
    assert airy_alpha(2) == Fr(385, 4608)


def _alpha_per_n(n):
    # (-3/4)^n prod_{j<n} (j+1/6)(j+5/6) / n!, formed afresh for each n
    acc = Fr(1)
    for j in range(n):
        acc *= Fr((6 * j + 1) * (6 * j + 5), 36)
    return acc * Fr(-3, 4) ** n / math.factorial(n)


def test_running_alpha_product_matches_per_n_product():
    sym = airy_symbol(40)
    assert sym.order == 40
    for n in range(41):
        assert airy_alpha(n) == _alpha_per_n(n)
        assert sym.eps_coeffs[n] == PuiseuxSeries({Fr(-3 * n, 2): _alpha_per_n(n)})
    assert airy_symbol(-1).eps_coeffs == ()
    with pytest.raises(ValueError):
        airy_alpha(-1)


def test_symbol_monomials_and_minor_factorials():
    sym = airy_symbol(6)
    for n, g in enumerate(sym.eps_coeffs):
        if n == 0:
            assert g == PuiseuxSeries({0: 1})
        else:
            assert g == PuiseuxSeries({Fr(-3 * n, 2): airy_alpha(n)})
    z = 0.7 * cmath.exp(0.4j)
    minor = sym.minor_values(z)
    g = sym.g_values(z)
    assert len(minor) == sym.order
    for n in range(1, sym.order + 1):
        assert abs(minor[n - 1] - g[n] / math.factorial(n - 1)) <= 1e-15 * abs(g[n])


def test_branch_positive_real_on_L0():
    assert abs(zpow(2.0, Fr(3, 2)) - 2.0 ** 1.5) < 1e-15
    assert abs(zpow(2.0, Fr(1, 4)) - 2.0 ** 0.25) < 1e-15
    assert zpow(0, 0) == 1
    # cut placement: branch_arg covers (-2pi/3, 4pi/3]
    assert branch_arg(cmath.exp(1j * 0.99 * math.pi)) > 0
    assert branch_arg(cmath.exp(1j * 1.3 * math.pi)) > math.pi


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_contour_matches_independent_oracle(eps):
    r = airy_contour(1.0, eps)
    o = airy_oracle(1.0, eps)
    assert abs(r.value - o) / abs(o) < 1e-10
    assert abs(r.value - o) <= 10 * (r.est_error + 1e-18) + 1e-13 * abs(o)


def test_contour_schwarz_symmetry():
    z = 1.2
    a = airy_contour(z, 0.08 + 0.01j).value
    b = airy_contour(z, 0.08 - 0.01j).value
    assert abs(a - b.conjugate()) / abs(a) < 1e-11


def test_contour_real_on_L0():
    r = airy_contour(1.5, 0.07)
    assert abs(r.value.imag) < 1e-12 * abs(r.value)


def test_contour_scale_overflow_raises():
    # exp(-S(saddle)/eps) is about e^720 here: typed failure, not OverflowError
    with pytest.raises(ContourFailure):
        airy_contour(-3.22 + 3.83j, 0.01)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, args", [
    (airy_contour, (0, 0.1)), (airy_borel_sum, (0, 0.1, 1)),
    (airy_borel_sum, (0j, 0.1, 24)), (airy_borel_sum_hp, (0, 0.1, 24)),
    (stokes_jump, (0, 0.1, 24)), (stokes_jump, (0, 0.1, 24, True))],
    ids=["contour", "borel-N1", "borel", "borel_hp", "jump", "jump-mirror"])
def test_turning_point_raises(fn, args):
    # z = 0 is refused before any arithmetic: no warning, no nan
    with pytest.raises(ContourFailure, match="z = 0 is the turning point"):
        fn(*args)


def test_explicit_path_reversed_flips_sign():
    # a path between the two valleys, scaled at the first root of dS,
    # gives the thimbles' value, and walking it backwards negates it (near
    # arg z = pi the integrand along it stays within the value's scale)
    z, eps = -1.1 + 0.3j, 0.08
    turn = cmath.phase(eps) / 3
    path = (3 * cmath.exp(1j * (turn - math.pi / 3)), 0j,
            3 * cmath.exp(1j * (turn + math.pi / 3)))
    there = airy_contour(z, eps, ContourSpec(path=path))
    back = airy_contour(z, eps, ContourSpec(path=path[::-1]))
    thimbles = airy_contour(z, eps)
    assert abs(there.value - thimbles.value) <= 10 * (there.est_error
                                                      + thimbles.est_error)
    assert abs(there.value + back.value) <= there.est_error + back.est_error


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_thimble_into_the_other_saddle_is_retraced_laterally(r, eps):
    # on L1 and L-1 a thimble of one saddle runs into the other: the branch
    # points s = +-i/r of its closed form lie on the real s axis, and the
    # path is bent off them to one side, which names its valleys.  There
    # eps/S(s) is real and negative, so the principal root r flips sign
    # between L1 and L-1.  Near a Stokes line they sit just off the axis:
    # at the last two points a trapezoid sum on the unbent line settles
    # 4.5e-4 and 4.1e-6 away from the oracle
    zs = [(r * cmath.exp(2j * math.pi / 3), eps), (r * cmath.exp(-2j * math.pi / 3), eps),
          (-0.19253 - 0.21318j, 0.043619 - 0.014265j), (0.5 * cmath.exp(2j * math.pi / 3), 0.05)]
    for z, e in zs:
        res = airy_contour(z, e)
        assert abs(res.value - airy_oracle(z, e)) <= 10 * res.est_error, z
        assert res.est_error <= 1e-13 * abs(res.value), z


def test_thimble_walks_take_a_pinned_number_of_roots():
    # the nodes of the thimbles' trapezoid sums on fixed inputs: a change
    # to the rule or its stop shows here even where no value moves
    used = [airy_contour(r * cmath.exp(2j * math.pi / 3), eps).nodes_used
            for r in (0.5, 1.0) for eps in (0.05, 0.1)]
    used.append(hardy_phi_eval(3, cmath.exp(1j * math.pi / 5), 0.1).nodes_used)
    F, h = PuiseuxSeries({0: Fr(1, 3), 1: Fr(-2, 7)}), PuiseuxSeries({0: Fr(1, 5)})
    used.append(confluent_eval(F, h, 2.5, 0.2).nodes_used)
    assert used == [671, 671, 167, 671, 167, 167]
    # at z = -0.5, eps = 0.3 the kernel's x_cap cuts a thimble
    assert confluent_eval(F, h, -0.5, 0.3).nodes_used == 334
    # a cut's truncation estimate is raised to twice the Laplace tail at
    # the cut, so it covers what the cut drops from the uncut value with a
    # margin (the tail alone gave 1.18 times it at x_cap = 4)
    full = airy_contour(-0.5, 0.3)
    for x_cap in (0.5, 1.0, 2.0, 4.0):
        cut = airy_contour(-0.5, 0.3, ContourSpec(x_cap=x_cap))
        assert 0 < 1.5 * abs(cut.value - full.value) <= cut.est_error, x_cap


def test_cut_before_the_first_root_is_a_stall():
    # an x_cap passed within the scan's first step of the saddle leaves no
    # interval to integrate: a typed error, not a value made of its cut
    with pytest.raises(ContourFailure, match="no interval"):
        airy_contour(1.0, 0.1, ContourSpec(x_cap=1e-12))


@pytest.mark.parametrize("z, eps", [(1.1 + 0.3j, 0.08), (1.0, 0.1)])
def test_explicit_path_est_error_covers_its_cancellation(z, eps):
    # near w = 0 the integrand along these rays is e^{Re S(saddle)/eps} times
    # the value, so the rounding of S/eps is counted on the sum of the
    # |terms| of the quadrature; counted on |value| it fell 31x and 10x short
    path = (3 * cmath.exp(-1j * math.pi / 3), 0j, 3 * cmath.exp(1j * math.pi / 3))
    res = airy_contour(z, eps, ContourSpec(path=path))
    assert abs(res.value - airy_oracle(z, eps)) <= res.est_error


def test_contour_all_sectors_vs_oracle():
    for th in (-0.6 * math.pi, -0.2 * math.pi, 0.3 * math.pi, 2 * math.pi / 3,
               0.85 * math.pi, 1.1 * math.pi):
        z = 0.9 * cmath.exp(1j * th)
        r = airy_contour(z, 0.05)
        o = airy_oracle(z, 0.05)
        assert abs(r.value - o) / abs(o) < 1e-9, th


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
def test_borel_sum_vs_contour(eps):
    b = airy_borel_sum(1.0, eps, 24, pade=(12, 12))
    c = airy_contour(1.0, eps)
    assert abs(b.value - c.value) / abs(c.value) < 1e-8


def test_borel_sum_near_pole_string_vs_oracle():
    # the minor's singular direction (and its Pade pole string) lies about
    # 10.6 degrees off the Laplace ray arg xi = 0 here
    z, eps = -0.3093568941868805 - 0.722465366266679j, 0.16721583761194078
    b = airy_borel_sum(z, eps, 30)
    o = airy_oracle(z, eps)
    assert abs(b.value - o) / abs(o) < 1e-8


def test_borel_error_decreases_with_eps():
    errs = []
    for eps in (0.2, 0.1, 0.05, 0.02):
        b = airy_borel_sum(1.0, eps, 18)
        o = airy_oracle(1.0, eps)
        errs.append(abs(b.value - o) / abs(o))
    assert all(errs[i + 1] < errs[i] or errs[i + 1] < 1e-14
               for i in range(len(errs) - 1)), errs


def test_borel_degenerate_truncation():
    # one eps-order: value reduces to the bare prefactor
    b = airy_borel_sum(1.0, 0.05, 1, pade=(0, 0))
    sym = airy_symbol(0)
    assert b.value == sym.prefactor(1.0, 0.05)


def test_pade_clamps_to_available_data():
    c = np.array([1.0, -1.0, 1.0])      # 1/(1+x) truncated
    ap = pade_from_taylor(c, 5, 5)      # clamped to fit 3 coefficients
    assert abs(complex(rational(ap)(0.5)) - 1 / 1.5) < 1e-12


def test_pole_on_ray_raises():
    # g_n = (n-1)!: the minor is 1/(1 - xi), its pole at xi = +1 on the
    # positive ray, found by the split of the double approximant
    sym = WKBSymbol.from_g([PuiseuxSeries.monomial(Fr(math.factorial(max(n - 1, 0))), 0)
                            for n in range(13)])
    with pytest.raises(PoleOnRay, match="obstructs the ray arg xi = 0"):
        symbol_borel_sum(sym, 1.0, 0.05)


@pytest.mark.parametrize("r", [0.9, 1.5])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_hp_sum_serves_L1_where_the_double_sum_refuses(r, eps):
    # on L1 the minor's first pole lies about 1e-16 of its modulus off the
    # ray arg xi = 0: clear of mpmath's rounding, inside the double sums'
    # 3% margin
    z = r * cmath.exp(2j * math.pi / 3)
    ref = airy_oracle(z, eps)
    assert abs(complex(airy_borel_sum_hp(z, eps, 30)) - ref) <= 1e-15 * abs(ref)
    with pytest.raises(PoleOnRay, match="obstructs the ray arg xi = 0"):
        airy_borel_sum(z, eps, 30)


def test_pole_near_the_origin_is_named_apart_from_the_ray():
    # the minor's pole at -0.00223-0.00108i lies behind the ray arg xi = 0,
    # but within the margin of xi = 0, where every ray starts
    with pytest.raises(PoleOnRay, match="of xi = 0, where every Laplace ray starts"):
        airy_borel_sum(0.01 * cmath.exp(0.3j), 0.1, 24)


def test_ray_outside_the_half_plane_of_eps_raises():
    # arg xi = +-1.6 is past pi/2 from arg eps = 0: exp(-xi/eps) grows
    # there, and the closed form (laplace_pade) refuses the ray, as it
    # refuses arg xi = 0 for arg eps = -/+1.6; arg eps = 1.54, where
    # cos(arg eps) = 0.03, is still inside the half-plane and served; at
    # N = 1 the minor is 0 and the ray is refused all the same
    for theta in (1.6, -1.6):
        for N in (1, 24):
            with pytest.raises(PoleOnRay, match="outside the half-plane of eps"):
                airy_borel_sum(1 + 0.5j, 0.1, N, theta=theta)
        with pytest.raises(PoleOnRay, match="outside the half-plane of eps"):
            symbol_borel_sum(airy_symbol(23), 1 + 0.5j, 0.1 * cmath.exp(-1j * theta))
    z, eps = 1 + 0.5j, 0.1 * cmath.exp(1.54j)
    got = symbol_borel_sum(airy_symbol(23), z, eps).value
    assert abs(got - airy_borel_sum(z, eps, 24).value) <= 1e-12 * abs(got)


@pytest.mark.parametrize("z", [
    pytest.param(1.2 * cmath.exp(-0.7j * math.pi), id="-0.7"),
    pytest.param(1.2 * cmath.exp(-0.9j * math.pi), id="-0.9"),
    # within one ulp of the cut, where mpmath's arg lies above -2 pi/3 and
    # cmath's on it: the sheet is branch_arg's at both precisions
    pytest.param(-0.2499999999999999 - 0.43301270189221935j, id="cut-0.5"),
    pytest.param(-0.6499999999999997 - 1.1258330249197703j, id="cut-1.3")])
def test_hp_sum_continues_past_arg_z_minus_two_thirds_pi(z):
    # for arg z <= -2 pi/3 the mp sum takes log z + 2 pi i, the branch of
    # branch_arg, and so agrees with the double-precision sum
    ref = airy_borel_sum(z, 0.1, 24).value
    assert abs(complex(airy_borel_sum_hp(z, 0.1, 24)) - ref) <= 1e-14 * abs(ref)


def test_hp_sum_past_double_range_is_finite():
    # exp(x), x = 891 - 127i, overflows double precision: the double sum
    # refuses it, and the hp sum carries it as an mpc within 1e-30 of Ai
    z, eps = 9 * cmath.exp(2j), 0.02
    with pytest.raises(ContourFailure, match="overflows double precision"):
        airy_borel_sum(z, eps, 24)
    got = airy_borel_sum_hp(z, eps, 24)
    with mpmath.workdps(60):
        em = mpmath.mpc(eps)
        ref = 2 * mpmath.sqrt(mpmath.pi) * em ** mpmath.mpf("-1/6") \
            * mpmath.airyai(mpmath.mpc(z) * em ** mpmath.mpf("-2/3"))
        assert abs(ref) > 1e300
        assert abs(got - ref) <= mpmath.mpf(10) ** -30 * abs(ref)


def test_hp_prefactor_rounds_within_its_est_error_term():
    # the hp rounding term: exp(x) z^(-1/4) at 40 and at 100 digits lies
    # within 10 times its bound, mpmath.eps (2 + |x|), of a fused
    # exp(x - log(z)/4) at 20 digits more, |x| <= 173, on both sheets
    # (th = 3.5 is past the cut, where log z gains 2 pi i)
    for r in (0.5, 1.5, 3.0):
        for th in (-2.0, -0.5, 0.8, 2.0, 3.5):
            z = mpmath.mpc(r * cmath.exp(1j * th))
            for eps, sign, dps in itertools.product((0.02, 0.1 * cmath.exp(0.3j)),
                                                    (1, -1), (40, 100)):
                with mpmath.workdps(dps):
                    pref, rounding = symbols._prefactor(sign, z, eps)
                    bound = 10 * rounding * abs(pref)
                with mpmath.workdps(dps + 20):
                    log = mpmath.log(z) + (2j * mpmath.pi if th > math.pi else 0)
                    ref = mpmath.exp(-sign * 2 * mpmath.exp(1.5 * log) / (3 * mpmath.mpc(eps))
                                     - log / 4)
                    assert abs(pref - ref) <= bound, (z, eps, sign, dps)


@pytest.mark.parametrize("N", [0, 1])
def test_hp_sum_without_minor_is_the_prefactor(N):
    z = 1.2 * cmath.exp(-0.9j * math.pi)
    ref = airy_borel_sum(z, 0.1, N)
    assert ref.nodes_used == 0
    assert abs(complex(airy_borel_sum_hp(z, 0.1, N)) - ref.value) <= 1e-14 * abs(ref.value)


def test_lateral_sum_above_continues_entire_function_on_L1():
    eps = 0.05
    lo, hi = (airy_borel_sum(L1_POINT, eps, 40, theta=theta).value
              for theta in (-LATERAL_DELTA, LATERAL_DELTA))
    oracle = airy_oracle(L1_POINT, eps)
    assert abs(hi - oracle) / abs(oracle) < 1e-10
    assert abs(lo - oracle) / abs(oracle) > 1e-10  # below-ray sum differs


@pytest.mark.parametrize("z, eps, N", [
    pytest.param(L1_POINT, 0.05, 40, id="L1_real_eps"),
    pytest.param(-0.14458099545136907 + 0.2504216299306561j,
                 0.19105987376650582 + 0.04603891116520134j, 37,
                 id="complex_eps"),
    # numeric-workload inputs (seeds 6 and 8 at 26 rounds) that raised
    # PoleOnRay while each call solved its minor's Pade system at z in
    # double precision
    pytest.param(-0.15119793585430594 + 0.261882506899198j,
                 0.025904401297326685, 32, id="once_obstructed_seed6"),
    pytest.param(-0.1812644733717612 + 0.3139592774871064j,
                 0.02431155984005291, 34, id="once_obstructed_seed8"),
])
def test_stokes_jump_matches_alien_derivative(z, eps, N):
    jump, pred = stokes_jump(z, eps, N)
    assert abs(jump - pred) / abs(pred) < 1e-4


def test_stokes_jump_off_line_is_null():
    z = 0.8 * cmath.exp(1j * math.pi / 3)
    jump, _ = stokes_jump(z, 0.05, 40)
    scale = abs(symbol_borel_sum(airy_symbol(39), z, 0.05).value)
    assert abs(jump) / scale < 1e-8


def test_stokes_jump_mirror_on_L0():
    jump, pred = stokes_jump(0.8, 0.05, 40, mirror=True)
    assert abs(jump - pred) / abs(pred) < 1e-4


def test_borel_vs_contour_sampled_grid():
    # agreement within est_error + tolerance across a sector sample
    for th in (0.15 * math.pi, 0.4 * math.pi, -0.3 * math.pi):
        z = 1.1 * cmath.exp(1j * th)
        for eps in (0.08, 0.03):
            b = airy_borel_sum(z, eps, 28)
            c = airy_contour(z, eps)
            tol = b.est_error + c.est_error + 1e-10 * abs(c.value)
            assert abs(b.value - c.value) <= tol


def test_verify_quadrature_suite_json_clean():
    import json

    from exactwkb.verification import run_suite

    suite = run_suite("all")
    json.dumps(suite)          # numpy scalars must not leak through
    assert suite["passed"] is True


# Points where choosing saddles from arg z alone goes wrong: rotated eps
# at arg z = -110 deg and 1e-4 rad inside L-1, real eps 1e-4 rad inside
# L+-1, and two sweep points where S2 needs both thimbles.
PICKER_WRONG = (
    [(cmath.rect(r, th), 0.05 * cmath.exp(0.4j))
     for r in (0.05, 0.3) for th in (math.radians(-110), -2 * math.pi / 3 + 1e-4)]
    + [(cmath.rect(r, s * (2 * math.pi / 3 - 1e-4)), eps)
       for eps in (0.05, 0.2) for r in (0.05, 0.3, 1.0) for s in (1, -1)]
    + [(cmath.rect(0.47, math.radians(-114.8)), 0.05),
       (cmath.rect(0.78, math.radians(-111.9)), 0.05)])


def _sweep(seed=1, count=200):
    rng = random.Random(seed)
    eps_set = (0.01, 0.05, 0.2, 0.05 * cmath.exp(0.4j))
    return [(cmath.rect(rng.uniform(0.05, 4.0), rng.uniform(-math.pi, math.pi)),
             rng.choice(eps_set)) for _ in range(count)]


@pytest.mark.parametrize("z, eps", PICKER_WRONG)
def test_contour_picker_wrong_points_within_ten_est_errors(z, eps):
    r = airy_contour(z, eps)
    assert abs(r.value - airy_oracle(z, eps)) <= 10 * r.est_error


def test_contour_and_confluent_sweep_within_ten_est_errors():
    # |value - oracle| <= 10 est_error, which counts the rounding of the
    # exponent S/eps, or a typed error, over every sector, |z| in
    # [0.05, 4] and rotated eps
    psi = pde_taylor(PuiseuxSeries.zero(), PuiseuxSeries.zero(), 40, 40)
    for z, eps in PICKER_WRONG + _sweep():
        o = airy_oracle(z, eps)
        for fn in (airy_contour,
                   lambda z, eps: confluent_eval(PuiseuxSeries.zero(),
                                                 PuiseuxSeries.zero(), z, eps,
                                                 psi=psi)):
            try:
                r = fn(z, eps)
            except ExactWKBError:
                continue
            assert abs(r.value - o) <= 10 * r.est_error, (z, eps)


def _one_term(z, eps):
    # both Laplace rays, arg xi = 0 and arg eps, clear the singular
    # direction of the minor by 0.1 rad inside S1/S-1 (perfbench's range)
    phi, th = cmath.phase(eps), cmath.phase(z)
    return (max(0.0, phi) + 0.1 - math.pi) / 1.5 < th < (math.pi + min(0.0, phi) - 0.1) / 1.5


@pytest.mark.xfail(strict=True, reason="airy_borel_sum's est_error counts only "
                   "the rounding of its closed form, not the Pade truncation")
def test_borel_sum_sweep_within_ten_est_errors():
    for z, eps in _sweep()[:60]:
        if not _one_term(z, eps):
            continue
        try:
            r = airy_borel_sum(z, eps, 28)
        except ExactWKBError:
            continue
        assert abs(r.value - airy_oracle(z, eps)) <= 10 * r.est_error, (z, eps)


# two jump inputs where, with the minor's Pade system solved afresh at z
# in double precision, a pole with a genuine residue sat on a ray at
# LATERAL_DELTA (z on L1 at modulus r)
OBSTRUCTED_JUMPS = [
    (1.2187249962712479, 0.15001815891900233 - 0.04294346419996365j, 39),
    (0.36020159269969565, 0.1520537528894064 + 0.01365753321502024j, 36)]


@pytest.mark.parametrize("r, eps, N", OBSTRUCTED_JUMPS)
def test_once_obstructed_jumps_clear_at_lateral_delta(r, eps, N, monkeypatch):
    # both lateral rays at LATERAL_DELTA clear the poles of B's
    # approximant, the jump is their difference and meets its prediction,
    # and a second jump at the same N reads the cached approximant
    z = r * cmath.exp(2j * math.pi / 3)
    lo, hi = (airy_borel_sum(z, eps, N, theta=theta).value
              for theta in (-LATERAL_DELTA, LATERAL_DELTA))
    jump, pred = stokes_jump(z, eps, N)
    assert jump == lo - hi
    assert abs(jump - pred) <= 1e-4 * abs(pred)
    solved = []
    for engine in ("pade_from_taylor", "exact_pade"):
        monkeypatch.setattr(airy, engine, lambda *args: solved.append(args))
    assert stokes_jump(z, eps, N) == (jump, pred)
    assert solved == []


def test_one_pade_solve_per_order_degrees_and_precision(monkeypatch):
    # one exact computation per (N, pade) serves both precisions: the
    # balanced one reads B's staircase, the others go through
    # pade_from_taylor (the (10, 12) one by 1/c, so on c[:23]), and all
    # of them through the one engine
    airy._minor_pade.cache_clear()
    airy._minor_fractions.cache_clear()
    solved = []

    def spy(c, L, M, qs):
        solved.append((len(c), L, M))
        return exact_pade(c, L, M, qs)

    monkeypatch.setattr(airy, "exact_pade", spy)
    monkeypatch.setattr(borel, "exact_pade", spy)
    for z in (1.1 * cmath.exp(0.3j), 0.7 * cmath.exp(-1.0j), 1.5 * cmath.exp(1.0j)):
        airy_borel_sum(z, 0.1, 30)
        airy_borel_sum(z, 0.1, 30, pade=(10, 12))
        airy_borel_sum(z, 0.1, 30, pade=[14, 14])   # a key apart from None
        airy_borel_sum_hp(z, 0.1, 30, dps=40)
        stokes_jump(z, 0.05, 30)
        stokes_jump(z, 0.05, 30, mirror=True)
    assert sorted(solved) == [(23, 10, 12), (29, 14, 14), (29, 14, 14)]


def test_balanced_orders_share_one_staircase(monkeypatch):
    # _minor_pade(40, None) extends B's staircase to index 38, one
    # denominator a step; the orders 16-39 read it and take no new step
    staircase = [[1], [1]]
    monkeypatch.setattr(airy, "_B_STAIRCASE", staircase)
    airy._minor_pade.cache_clear()
    airy._minor_pade(40, None)
    assert len(staircase) == 40          # Q_-1 .. Q_38
    for N in range(16, 40):
        airy._minor_pade(N, None)
    assert len(staircase) == 40


def test_airy_minor_is_a_hypergeometric_function():
    # B(t) = sum_k alpha_{k+1} t^k / k! against -(5/48) 2F1(7/6, 11/6; 2;
    # -3t/4), which shares no code with the alpha recursion; the Taylor
    # terms fall like (3|t|/4)^k
    alphas = airy._airy_alphas(90)[1:]
    with mpmath.workdps(40):
        for t in (0.5, -0.5, 0.5j, 0.3 - 0.4j, -0.2 + 0.1j):
            series = mpmath.fsum(mpmath.mpf(a.numerator) / a.denominator
                                 * mpmath.mpc(t) ** k / mpmath.factorial(k)
                                 for k, a in enumerate(alphas))
            oracle = -mpmath.mpf(5) / 48 * mpmath.hyp2f1(
                mpmath.mpf(7) / 6, mpmath.mpf(11) / 6, 2, -3 * mpmath.mpc(t) / 4)
            assert abs(series - oracle) <= mpmath.mpf(10) ** -32 * abs(oracle), t


def test_genuine_poles_of_the_double_approximant_lie_on_the_cut():
    # B is singular only on t <= -4/3, and the poles of its exact
    # approximant, split at 30 digits and rounded, emulate that cut
    for N in range(17, 41):
        fractions = airy._minor_fractions(N, None, None)
        poles = genuine_poles(zip(fractions.poles, fractions.residues))
        assert poles, N
        for p in poles:
            nearest = min(p.real, -4 / 3)
            assert abs(p - nearest) <= 1e-3 * abs(p), (N, p)


# numeric-workload inputs that raised PoleOnRay while each call solved
# its minor's Pade system at z in double precision (seeds 1-10 at 26
# rounds; the last three at 25 rounds; the jumps are in
# test_stokes_jump_matches_alien_derivative)
POLE_ON_RAY_SUMS = [
    (1.7831659861938098 - 1.6477657568894335j, 0.1998251774608401, 29),
    (2.2977795927850826 - 0.3411964235900362j, 0.1365110727703767, 30),
    (-0.07695316938085683 - 0.1855057637676247j, 0.02004810495735062, 30),
    (-0.9517251417010284 + 1.9386621764259202j, 0.15310352225717508, 29),
    (1.8591136094409677 - 0.1174074831579235j,
     0.15181246589324343 + 0.012159779972121228j, 22),
    (1.6561327332093272 + 0.16888038814615505j, 0.05695833154516171, 28),
    (1.2185549372039428 + 2.27084433628998j, 0.14899044854068494, 32),
    (-0.15777205387766444 + 0.5560737870215303j, 0.06787333420738866, 27),
]


@pytest.mark.parametrize("z, eps, N", POLE_ON_RAY_SUMS)
def test_once_obstructed_sums_meet_the_oracle(z, eps, N):
    o = airy_oracle(z, eps)
    assert abs(airy_borel_sum(z, eps, N).value - o) <= 1e-8 * abs(o)


def test_once_wrong_sum_meets_the_oracle():
    # seed 4 at 25 rounds: 4.1e-8 from the per-z double-precision solve
    z, eps = -0.019317879770578233 - 0.21469239321551736j, 0.15831097481444562
    o = airy_oracle(z, eps)
    assert abs(airy_borel_sum(z, eps, 31).value - o) <= 1e-9 * abs(o)


@pytest.mark.parametrize("pade", [None, (10, 12)])
def test_cached_approximant_meets_the_pade_conditions_exactly(pade):
    # den(0) = 1 and den * B - num vanishes through t^(L+M) in rationals,
    # with the degrees clamped to the N - 1 coefficients of B
    for N in range(2, 41):
        c = [a / math.factorial(k) for k, a in enumerate(airy._airy_alphas(N - 1)[1:])]
        approx = airy._minor_pade(N, pade)
        num, den = approx.num, approx.den
        L, M = len(num) - 1, len(den) - 1
        want = pade or (len(c) // 2, len(c) // 2)
        assert L <= want[0] and M <= want[1] and L + M + 1 == min(len(c), sum(want) + 1)
        assert den[0] == 1
        assert all(isinstance(x, Fr) for x in num + den)
        for k in range(L + M + 1):
            lhs = sum(den[j] * c[k - j] for j in range(min(k, M) + 1))
            assert lhs == (num[k] if k <= L else 0), (N, pade, k)


@pytest.mark.parametrize("z, eps, N", [
    (r * cmath.exp(2j * math.pi / 3), eps, N) for r, eps, N in OBSTRUCTED_JUMPS]
    + [(L1_POINT, 0.05, 40)])
def test_lateral_sums_match_quadrature_of_the_rounded_approximant(z, eps, N):
    # the closed-form lateral sums against laplace_quadrature's
    # Gauss-Legendre panels on the approximant rounded to double; the ray
    # arg xi = theta is turned onto arg xi = 0 by xi = e^{i theta} u, so
    # lam R(lam xi) dxi is lam' R(lam' u) du with lam' = lam e^{i theta},
    # and eps becomes eps e^{-i theta}
    R = rational(airy._minor_pade(N, None))
    lam = zpow(z, Fr(-3, 2))
    pref = airy_symbol(0).prefactor(z, eps)
    for theta in (-LATERAL_DELTA, LATERAL_DELTA):
        got = airy_borel_sum(z, eps, N, theta=theta)
        turn = cmath.exp(1j * theta)
        quad = laplace_quadrature(lambda u: lam * turn * R(lam * turn * u), eps / turn)
        want = pref * (1 + quad.value)
        assert got.nodes_used == 0
        assert abs(got.value - want) <= got.est_error + abs(pref) * quad.est_error \
            + 1e-12 * abs(want), theta


@pytest.mark.parametrize("F, N", [
    pytest.param(TaylorSeries({0: Fr(1, 3), 1: Fr(-2, 7)}), 30, id="one_third_minus_2z_7"),
    pytest.param(TaylorSeries({0: Fr(1, 10)}), 24, id="one_tenth"),
])
def test_symbol_sum_matches_quadrature_of_its_double_approximant(F, N):
    # the closed form of the split against laplace_quadrature's panels on
    # the same double-precision approximant of the minor at z, for the
    # symbol and its partner in S1 and S-1
    sym = transport_g(F, N - 1)
    for z, eps in [(1.2 * cmath.exp(0.4j), 0.1), (0.9 * cmath.exp(-1.1j), 0.15 * cmath.exp(0.3j))]:
        for s in (sym, sym.flip_eps()):
            c = s.minor_values(z)
            quad = laplace_quadrature(rational(pade_from_taylor(c, len(c) // 2, len(c) // 2)), eps)
            want = s.prefactor(z, eps) * (1 + quad.value)
            got = symbol_borel_sum(s, z, eps)
            assert got.nodes_used == 0
            assert abs(got.value - want) <= 1e-12 * abs(want), (z, eps, s.sign)


def test_symbol_sum_of_the_airy_symbol_is_the_airy_sum():
    # two solves of one minor: the Airy symbol's approximant at z in double
    # precision, and B's exact one rescaled by lam = z^{-3/2}
    for N in (24, 40):
        sym = airy_symbol(N - 1)
        for r, arg in [(1.0, 1.8), (1.0, -0.4), (2.5, 1.0), (2.5, -1.8)]:
            z, eps = r * cmath.exp(1j * arg), 0.12 * cmath.exp(0.2j)
            got, want = symbol_borel_sum(sym, z, eps), airy_borel_sum(z, eps, N)
            assert abs(got.value - want.value) <= got.est_error + want.est_error \
                + 1e-12 * abs(want.value), (N, z)


def test_prefactor_overflow_is_a_contour_failure():
    # exp(-action/eps) past double range is a typed failure, not a bare
    # OverflowError, for the Airy sums and for any symbol
    z = -29.172957055337232 - 12.73952454848831j
    eps = 5.9813724622421845e-05 + 9.57467412062531e-05j
    for call in (lambda: airy_borel_sum(z, eps, 24), lambda: stokes_jump(z, eps, 24),
                 lambda: symbol_borel_sum(airy_symbol(23).flip_eps(), 219.298 - 32.825j,
                                          0.017969 - 0.031192j)):
        with pytest.raises(ContourFailure, match=r"prefactor exp\(.*\) overflows double"):
            call()


@pytest.mark.parametrize("N", [0, 1, 24])
def test_borel_sum_est_error_covers_the_rounding_of_its_value(N):
    # the prefactor exp(x) z^(-1/4) and the product pref (1 + T) each round,
    # so no sum may claim better than one ulp of its own value, even with
    # no minor (N <= 1) or one that transforms with no rounding at all
    for z, eps in [(1.0, 0.05), (2.5 * cmath.exp(1.0j), 0.12 * cmath.exp(0.2j)),
                   (0.7 * cmath.exp(-1.8j), 0.1)]:
        sums = [airy_borel_sum(z, eps, N)]
        if N:
            sums.append(symbol_borel_sum(airy_symbol(N - 1), z, eps))
        for got in sums:
            assert got.est_error >= 2.0 ** -52 * abs(got.value), (z, eps, got)
