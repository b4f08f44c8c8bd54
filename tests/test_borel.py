"""Pade approximants at both precisions, e^x E1(x) in double and in
mpmath precision, and the closed-form Laplace transform of a rescaled
Pade approximant, checked against mpmath.quad and mpmath.e1."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactwkb import airy
from exactwkb.airy import airy_borel_sum_hp, airy_oracle
from exactwkb.borel import (PadeApproximant, PartialFractions, _expe1, _expe1_mp, _gauss,
                            _newton_root, laplace_pade, pade_from_taylor, partial_fractions)
from exactwkb.errors import ContourFailure, PoleOnRay, SeriesError


def quad_on_real_ray(approx, eps, lam=1, dps=60):
    """int_0^inf exp(-xi/eps) lam num(lam xi)/den(lam xi) dxi by
    mpmath.quad, the ray split at the real parts of the poles p/lam; exact
    coefficients are rounded to dps digits."""
    with mpmath.workdps(dps):
        approx = PadeApproximant(*([mpmath.mpf(x.numerator) / x.denominator
                                    if isinstance(x, Fraction) else x for x in cs]
                                   for cs in (approx.num, approx.den)))
        eps, lam = mpmath.mpc(eps), mpmath.mpc(lam)
        cuts = sorted({complex(p / lam).real for p in approx.poles()
                       if complex(p / lam).real > 0})
        return mpmath.quad(lambda t: mpmath.exp(-t / eps) * lam
                           * mpmath.polyval(approx.num[::-1], lam * t)
                           / mpmath.polyval(approx.den[::-1], lam * t),
                           [0] + cuts + [mpmath.inf])


def test_mp_poles_are_polished_roots():
    # the exact approximant's poles, polished at the working precision
    dps, M = 40, 5
    with mpmath.workdps(dps):
        exact = pade_from_taylor([Fraction(1, k) for k in range(1, 12)], 5, M)
        approx = PadeApproximant(*([mpmath.mpf(x.numerator) / x.denominator for x in xs]
                                   for xs in (exact.num, exact.den)))
        ps = approx.poles()
        q = approx.den[::-1]
        big = max(abs(x) for x in q)
        for p in ps:
            assert abs(mpmath.polyval(q, p)) \
                <= mpmath.mpf(10) ** (5 - dps) * big * max(1, abs(p)) ** M
    seeds = np.roots(np.array([complex(x) for x in q]))
    assert len(ps) == len(seeds) == M
    for p in ps:
        assert np.min(np.abs(seeds - complex(p))) <= 1e-10


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("inside", [True, False])
def test_single_pole_closed_form_vs_quad(sign, inside):
    # arg eps = +-0.7; the pole sits at arg +-0.35, inside the sector
    # between arg xi = 0 and arg eps or mirrored outside it
    eps = 0.3 * cmath.exp(0.7j * sign)
    p = 1.2 * cmath.exp(0.35j * (sign if inside else -sign))
    with mpmath.workdps(40):
        r = mpmath.mpc(0.7, -0.4)
        approx = PadeApproximant(num=[2 * r], den=[-2 * mpmath.mpc(p), mpmath.mpc(2)])
        got = laplace_pade(partial_fractions(approx), eps).value
    ref = quad_on_real_ray(approx, eps)
    assert abs(got - ref) <= 1e-25 * abs(ref)


def test_rescaled_closed_form_vs_quad():
    # lam R(lam xi) with a polynomial part, its pole p/lam between the
    # rays arg xi = 0 and arg eps
    eps, lam = 0.25 * cmath.exp(0.6j), 0.8 * cmath.exp(-1.0j)
    with mpmath.workdps(40):
        p, r = mpmath.mpc(cmath.rect(1.1, -0.7)), mpmath.mpc(0.3, 0.5)
        approx = PadeApproximant(num=[r - 0.5 * p, 0.5 - p, mpmath.mpc(1)],
                                 den=[-p, mpmath.mpc(1)])
        got = laplace_pade(partial_fractions(approx), eps, lam).value
    ref = quad_on_real_ray(approx, eps, lam)
    assert abs(got - ref) <= 1e-25 * abs(ref)


def test_hp_sum_with_polynomial_part_vs_quad(monkeypatch):
    seen = []

    def spy(fractions, eps, lam, theta):
        seen.append((eps, lam, theta, laplace_pade(fractions, eps, lam, theta).value))
        return laplace_pade(fractions, eps, lam, theta)

    monkeypatch.setattr(airy, "laplace_pade", spy)
    z, eps = 1.1 * cmath.exp(0.4j), 0.08 * cmath.exp(0.3j)
    got = airy_borel_sum_hp(z, eps, 20, pade=(12, 6), dps=40)
    (em, lam, theta, integral), = seen
    assert theta == 0.0
    approx = airy._minor_pade(20, (12, 6))
    assert len(approx.num) - len(approx.den) == 6
    assert abs(complex(lam) - z ** -1.5) <= 1e-15 * abs(lam)
    ref = quad_on_real_ray(approx, em, lam)
    assert abs(integral - ref) <= 1e-25 * abs(1 + ref)
    oracle = airy_oracle(z, eps)
    assert abs(complex(got) - oracle) <= 1e-8 * abs(oracle)


def test_pole_on_the_ray_raises():
    with mpmath.workdps(40):
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[mpmath.mpc(-1.5), mpmath.mpc(1)])
        with pytest.raises(PoleOnRay):
            laplace_pade(partial_fractions(approx), 0.2 * cmath.exp(0.3j))
        # a pole at t = -1.5 rescaled by lam = -1 onto the ray
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[mpmath.mpc(1.5), mpmath.mpc(1)])
        with pytest.raises(PoleOnRay):
            laplace_pade(partial_fractions(approx), 0.2, -1)
        with pytest.raises(PoleOnRay, match="outside the half-plane of eps"):
            laplace_pade(partial_fractions(approx), -0.2j)


def test_the_ray_margin_follows_the_precision_of_the_split():
    # a pole 0.01 rad off the ray arg xi = 0 lies inside the 3% margin of a
    # split rounded to complex, which refuses the ray, and far outside the
    # rounding margin of an mpmath split, which is summed
    split = PartialFractions([cmath.exp(0.01j)], [1 + 0j], [])
    with pytest.raises(PoleOnRay, match=r"obstructs the ray arg xi = 0\.0000"):
        laplace_pade(split, 0.1)
    with mpmath.workdps(30):
        split = PartialFractions([mpmath.expj(0.01)], [mpmath.mpc(1)], [])
        got = laplace_pade(split, 0.1).value
        p = split.poles[0]
        want = mpmath.quad(lambda x: mpmath.exp(-x / mpmath.mpf(0.1)) / (x - p),
                           [0, p.real, mpmath.inf])
        assert abs(got - want) <= 1e-20 * abs(want)


def test_double_pole_raises_contour_failure():
    with mpmath.workdps(40):
        p = mpmath.mpc(1, 2)
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[p * p, -2 * p, mpmath.mpc(1)])
        with pytest.raises(ContourFailure):
            laplace_pade(partial_fractions(approx), 0.2)


def _roots_to_den(kind, points, scale, dps):
    """Ascending coefficients of prod (t - r) over the lattice points
    (i + j i)/4 scale, as Fractions (points with j > 0 and their
    conjugates), complex doubles or mpc at dps + GUARD_DIGITS."""
    with mpmath.workdps(dps + 15):
        if kind == "fraction":
            factors = [[-Fraction(i, 4) * scale, 1] if j == 0 else
                       [Fraction(i * i + j * j, 16) * scale ** 2, -Fraction(i, 2) * scale, 1]
                       for i, j in points]
        else:
            one = 1 + 0j if kind == "complex" else mpmath.mpc(1)
            factors = [[-one * complex(i, j) / 4 * float(scale), one] for i, j in points]
        den = [factors[0][0] * 0 + 1]
        for f in factors:
            den = [sum(den[k - m] * f[m] for m in range(len(f)) if 0 <= k - m < len(den))
                   for k in range(len(den) + len(f) - 1)]
        return den


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["fraction", "complex", "mpc"]), dps=st.sampled_from([15, 40, 80]),
       points=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1,
                       max_size=20, unique=True),
       scale=st.sampled_from([Fraction(1, 2 ** 200), Fraction(1, 64), Fraction(1), Fraction(32)]),
       num=st.lists(st.integers(-9, 9), min_size=1, max_size=22))
def test_poles_and_residues_match_a_polyval_newton_step(kind, dps, points, scale, num):
    # distinct roots on a lattice of spacing scale/4; for exact coefficients
    # j >= 0 marks a real root or a conjugate pair, so the denominator is real
    if kind == "fraction":
        points = [(i, abs(j)) for i, j in dict.fromkeys((i, abs(j)) for i, j in points)]
        while sum(1 + (j > 0) for _, j in points) > 20:
            points.pop()
    if scale < 2 ** -100:       # poles near 2^-200, which np.roots still seeds
        points = points[:2]
    den = _roots_to_den(kind, points, scale, dps)
    # the constant 1/3 keeps num off zero at every (dyadic) pole
    num = [Fraction(1, 3)] + [Fraction(c, 4) for c in num[1:]]
    if kind != "fraction":
        with mpmath.workdps(dps + 15):
            num = [complex(c) if kind == "complex" else mpmath.mpf(c.numerator) / c.denominator
                   for c in num]
    with mpmath.workdps(dps + 35):
        a, b = ([mpmath.mpf(c.numerator) / c.denominator if isinstance(c, Fraction)
                 else mpmath.mpmathify(c) for c in cs] for cs in (num, den))
    with mpmath.workdps(dps + 15):      # as partial_fractions reads them
        approx = PadeApproximant(*([+c for c in cs] for cs in (a, b)))
        ps = approx.poles()
        rs = approx.residues(ps)
    assert len(ps) == len(den) - 1
    with mpmath.workdps(dps + 35):
        tol = mpmath.mpf(10) ** -dps
        for p, r in zip(ps, rs):
            val, der = mpmath.polyval(b[::-1], p, derivative=True)
            ref = p - val / der
            assert abs(p - ref) <= tol * abs(ref), (p, ref)
            want = mpmath.polyval(a[::-1], ref) / mpmath.polyval(b[::-1], ref, derivative=True)[1]
            assert abs(r - want) <= tol * abs(want), (r, want)


def test_poles_and_residues_never_call_polyval(monkeypatch):
    calls = []
    polyval = mpmath.polyval

    def counted_polyval(*args, **kwargs):
        calls.append(1)
        return polyval(*args, **kwargs)

    monkeypatch.setattr(mpmath, "polyval", counted_polyval)
    exact = airy._minor_pade(30, None)
    with mpmath.workdps(55):
        approx = PadeApproximant(*([mpmath.mpf(x.numerator) / x.denominator for x in xs]
                                   for xs in (exact.num, exact.den)))
        ps = approx.poles()
        rs = approx.residues(ps)
    assert calls == [] and len(ps) == len(rs) == len(exact.den) - 1


def test_a_zero_derivative_at_the_seed_raises_contour_failure():
    with mpmath.workdps(40):
        # t^2 + 1 from the seed 0, where den' = 0 off the roots
        with pytest.raises(ContourFailure, match="did not converge"):
            _newton_root(_gauss([mpmath.mpf(c) for c in (1, 0, 1)])[0], 0j, False)
        # t^2: np.roots seeds its double root 0 exactly, where den = den' = 0
        with pytest.raises(ContourFailure, match="did not converge"):
            PadeApproximant([mpmath.mpf(1)], [mpmath.mpf(c) for c in (0, 0, 1)]).poles()


def test_hp_sum_makes_no_quadrature_call(monkeypatch):
    calls = []
    quad = mpmath.quad

    def counted_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(mpmath, "quad", counted_quad)
    got = airy_borel_sum_hp(1.0, 0.1, 24, dps=40)
    assert calls == []
    assert abs(complex(got) - airy_oracle(1.0, 0.1)) <= 1e-10 * abs(complex(got))


@pytest.mark.parametrize("pade", [(3, -1), (-1, 3)])
def test_negative_pade_order_refused_at_both_precisions(pade):
    # at high precision (3, -1) once returned the bare prefactor and
    # (-1, 3) raised ZeroDivisionError
    for borel_sum in (airy.airy_borel_sum, airy_borel_sum_hp):
        with pytest.raises(ValueError, match="Pade orders must be nonnegative"):
            borel_sum(1.0, 0.1, 24, pade=pade)


def test_singular_exact_system_is_a_series_error():
    # 1/(1 - t): every (5, 6) Toeplitz row is the same, so no approximant
    # of these degrees has den(0) = 1
    with pytest.raises(SeriesError, match=r"the \(5, 6\) Pade system is singular"):
        pade_from_taylor([Fraction(1)] * 12, 5, 6)


def ref_pade(c, L, M):
    """(num, den) of the (L, M) approximant of the Fractions c by plain
    Gaussian elimination on den[1..M] and back substitution, or None where
    the system is singular: the reference for the staircase engine."""
    A = [[c[L + 1 + i - j] if L + 1 + i - j >= 0 else 0 for j in range(1, M + 1)]
         + [-c[L + 1 + i]] for i in range(M)]
    for k in range(M):
        i = next((i for i in range(k, M) if A[i][k]), None)
        if i is None:
            return None
        A[k], A[i] = A[i], A[k]
        for i in range(k + 1, M):
            if f := A[i][k] / A[k][k]:
                A[i] = [x - f * y for x, y in zip(A[i], A[k])]
    b = [0] * M
    for k in reversed(range(M)):
        b[k] = (A[k][M] - sum(A[k][j] * b[j] for j in range(k + 1, M))) / A[k][k]
    den = [Fraction(1)] + b
    return [sum(den[j] * c[k - j] for j in range(min(k, M) + 1)) for k in range(L + 1)], den


def _airy_minor_coefficients(n):
    return [a / math.factorial(k) for k, a in enumerate(airy._airy_alphas(n)[1:])]


def test_balanced_airy_approximants_equal_the_reference():
    # index N - 2 of B's one staircase, N = 2..64, list for list
    c = _airy_minor_coefficients(64)
    for N in range(2, 65):
        n = N - 2
        approx = airy._minor_pade(N, None)
        assert (approx.num, approx.den) == ref_pade(c[:n + 1], n // 2, n - n // 2), N


def test_every_route_through_the_pade_table_equals_the_reference():
    # on the staircase, past it (shift identity) and below it (reciprocal
    # identity): every (L, M) with L + M <= 28 on B's first 29 coefficients
    c = _airy_minor_coefficients(29)
    for L in range(29):
        for M in range(29 - L):
            approx = pade_from_taylor(c, L, M)
            assert (approx.num, approx.den) == ref_pade(c[:L + M + 1], L, M), (L, M)


@settings(max_examples=300, deadline=None)
@given(c=st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
                  min_size=1, max_size=8),
       L=st.integers(0, 8), M=st.integers(0, 8))
def test_exact_pade_equals_the_reference_or_refuses(c, L, M):
    # zeros make singular systems: the engine returns the reference's
    # approximant or raises SeriesError, never a value the reference refuses
    c = [Fraction(x) for x in c]
    try:
        approx = pade_from_taylor(c, L, M)
    except SeriesError:
        return
    while L + M + 1 > len(c):      # clamped to the data, numerator first
        L, M = (L - 1, M) if L >= M else (L, M - 1)
    assert (approx.num, approx.den) == ref_pade(c[:L + M + 1], L, M)


@pytest.mark.parametrize("c, L, M", [
    ([0, 1, 0], 1, 1),              # t: [0/1] on the way is singular
    ([1, 0, 1, 0], 1, 2),           # 1/(1 - t^2): so is [1/1]
    ([1, 0, 1, 0], 2, 1),           # 1 + t^2: [1/1] of the tail t
    ([1, 0, 0, 1, 0], 1, 3)])       # 1/(1 - t^3): [1/1] of 1/c's tail
def test_staircase_refuses_where_a_system_on_its_way_is_singular(c, L, M):
    c = [Fraction(x) for x in c]
    assert ref_pade(c, L, M) is not None
    with pytest.raises(SeriesError, match=rf"the \({L}, {M}\) Pade system is singular"):
        pade_from_taylor(c, L, M)


def test_mpmath_coefficients_are_refused():
    # an mpmath solve would round the system; the exact rationals are wanted
    with pytest.raises(TypeError, match="not mpmath numbers"):
        pade_from_taylor([mpmath.mpf(1) / k for k in range(1, 8)], 3, 3)


def _ref_expe1(x):
    # e^x E1(x) at 40 digits; mpmath's E1 on the cut is the value from
    # above, and E1(conj x) = conj E1(x) gives the one from below
    with mpmath.workdps(40):
        if x.imag == 0 and x.real < 0 and math.copysign(1, x.imag) < 0:
            return complex(mpmath.exp(x.real) * mpmath.e1(x.real)).conjugate()
        mx = mpmath.mpf(x.real) if x.imag == 0 else mpmath.mpc(x)
        return complex(mpmath.exp(mx) * mpmath.e1(mx))


MODULI = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)


@settings(max_examples=400, deadline=None)
@given(r=MODULI, arg=st.floats(-math.pi, math.pi))
def test_expe1_matches_mpmath_over_the_plane(r, arg):
    x = cmath.rect(r, arg)
    ref = _ref_expe1(x)
    assert abs(_expe1(x) - ref) <= 1e-13 * abs(ref), x


@settings(max_examples=400, deadline=None)
@given(r=MODULI, off=st.floats(math.log(1e-8), 0.0).map(math.exp),
       side=st.sampled_from([1, -1]))
def test_expe1_matches_mpmath_next_to_the_cut(r, off, side):
    x = cmath.rect(r, side * (math.pi - off))
    ref = _ref_expe1(x)
    assert abs(_expe1(x) - ref) <= 1e-13 * abs(ref), x


@settings(max_examples=200, deadline=None)
@given(r=MODULI, zero=st.sampled_from([0.0, -0.0]))
def test_expe1_on_the_cut_takes_the_side_of_a_signed_zero(r, zero):
    x = complex(-r, zero)
    ref, got = _ref_expe1(x), _expe1(x)
    assert math.copysign(1, ref.imag) == -math.copysign(1, zero)
    assert ref.imag == 0 or (got.imag < 0) == (ref.imag < 0), x
    assert abs(got - ref) <= 1e-13 * abs(ref), x


@pytest.mark.parametrize("theta", [0.1, -0.1])
def test_pole_on_the_eps_ray_is_continuous_from_both_sides(theta):
    # a pole on arg xi = arg eps, where E1 has its cut: the lateral sum is
    # the same for either signed zero of Im p, for poles 1e-9 rad off the
    # ray on either side, and in mpmath
    def lateral(p, r, q):
        return complex(laplace_pade(PartialFractions([p], [r], [q]), 0.2, 1, theta).value)

    on = [lateral(complex(1.5, zero), 0.7 - 0.4j, 0.3 + 0j) for zero in (0.0, -0.0)]
    near = [lateral(cmath.rect(1.5, side * 1e-9), 0.7 - 0.4j, 0.3 + 0j) for side in (1, -1)]
    with mpmath.workdps(30):
        ref = lateral(mpmath.mpf(1.5), mpmath.mpc(0.7, -0.4), mpmath.mpf(0.3))
    assert on[0] == on[1]
    for got in on + near:
        assert abs(got - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("mp", [False, True])
@pytest.mark.parametrize("theta", [-0.6, 0.6])
@pytest.mark.parametrize("a", [-2.8, -0.7, -0.5, -0.3, 0.3, 0.5, 0.7, 2.8, 0.0, math.pi])
def test_side_test_orders_arg_w_as_the_arg_comparison(mp, theta, a):
    # arg eps = 0, so a pole q at arg a strictly between 0 and the ray
    # theta gains 2 pi i r e^(-w) (theta < 0) or loses it (theta > 0).  The
    # poles lie just either side of each ray, halfway to it, as far on the
    # other side of 0, in the back half-plane (arg +-2.8), at w = |w| (E1
    # from above its cut) and at w = -|w|; the reference decides by arg w
    # against 0 and theta, at 40 digits
    q, r, eps = complex(0.3 * math.cos(a), 0.0 if a in (0.0, math.pi) else 0.3 * math.sin(a)), \
        0.7 - 0.4j, 0.2
    split = PartialFractions([q], [r], [])
    with mpmath.workdps(30):
        if mp:
            split = PartialFractions([mpmath.mpc(q)], [mpmath.mpc(r)], [])
        got = complex(laplace_pade(split, eps, 1, theta).value)
    with mpmath.workdps(40):
        w = mpmath.mpc(q) / mpmath.mpf(eps)
        jump = 1 if theta < a <= 0 else -1 if 0 < a < theta else 0
        ref = r * mpmath.exp(-w) * (mpmath.e1(-w) + 2j * mpmath.pi * jump)
        assert abs(got - ref) <= 1e-11 * abs(r * mpmath.exp(-w)), (got, ref)


def _mp_error(x, dps):
    """|_expe1_mp(x) - e^x E1(x)| at dps digits, in units of that
    precision's mpmath.eps times |e^x E1(x)|, the reference at dps + 20."""
    with mpmath.workdps(dps):
        got, unit = _expe1_mp(x), mpmath.ldexp(1, 1 - mpmath.mp.prec)
    with mpmath.workdps(dps + 20):
        ref = mpmath.exp(x) * mpmath.e1(x)
        return float(abs(got - ref) / (unit * abs(ref)))


MP_MODULI = st.floats(math.log(1e-3), math.log(1e5)).map(math.exp)
DPS = st.sampled_from([15, 40, 80])
EDGE = st.floats(-0.05, 0.05)      # a relative or angular step off a region boundary


@settings(max_examples=120, deadline=None)
@given(r=MP_MODULI, arg=st.floats(-math.pi, math.pi), dps=DPS)
def test_expe1_mp_matches_mpmath_over_the_plane(r, arg, dps):
    x = mpmath.mpc(cmath.rect(r, arg))
    assert _mp_error(x, dps) <= 4, (x, dps)


@settings(max_examples=120, deadline=None)
@given(side=st.sampled_from([0, 1, -1]), off=EDGE,
       r=st.floats(math.log(16), math.log(1e5)).map(math.exp),
       arg=st.floats(-0.75 * math.pi, 0.75 * math.pi), dps=DPS)
def test_expe1_mp_matches_mpmath_on_both_sides_of_its_region(side, off, r, arg, dps):
    # the continued fraction serves |x| >= 16, |arg x| <= 3 pi/4: side 0
    # steps across |x| = 16 at an arg inside, side +-1 across arg x =
    # +-3 pi/4 at a modulus inside
    x = (cmath.rect(16 * math.exp(off), arg) if side == 0
         else cmath.rect(r, side * (0.75 * math.pi + off)))
    assert _mp_error(mpmath.mpc(x), dps) <= 4, (x, dps)


@settings(max_examples=60, deadline=None)
@given(r=MP_MODULI, off=st.floats(math.log(1e-8), 0.0).map(math.exp),
       side=st.sampled_from([1, -1]), dps=DPS)
def test_expe1_mp_matches_mpmath_next_to_the_cut(r, off, side, dps):
    x = mpmath.mpc(cmath.rect(r, side * (math.pi - off)))
    assert _mp_error(x, dps) <= 4, (x, dps)


@settings(max_examples=40, deadline=None)
@given(r=MP_MODULI, dps=DPS)
def test_expe1_mp_takes_a_real_x_as_mpmath_does(r, dps):
    # laplace_pade snaps a nearly real w > 0 to the real mpf w, so E1 sees
    # x = -w on its cut and takes the value from above, as mpmath.e1 does
    # for a real argument; a real x >= 16 is in the continued fraction's region
    with mpmath.workdps(dps):
        x = -mpmath.mpf(r)
        assert _expe1_mp(x) == mpmath.exp(x) * mpmath.e1(x)
    assert _mp_error(-x, dps) <= 4, (-x, dps)


@pytest.fixture
def e1_calls(monkeypatch):
    """The arguments of the mpmath.e1 calls the test makes from here on."""
    calls, e1 = [], mpmath.e1

    def counted_e1(x):
        calls.append(x)
        return e1(x)

    monkeypatch.setattr(mpmath, "e1", counted_e1)
    return calls


@pytest.mark.parametrize("r, arg, dps, mpmath_e1", [
    (16.5, 0.0, 40, False), (16.5, 2.3, 40, False), (16.5, -2.3, 40, False),
    (1e5, 2.3, 40, False), (15.5, 0.0, 40, True), (100.0, 2.4, 40, True),
    (100.0, -2.4, 40, True), (1e-3, 0.0, 40, True),
    # at 80 digits the fraction needs more than 400 steps here
    (16.5, 2.3, 80, True)])
def test_expe1_mp_calls_mpmath_e1_outside_its_region(e1_calls, r, arg, dps, mpmath_e1):
    assert _mp_error(mpmath.mpc(cmath.rect(r, arg)), dps) <= 4
    # the reference makes the last call
    assert len(e1_calls) == 1 + mpmath_e1


@pytest.mark.parametrize("theta, between, sign", [(0.1, 3, 1), (0.5, 4, -1)])
def test_mp_laplace_pade_matches_the_mpmath_e1_route(e1_calls, theta, between, sign):
    # arg eps = 0.3, with a ray on either side of it.  In the xi plane three
    # poles q = p/lam have |w| = |q/eps| >= 16 and -w off E1's cut, where the
    # continued fraction serves; the pole at arg 0.2 lies between the ray 0.1
    # and arg eps, and the one at 0.4 between arg eps and the ray 0.5, so
    # 2 pi i r e^(-w) is added (ray clockwise of arg eps) or subtracted.
    # The reference sums the same closed form with mpmath.e1 at 30 more digits.
    eps, lam = 0.1 * cmath.exp(0.3j), 0.8 * cmath.exp(-0.4j)
    qs = [cmath.rect(2.5, 2.0), cmath.rect(4.0, -1.5), cmath.rect(30.0, -2.8),
          cmath.rect(1.2, 0.2), cmath.rect(1.5, 0.4)]
    rs = [0.7 - 0.4j, -0.3 + 1.1j, 2.0 + 0.5j, 0.4 + 0.2j, -0.6 - 0.9j]
    quo = [0.3 - 0.1j, 0.05 + 0j]
    with mpmath.workdps(40):
        split = PartialFractions([mpmath.mpc(q) * mpmath.mpc(lam) for q in qs],
                                 [mpmath.mpc(r) for r in rs], [mpmath.mpc(c) for c in quo])
        got = laplace_pade(split, eps, lam, theta)
    assert len(e1_calls) == 2        # the two poles next to the cut
    with mpmath.workdps(85):
        s = mpmath.mpc(eps) * mpmath.mpc(lam)
        ref = sum(c * math.factorial(k) * s ** (k + 1) for k, c in enumerate(split.quo))
        for j, (p, r) in enumerate(zip(split.poles, split.residues)):
            w = p / s
            jump = 2j * sign * mpmath.pi if j == between else 0
            ref += r * mpmath.exp(-w) * (mpmath.e1(-w) + jump)
        assert abs(got.value - ref) <= got.est_error, (abs(got.value - ref), got.est_error)
