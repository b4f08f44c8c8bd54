"""Hardy polynomial family: hyperbolic identities, structural identities,
and the exponential-integral evaluation."""

import cmath
import math
import random
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from exactwkb.airy import airy_contour, airy_oracle
from exactwkb.contours import ContourSpec, _chebyshev, valley_integral
from exactwkb.errors import ContourFailure, ExactWKBError
from exactwkb.hardy import (hardy_identities_hold, hardy_ode_residual,
                            hardy_phi_eval, hardy_polynomial, hardy_S_T,
                            hardy_valleys, quasi_homogeneous_ok)
from exactwkb.pde import confluent_eval, pde_taylor
from exactwkb.series import PuiseuxSeries


def test_low_order_polynomials():
    assert hardy_polynomial(2) == [Fr(1), Fr(0), Fr(2)]
    assert hardy_polynomial(3) == [Fr(0), Fr(3), Fr(0), Fr(4)]
    assert hardy_polynomial(4) == [Fr(1), Fr(0), Fr(8), Fr(0), Fr(8)]


@pytest.mark.parametrize("m", range(2, 16))
def test_hyperbolic_identity_sampling(m):
    rng = random.Random(m)
    P = hardy_polynomial(m)
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5)
        s = math.sinh(q)
        val = sum(float(c) * s ** k for k, c in enumerate(P))
        ref = math.cosh(m * q) if m % 2 == 0 else math.sinh(m * q)
        assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))


def test_paper_table_S_T():
    p1 = hardy_S_T(1)
    assert p1.S == {(0, 3): Fr(8, 3), (1, 1): Fr(-2)}
    assert p1.T == {(0, 0): Fr(1, 2)}
    p2 = hardy_S_T(2)
    assert p2.S == {(0, 4): Fr(4), (1, 2): Fr(-4), (2, 0): Fr(1, 2)}
    assert p2.T == {(0, 1): Fr(1)}
    p3 = hardy_S_T(3)
    assert p3.S == {(0, 5): Fr(32, 5), (1, 3): Fr(-8), (2, 1): Fr(2)}
    assert p3.T == {(0, 2): Fr(2), (1, 0): Fr(-1, 2)}


@pytest.mark.parametrize("n", range(1, 9))
def test_structural_identities_exact(n):
    pair = hardy_S_T(n)
    assert hardy_identities_hold(pair)
    assert quasi_homogeneous_ok(pair)


def test_quasi_homogeneity_numeric():
    pair = hardy_S_T(4)
    lam, z, zh = 1.3, 0.7 + 0.2j, -0.4 + 0.9j
    left = _per_term_poly2_eval(pair.S, lam * lam * z, lam * zh)
    right = lam ** (pair.n + 2) * _per_term_poly2_eval(pair.S, z, zh)
    assert abs(left - right) < 1e-12 * abs(right)


def _per_term_poly2_eval(p, z, zhat):
    zhat = np.asarray(zhat, dtype=complex)
    out = np.zeros_like(zhat)
    for (i, j), c in p.items():
        out = out + float(c) * (z ** i) * zhat ** j
    return out


def _dzhat(p):
    return {(i, j - 1): c * j for (i, j), c in p.items() if j}


@pytest.mark.parametrize("n", ["airy", *range(1, 11)])
def test_the_phase_data_is_the_exact_S(n):
    # the recurrences in zhat and c^2 on the phase data (m, 2^m/m, z) give
    # the exact S_n of the formal layer and its zhat-derivative, and on
    # (3, -1/3, 4z) the Airy phase z zhat - zhat^3/3, to rounding, on a
    # Python complex and on a numpy array alike
    z = 0.9 + 0.2j
    if n == "airy":
        S, phase = {(1, 1): Fr(1), (0, 3): Fr(-1, 3)}, (3, -1.0 / 3.0, 4 * z)
    else:
        S, phase = hardy_S_T(n).S, (n + 2, 2.0 ** (n + 2) / (n + 2), z)
    line = 0.3 + np.linspace(-0.6, 0.6, 9) * (1 + 0.3j)
    for i, p in enumerate((S, _dzhat(S))):
        size = _per_term_poly2_eval({k: abs(c) for k, c in p.items()},
                                    abs(z), np.abs(line))
        want = _per_term_poly2_eval(p, z, line)
        assert np.all(abs(_chebyshev(*phase, line)[i] - want) <= 1e-14 * size)
        assert all(abs(_chebyshev(*phase, complex(x))[i] - y) <= 1e-14 * m
                   for x, y, m in zip(line, want, size))


def test_phi1_proportional_to_airy_integral():
    ratios = []
    for z in (0.8, 1.0, 1.3):
        p = hardy_phi_eval(1, z, 0.1).value
        # the Airy integral itself, without airy_contour's normalization
        a = airy_contour(z, 0.1).value * (1j * cmath.sqrt(math.pi * 0.1))
        ratios.append(p / a)
    spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
    assert spread < 1e-8
    # the zhat = -w/2 substitution predicts exactly -1/2
    assert abs(ratios[0] + 0.5) < 1e-12


@pytest.mark.parametrize("conv", ["eps2", "eps"])
def test_ode_residual(conv):
    r = hardy_ode_residual(2, 1.0, 0.1, convention=conv)
    assert r < 1e-6, (conv, r)


@pytest.mark.parametrize("fn", [hardy_phi_eval, hardy_ode_residual])
def test_unknown_convention_rejected(fn):
    with pytest.raises(ValueError):
        fn(2, 1.0, 0.1, convention="eps3")


@pytest.mark.parametrize("n, z, eps", [
    (3, 1.1, 0.08),
    # near the turning point a thimble passes close to another saddle, and
    # its valleys must still be the ones its closed form heads to (labelled
    # from the saddle's tangent it once gave 0.991-0.911i for 0.0371-0.868i)
    (4, -0.022643359794481163 - 0.0399924003537438j, 0.22872155752489506)],
    ids=["n3", "n4-near-the-turning-point"])
def test_reversed_orientation_flips_sign(n, z, eps):
    # swapping the two valleys, or walking an explicit path backwards,
    # reverses the contour
    phase = (n + 2, 2.0 ** (n + 2) / (n + 2), z)
    a, b = hardy_valleys(n, eps)
    spec = ContourSpec()
    fwd = valley_integral(phase, eps, (a, b), spec)
    rev = valley_integral(phase, eps, (b, a), spec)
    assert fwd.value == hardy_phi_eval(n, z, eps).value
    assert abs(fwd.value + rev.value) < 1e-12 * abs(fwd.value)
    rays = [2 * cmath.exp(1j * a), 0j, 2 * cmath.exp(1j * b)]
    there = valley_integral(phase, eps, (a, b), ContourSpec(path=tuple(rays)))
    back = valley_integral(phase, eps, (a, b),
                           ContourSpec(path=tuple(rays[::-1])))
    assert abs(there.value - fwd.value) <= 10 * (there.est_error + fwd.est_error)
    assert abs(there.value + back.value) <= 10 * (there.est_error + back.est_error)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_c_zero_on_an_explicit_path_is_phi_at_the_turning_point(n):
    # at c = 0 the phase data still names S = (2^m/m) zhat^m, whose valleys
    # are rays from 0: two rays through 0 give Phi_n(0) = G(1 + 1/m)
    # (|w| m/2^m)^(1/m) (e^{i theta_b} - e^{i theta_a}), the c -> 0 limit
    # of the thimbles, which refuse c = 0
    m = n + 2
    for w in (0.1, 0.05 * cmath.exp(0.4j), 0.02):
        a, b = hardy_valleys(n, w)
        rays = (3 * cmath.exp(1j * a), 0j, 3 * cmath.exp(1j * b))
        res = valley_integral((m, 2.0 ** m / m, 0j), w, (a, b), ContourSpec(path=rays))
        want = (math.gamma(1 + 1 / m) * (abs(w) * m / 2 ** m) ** (1 / m)
                * (cmath.exp(1j * b) - cmath.exp(1j * a)))
        assert abs(res.value - want) <= 10 * res.est_error, w


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_merged_saddles_raise_contour_failure(n):
    # at z = 0 all saddles of S_n sit at 0 and c = 0: a typed error, never
    # a ZeroDivisionError from the closed form
    with pytest.raises(ContourFailure, match="saddles merge"):
        hardy_phi_eval(n, 0, 0.1)


def test_sympy_oracle_identities_and_multiple_angle():
    # an algebra independent of the series engine that builds the pair
    import sympy

    z, w, q = sympy.symbols("z w q")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * z ** i * w ** j
                   for (i, j), c in p.items())

    for n in range(1, 11):
        pair = hardy_S_T(n)
        S, T = expr(pair.S), expr(pair.T)
        Sz = sympy.diff(S, z)
        assert sympy.expand(Sz ** 2 - T * sympy.diff(S, w) - z ** n) == 0
        assert sympy.expand(sympy.diff(Sz, z) - sympy.diff(T, w)) == 0
        m = n + 2
        P = sum(sympy.Rational(c.numerator, c.denominator) * sympy.sinh(q) ** k
                for k, c in enumerate(hardy_polynomial(m)))
        f = sympy.cosh if m % 2 == 0 else sympy.sinh
        assert sympy.expand((P - f(m * q)).rewrite(sympy.exp)) == 0


def _k_oracle(n, z, eps, convention):
    """c_n sqrt(z) K_nu(x), nu = 1/m, m = n + 2, x = 2 z^{m/2}/(m w), in
    mpmath and on no contour.  With zhat = -sqrt(z) cosh u, S_n = +-(2/m)
    z^{m/2} cosh(m u), and the line Im u = a = pi - 2 pi k/m, k = (m-1)//2,
    joins the two valleys of hardy_valleys; its odd part integrates to 0
    and int exp(-x cosh t) cosh(nu t) dt = 2 K_nu(x) (from K_nu(x) ~
    sqrt(pi/2x) e^{-x}) leaves c_n = -(2i/m) sin(2 pi k/m).  Past arg x =
    +-pi/2, K_nu is continued by DLMF 10.34.2 with arg x = (m/2) arg z -
    arg w kept unreduced."""
    m = n + 2
    w = eps if convention == "eps2" else cmath.sqrt(eps)
    c = -(2j / m) * math.sin(2 * math.pi * ((m - 1) // 2) / m)
    with mpmath.workdps(30):
        nu = mpmath.mpf(1) / m
        ph = (m / 2) * cmath.phase(z) - cmath.phase(w)
        turns = round(ph / math.pi)
        x0 = 2 * mpmath.mpf(abs(z)) ** (mpmath.mpf(m) / 2) / (m * abs(w)) \
            * mpmath.expj(ph - turns * math.pi)
        K = mpmath.expj(-turns * nu * mpmath.pi) * mpmath.besselk(nu, x0) \
            - 1j * mpmath.pi * mpmath.sin(turns * nu * mpmath.pi) \
            / mpmath.sin(nu * mpmath.pi) * mpmath.besseli(nu, x0)
        return complex(c * mpmath.sqrt(mpmath.mpc(z)) * K)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("convention", ["eps2", "eps"])
def test_phi_is_the_bessel_k_solution_in_every_sector(n, convention):
    # eight directions of z around the plane, at two (|z|, eps) pairs
    for eps, r in ((0.1, 0.6), (0.05 * cmath.exp(0.3j), 1.5)):
        for j in range(8):
            z = cmath.rect(r, math.pi * (j - 3.5) / 4)
            res = hardy_phi_eval(n, z, eps, convention=convention)
            want = _k_oracle(n, z, eps, convention)
            assert abs(res.value - want) <= 10 * res.est_error, (z, eps)


@pytest.mark.parametrize("n", range(1, 10))
def test_phi_has_no_jump_on_the_positive_real_axis(n):
    # two saddles tie on z > 0 for odd n, so a contour picked per point by
    # the most recessive saddle jumps there (n = 3: -0.29967i at 0.3751,
    # -0.18514i at 0.3752); the valley-named one follows K_nu throughout
    for i in range(91):
        z = 0.2 + 0.02 * i
        res = hardy_phi_eval(n, z, 0.1)
        assert abs(res.value - _k_oracle(n, z, 0.1, "eps2")) <= 10 * res.est_error, z


def _series_oracle(n, z, w):
    """Phi_n for real w > 0 as an entire function of z: K_nu = pi/(2
    sin(nu pi)) (I_-nu - I_nu) in _k_oracle's form, with the powers of z
    gathered, is c_n pi/(2 sin(pi/m)) [(m w)^(1/m) sum_j x^j/(j! G(j + 1 -
    1/m)) - z (m w)^(-1/m) sum_j x^j/(j! G(j + 1 + 1/m))], x = z^m/(m w)^2,
    and needs no branch of z; mpmath at 40 digits."""
    m = n + 2
    with mpmath.workdps(40):
        z, w, nu = mpmath.mpc(z), mpmath.mpf(w), mpmath.mpf(1) / m
        x = z ** m / (m * w) ** 2

        def series(b):
            return mpmath.nsum(lambda j: x ** j / (mpmath.factorial(j)
                                                   * mpmath.gamma(j + 1 + b)), [0, mpmath.inf])

        c = -(2j / m) * mpmath.sin(2 * mpmath.pi * ((m - 1) // 2) / m)
        return complex(c * mpmath.pi / (2 * mpmath.sin(mpmath.pi * nu))
                       * ((m * w) ** nu * series(-nu) - z * (m * w) ** -nu * series(nu)))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_series_oracle_is_the_bessel_k_form_on_the_positive_axis(n):
    for z in (0.3, 1.1):
        want = _k_oracle(n, z, 0.1, "eps2")
        assert abs(_series_oracle(n, z, 0.1) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("n", [0, 1, 3, 5], ids=["airy", "n1", "n3", "n5"])
def test_small_z_within_ten_est_errors_of_the_oracle(n):
    # near the turning point the saddles nearly merge and each thimble
    # branches within 1/|r| of its saddle, the scale the rule takes there;
    # its truncation estimate, taken from S' at the ends, does not blow up
    # as S'' at the saddles -> 0
    for r in (1e-9, 1e-6, 1e-3):
        for j in range(6):
            z = cmath.rect(r, math.pi * (2 * j - 5) / 6)
            for eps in (0.02, 0.1):
                if n:
                    res, want = hardy_phi_eval(n, z, eps), _series_oracle(n, z, eps)
                else:
                    res, want = airy_contour(z, eps), airy_oracle(z, eps)
                assert abs(res.value - want) <= 10 * res.est_error, (z, eps)
                assert res.est_error <= 1e-13 * abs(res.value), (z, eps)


@pytest.mark.parametrize("n, r, j, eps", [(8, 1e-12, 3, 0.1), (9, 1e-12, 7, 0.05),
                                           (10, 1e-12, 1, 0.1), (10, 1e-9, 4, 0.05)])
def test_long_walks_near_the_turning_point_reach_their_valleys(n, r, j, eps):
    # here |r| is 1e26 to 5e35, so each thimble's closed form branches
    # that close to its saddle, and up to four thimbles join the valleys.
    # arg z = pi (j - 3.5)/4 lies inside |arg z| < 2 pi/m for j = 3, 4
    z = cmath.rect(r, math.pi * (j - 3.5) / 4)
    res = hardy_phi_eval(n, z, eps)
    assert abs(res.value - _k_oracle(n, z, eps, "eps2")) <= 10 * res.est_error


@pytest.mark.parametrize("kind", ["airy", "confluent", 1, 2, 5, 10])
def test_the_turning_point_boundary_within_ten_est_errors(kind):
    # |z| down to 1e-200 at eight arguments: the saddles nearly merge and the
    # thimbles' closed form branches within 1/|r| ~ |z|^(m/4) of each saddle,
    # where |u| ~ (2/m) ln|r| carries its rounding into x = c cosh u.
    # Oracles: airy_oracle, the K_nu form, and for the confluent function
    # (which has none) the same integral at rel_tol 1e-15
    F, h = PuiseuxSeries({0: Fr(1, 3), 1: Fr(-2, 7)}), PuiseuxSeries({0: Fr(1, 5)})
    psi = pde_taylor(F, h, 40, 40) if kind == "confluent" else None
    fine = ContourSpec(rel_tol=1e-15)
    for r in (1e-200, 1e-100, 1e-12, 1e-6, 1e-2):
        for j in range(8):
            z = cmath.rect(r, math.pi * (j - 3.5) / 4)
            for eps in (0.02, 0.1):
                try:
                    if kind == "airy":
                        res, want = airy_contour(z, eps), airy_oracle(z, eps)
                    elif kind == "confluent":
                        res = confluent_eval(F, h, z, eps, psi=psi)
                        want = confluent_eval(F, h, z, eps, fine, psi=psi).value
                    else:
                        res, want = hardy_phi_eval(kind, z, eps), _k_oracle(kind, z, eps, "eps2")
                except ExactWKBError:
                    continue
                assert abs(res.value - want) <= 10 * res.est_error, (z, eps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [6, 8, 9, 10])
def test_a_value_below_double_range_says_so(n):
    # here |x| = |2 z^{m/2}/(m eps)| is 1e14 to 5e19 with Re x > 0, so Phi_n
    # = c_n sqrt(z) K_nu(x) is below 10^-(10^13): the saddle scale underflows
    # to 0.  No numpy warning leaks (the thimble's integrand e^{-s^2} g
    # cannot overflow), and the -0 it returns carries the bound of what the
    # underflow lost, not a claim of exactness
    z, eps = 838.44 - 244.94j, 0.0011992 - 0.00086505j
    try:
        res = hardy_phi_eval(n, z, eps)
    except ContourFailure:
        return
    assert res.value == 0 and 0 < res.est_error < 1e-300


def test_extreme_z_gives_a_value_or_a_typed_error():
    # powers of z that overflow or underflow, and nan or inf, end in an
    # ExactWKBError or a finite value, never a bare OverflowError,
    # ZeroDivisionError, LinAlgError or ValueError
    F, h = PuiseuxSeries({0: Fr(1, 3), 1: Fr(-2, 7)}), PuiseuxSeries({0: Fr(1, 5)})
    psi = pde_taylor(F, h, 40, 40)
    fns = [lambda z: airy_contour(z, 0.1), lambda z: confluent_eval(F, h, z, 0.1, psi=psi)]
    fns += [lambda z, n=n: hardy_phi_eval(n, z, 0.1) for n in (1, 2, 3, 5, 10)]
    zs = [cmath.rect(r, a) for r in (1e-320, 1e-300, 1e-200, 1e-160, 1e-100, 1e-60,
                                     1e60, 1e100, 1e200, 1e300) for a in (0.0, 0.7, 2.5)]
    zs += [complex(math.nan), complex(math.inf), complex(0, math.inf), complex(1, math.nan)]
    for fn in fns:
        for z in zs:
            try:
                res = fn(z)
            except ExactWKBError:
                continue
            assert cmath.isfinite(res.value) and math.isfinite(res.est_error), z
