"""Hardy polynomial family: hyperbolic identities, structural identities,
and the exponential-integral evaluation."""

import cmath
import math
import random
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from exactwkb.airy import airy_contour
from exactwkb.contours import ContourSpec, valley_integral
from exactwkb.hardy import (hardy_identities_hold, hardy_ode_residual,
                            hardy_phi_eval, hardy_polynomial, hardy_S_T,
                            hardy_valleys, quasi_homogeneous_ok, poly2_eval)
from exactwkb.hardy import _phase, _setup_polys


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
    left = poly2_eval(pair.S, lam * lam * z, lam * zh)
    right = lam ** (pair.n + 2) * poly2_eval(pair.S, z, zh)
    assert abs(left - right) < 1e-12 * abs(right)


def _per_term_poly2_eval(p, z, zhat):
    zhat = np.asarray(zhat, dtype=complex)
    out = np.zeros_like(zhat)
    for (i, j), c in p.items():
        out = out + float(c) * (z ** i) * zhat ** j
    return out


@pytest.mark.parametrize("n", [3, 8])
def test_fixed_z_terms_equal_per_term_loop(n):
    # the Horner loop in zhat^2 at a fixed z gives the per-term sum to
    # rounding, on a Python complex and on a numpy array alike
    z = 0.9 + 0.2j
    S, dS, d2S, saddles, _ = _phase(n, z, 0.08)
    pair, dSp, dd = _setup_polys(n)
    line = saddles[0][0] + np.linspace(-0.6, 0.6, 9) * (1 + 0.3j)
    for p, f in zip((pair.S, dSp, dd), (S, dS, d2S)):
        size = _per_term_poly2_eval({k: abs(c) for k, c in p.items()},
                                    abs(z), np.abs(line))
        want = _per_term_poly2_eval(p, z, line)
        assert np.all(abs(f(line) - want) <= 1e-14 * size)
        assert np.all(abs(poly2_eval(p, z, line) - want) <= 1e-14 * size)
        assert all(abs(f(complex(x)) - y) <= 1e-14 * m
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


def test_reversed_orientation_flips_sign():
    # swapping the two valleys, or walking an explicit path backwards,
    # reverses the contour
    n, z, eps = 3, 1.1, 0.08
    S, dS, d2S, saddles, _ = _phase(n, z, eps)
    a, b = hardy_valleys(n, eps)
    spec = ContourSpec()
    fwd = valley_integral(S, dS, d2S, saddles, eps, (a, b), spec)
    rev = valley_integral(S, dS, d2S, saddles, eps, (b, a), spec)
    assert fwd.value == hardy_phi_eval(n, z, eps).value
    assert abs(fwd.value + rev.value) < 1e-12 * abs(fwd.value)
    rays = [2 * cmath.exp(1j * a), 0j, 2 * cmath.exp(1j * b)]
    there = valley_integral(S, dS, d2S, saddles, eps, (a, b),
                            ContourSpec(path=tuple(rays)))
    back = valley_integral(S, dS, d2S, saddles, eps, (a, b),
                           ContourSpec(path=tuple(rays[::-1])))
    assert abs(there.value - fwd.value) <= 10 * (there.est_error + fwd.est_error)
    assert abs(there.value + back.value) <= 10 * (there.est_error + back.est_error)


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
