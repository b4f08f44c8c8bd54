"""Hardy polynomial family: hyperbolic identities, structural identities,
and the exponential-integral evaluation."""

import math
import random
from fractions import Fraction as Fr

import numpy as np
import pytest

from exactwkb.airy import airy_raw_contour
from exactwkb.contours import ContourSpec
from exactwkb.hardy import (hardy_identities_hold, hardy_ode_residual,
                            hardy_phi_eval, hardy_polynomial, hardy_S_T,
                            quasi_homogeneous_ok, poly2_eval)
from exactwkb.hardy import _hardy_setup, _setup_polys


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
    z = 0.9 + 0.2j
    _, calls, saddle = _hardy_setup(n, z, 0.08, "eps2")
    pair, dS, dd = _setup_polys(n)
    line = saddle + np.linspace(-0.6, 0.6, 9) * (1 + 0.3j)
    for zhat in (saddle, line):
        for p, f in zip((pair.S, dS, dd), calls(z)):
            want = _per_term_poly2_eval(p, z, zhat)
            assert np.array_equal(f(zhat), want)
            assert np.array_equal(poly2_eval(p, z, zhat), want)


def test_phi1_proportional_to_airy_integral():
    ratios = []
    for z in (0.8, 1.0, 1.3):
        p = hardy_phi_eval(1, z, 0.1).value
        a = airy_raw_contour(z, 0.1).value
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
    pair_spec = ContourSpec()
    res = hardy_phi_eval(3, 1.1, 0.08, spec=pair_spec)
    # rebuild the default path, reverse it, integrate again
    from exactwkb.contours import (canonical_up_dir, saddle_descent_path,
                                   saddle_point_integral)

    pair, dS, dd = _setup_polys(3)
    z, eps = 1.1, 0.08
    deg = max(j for (_, j) in dS)
    poly = np.zeros(deg + 1, dtype=complex)
    for (i, j), c in dS.items():
        poly[deg - j] += float(c) * (z ** i)
    saddles = np.roots(poly)
    S_at = [complex(poly2_eval(pair.S, z, s)) for s in saddles]
    k = int(np.argmax([(v / eps).real for v in S_at]))
    saddle = complex(saddles[k])

    def S(x):
        return poly2_eval(pair.S, z, x)

    def d2S(x):
        return poly2_eval(dd, z, x)

    nodes, _, _ = saddle_descent_path(S, lambda x: poly2_eval(dS, z, x), d2S,
                                      saddle, eps, pair_spec,
                                      canonical_up_dir(complex(d2S(saddle)), eps))
    fwd = saddle_point_integral(S, lambda x: poly2_eval(dS, z, x), d2S, saddle,
                                eps, pair_spec.with_path(nodes))
    rev = saddle_point_integral(S, lambda x: poly2_eval(dS, z, x), d2S, saddle,
                                eps, pair_spec.with_path(list(reversed(nodes))))
    assert abs(fwd.value + rev.value) < 1e-12 * abs(fwd.value)
    assert abs(fwd.value - res.value) < 1e-10 * abs(res.value)


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
