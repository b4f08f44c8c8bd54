"""series layer: arithmetic, rational powers, inversion, calculus, JSON."""

import ast
import copy
import pickle
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import exactwkb
from exactwkb.coefficients import GaussianRational
from exactwkb.errors import LatticeError, LogObstruction, SeriesError, SeriesFormatError
from exactwkb.series import INF, EpsSeries, PuiseuxSeries, TaylorSeries


def S(d, trunc=INF):
    return PuiseuxSeries(d, trunc)


def test_mul_difference_of_squares():
    a = S({0: 1, 1: 1})
    b = S({0: 1, 1: -1})
    assert a * b == S({0: 1, 2: -1})


def test_geometric_inverse():
    one_minus_z = S({0: 1, 1: -1})
    inv = one_minus_z.inverse(order=6)
    assert inv == S({k: 1 for k in range(6)}, trunc=6)


def test_half_integer_product():
    h = S({Fr(1, 2): 1})
    assert (h * h) == S({1: 1})


def test_sqrt_binomial():
    # (1+2z)^(1/2) = 1 + z - z^2/2 + z^3/2 - ...
    s = S({0: 1, 1: 2}).pow_rational(Fr(1, 2), order=4)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 1
    assert s.coeff(2) == Fr(-1, 2)
    assert s.coeff(3) == Fr(1, 2)


def test_two_thirds_power():
    # (z + z^2)^(2/3) = z^(2/3) (1 + (2/3) z - (1/9) z^2 + ...)
    s = S({1: 1, 2: 1}).pow_rational(Fr(2, 3), order=3)
    assert s.coeff(Fr(2, 3)) == 1
    assert s.coeff(Fr(5, 3)) == Fr(2, 3)
    assert s.coeff(Fr(8, 3)) == Fr(-1, 9)


@pytest.mark.parametrize("c, r, lead", [
    (Fr(3 ** 100), Fr(1, 2), Fr(3 ** 50)),        # past 2^53: a float root misses
    (Fr(3 ** 700), Fr(1, 2), Fr(3 ** 350)),       # past the float range
    (Fr(1, 3 ** 1000), Fr(1, 2), Fr(1, 3 ** 500)),
    (Fr(-3), Fr(-2), Fr(1, 9)),                   # an integer power of c < 0
    (Fr(-2, 3), Fr(3), Fr(-8, 27))])
def test_exact_powers_of_large_or_negative_leading_coefficients(c, r, lead):
    s = S({0: c, 1: 1}).pow_rational(r, order=2)
    assert s.coeff(0) == lead and type(s.coeff(0)) is Fr
    assert s.coeff(1) == r * lead / c


def test_inexact_rational_root_is_refused():
    for c in (Fr(3 ** 101), Fr(-4), Fr(2, 3 ** 100 + 1)):
        with pytest.raises(SeriesError, match="no exact rational 2-th root"):
            S({0: c, 1: 1}).pow_rational(Fr(1, 2), order=2)


def test_pow_identity_exponent():
    a = S({Fr(-3, 2): Fr(5), 0: 2, Fr(1, 2): -1})
    assert a.pow_rational(1) == a


def test_negative_power_and_series_quotient_are_refused():
    # integer powers are products or pow_rational (a negative n once went
    # through inverse); a quotient of series is div or inverse, and / says so
    a = S({0: 1, 1: 2}, trunc=4)
    assert a * a == S({0: 1, 1: 4, 2: 4}, trunc=4)
    for n in (2, -1):
        with pytest.raises(TypeError):
            a ** n
    with pytest.raises(SeriesError, match="div"):
        a / a
    assert (a.div(a, order=4) - 1).is_zero()


def test_pow_then_inverse_power_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        a = S({0: 1, 1: Fr(rng.randint(-4, 4)), 2: Fr(rng.randint(-4, 4), 3)})
        r = Fr(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        b = a.pow_rational(r, order=6).pow_rational(1 / r, order=6)
        assert (b - a.with_trunc(6)).is_zero()


def test_ring_axioms_random_exact():
    rng = random.Random(41)

    def rand_series():
        return S({Fr(k, 2): Fr(rng.randint(-5, 5), rng.randint(1, 4))
                  for k in range(-2, 5)}, trunc=Fr(7, 2))

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert ((a + b) - (b + a)).is_zero()


def test_reversion_examples():
    # f(q) = q -> g = z
    f = TaylorSeries({1: 1})
    assert f.reversion(6) == S({1: 1}, trunc=6)
    # f(q) = q + q^2 -> g = z - z^2 + 2 z^3 - 5 z^4 + ...
    f = TaylorSeries({1: 1, 2: 1})
    g = f.reversion(6)
    assert g.coeff(1) == 1
    assert g.coeff(2) == -1
    assert g.coeff(3) == 2
    assert g.coeff(4) == -5
    # residual of recomposition is exactly zero on retained orders
    resid = f.compose(g) - S({1: 1})
    assert resid.is_zero()


def test_reversion_symbolic_parameter():
    from exactwkb.polyring import QPoly

    v2 = QPoly.gen("v2")
    f = TaylorSeries({1: Fr(1), 2: v2})
    g = f.reversion(5)
    assert g.coeff(2) == -v2
    assert g.coeff(3) == 2 * v2 * v2
    assert (f.compose(g) - S({1: 1})).is_zero()


def test_reversion_keeps_input_truncation():
    # g_3 depends on f_3, unknown for z + z^2 + O(z^3): completing f with
    # 5 z^3 moves it from 2 to -3
    g = TaylorSeries({1: 1, 2: 1}, trunc=3).reversion(6)
    assert g == S({1: 1, 2: -1}, trunc=3)
    assert TaylorSeries({1: 1, 2: 1, 3: 5}).reversion(6).coeff(3) == -3


def test_pow_rational_of_zero_series_scales_truncation():
    # (0 + O(z^T))^r = O(z^(rT)) for r > 0
    assert S({}, trunc=2).pow_rational(Fr(1, 2)) == S({}, trunc=1)
    assert S({}, trunc=-2).pow_rational(3) == S({}, trunc=-6)


def test_with_trunc_cannot_make_a_truncated_series_exact():
    # 1 + O(z^2) says nothing about z^2, z^3, ...; INF would claim they vanish
    with pytest.raises(SeriesError):
        S({0: 1}, trunc=2).with_trunc(INF)
    assert S({0: 1}).with_trunc(INF) == S({0: 1})


def test_pow_rational_of_real_gaussian_leading_coefficient_stays_exact():
    s = S({0: GaussianRational(1, 0), 1: 1}, trunc=3).pow_rational(Fr(1, 2))
    assert s == S({0: 1, 1: Fr(1, 2), 2: Fr(-1, 8)}, trunc=3)
    assert s.is_exact()
    root = S({0: GaussianRational(4, 0)}).sqrt()
    assert root == S({0: 2}) and type(root.coeff(0)) is Fr
    with pytest.raises(SeriesError):
        S({0: GaussianRational(1, 1), 1: 1}, trunc=3).pow_rational(Fr(1, 2))


def _geometric_inverse(s, order):
    """1/s = (1/c0) z^-m sum_k (-u)^k for s = c0 z^m (1 + u), summed
    until a power of u truncates to zero; (1/c0) z^-m for a monomial."""
    m, c0 = s.leading()
    inv_c0 = Fr(1) / c0
    if len(s.coeffs) == 1:
        return PuiseuxSeries({-m: inv_c0}, INF if s.trunc is INF else s.trunc - 2 * m,
                             lattice=6)
    rel = Fr(order) if s.trunc is INF else s.trunc - m
    u = (s.shift(-m) * inv_c0 - 1).with_trunc(rel)
    total = term = S({0: 1}, rel)
    while True:
        term = (-term * u).with_trunc(rel)
        if term.is_zero():
            break
        total = total + term
    return total.shift(-m) * inv_c0


@pytest.mark.parametrize("kind", ["fraction", "gaussian", "real", "complex"])
def test_inverse_matches_geometric_expansion(kind):
    rng = random.Random(3)

    def coeff():
        re = Fr(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        im = Fr(rng.randint(-5, 5), rng.randint(1, 4))
        if kind == "fraction":
            return re
        if kind == "gaussian":
            return GaussianRational(re, im)
        return complex(float(re), float(im) if kind == "complex" else 0.0)

    for _ in range(40):
        step = rng.choice([1, Fr(1, 2), Fr(1, 3)])
        m = step * rng.randint(-3, 3)
        terms = {m: coeff()}
        for _ in range(rng.randint(0, 4)):
            terms[m + step * rng.randint(1, 8)] = coeff()
        trunc = rng.choice([INF, m + step * rng.randint(1, 10)])
        s = PuiseuxSeries(terms, trunc, lattice=6)
        order = rng.choice([1, 3, Fr(7, 2), 6])
        got, want = s.inverse(order), _geometric_inverse(s, order)
        assert got.trunc == want.trunc and got.coeffs.keys() == want.coeffs.keys()
        if kind in ("real", "complex"):
            # the two round differently: both against the exact inverse
            exact = PuiseuxSeries(
                {e: GaussianRational(Fr(c.real), Fr(c.imag)) for e, c in terms.items()},
                trunc, lattice=6).inverse(order).to_float()
        for e, c in want.coeffs.items():
            assert type(got.coeffs[e]) is type(c), (s, e)
            if kind in ("real", "complex"):
                ref = exact.coeffs[e]
                assert abs(got.coeffs[e] - ref) <= 1e-14 * abs(ref), (s, e)
            else:
                assert got.coeffs[e] == c, (s, e)


def test_rational_power_when_every_later_term_is_past_the_order():
    # u = z^5 truncates to zero at relative order 3: the result is 1 + O(z^3)
    s = S({0: 1, 5: 1})
    assert s.sqrt(order=3) == s.inverse(order=3) == S({0: 1}, trunc=3)


def test_minus_one_power_of_a_gaussian_leading_coefficient_is_the_inverse():
    s = S({0: GaussianRational(1, 1), 1: 1})
    got = s.pow_rational(-1, order=3)
    assert got == s.inverse(order=3)
    # (1 - z/(1+i) + z^2/(1+i)^2)/(1+i), with (1+i)^2 = 2i
    assert got == S({0: GaussianRational(Fr(1, 2), Fr(-1, 2)),
                     1: GaussianRational(0, Fr(1, 2)),
                     2: GaussianRational(Fr(-1, 4), Fr(-1, 4))}, trunc=3)
    assert (got * s).with_trunc(3) == S({0: 1}, trunc=3)


def _count_mul_calls(monkeypatch):
    mul = PuiseuxSeries.__mul__
    calls = []

    def counting_mul(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(PuiseuxSeries, "__mul__", counting_mul)
    return calls


def test_sqrt_makes_no_series_product(monkeypatch):
    calls = _count_mul_calls(monkeypatch)
    s = S({0: 1, 1: Fr(1, 3), 2: Fr(-2, 7)}).sqrt(order=8)
    # Miller's recurrence works on the coefficients: the binomial loop it
    # replaced made one series product per retained power u^1 .. u^7
    assert calls == []
    assert s.trunc == 8 and s.coeff(1) == Fr(1, 6)
    assert (s * s - S({0: 1, 1: Fr(1, 3), 2: Fr(-2, 7)})).with_trunc(8).is_zero()


def test_float_inverse_has_no_rounding_residue(monkeypatch):
    # 1/c0 rounds, so c0 * (1/c0) - 1 is not 0; Miller's recurrence never
    # forms it, and the inverse costs no series product
    s = S({0: 2.3333333333333335 + 1j, 1: 0.5 + 0.25j})
    exact = S({e: GaussianRational(Fr(c.real), Fr(c.imag))
               for e, c in s.coeffs.items()}).inverse(order=3).to_float()
    calls = _count_mul_calls(monkeypatch)
    got = s.inverse(order=3)
    assert len(calls) <= 3
    assert got.trunc == exact.trunc == 3 and got.coeffs.keys() == exact.coeffs.keys()
    for e, c in exact.coeffs.items():
        assert abs(got.coeffs[e] - c) <= 1e-15 * abs(c)


def test_lattice_checked_on_input():
    with pytest.raises(LatticeError):
        S({Fr(1, 3): 1})
    third = PuiseuxSeries({Fr(1, 3): 1}, lattice=3)
    assert third.coeff(Fr(1, 3)) == 1
    half = S({Fr(1, 2): 1})
    assert third + half == PuiseuxSeries({Fr(2, 6): 1, Fr(3, 6): 1}, lattice=6)
    assert third * half == PuiseuxSeries({Fr(5, 6): 1}, lattice=6)


def test_series_stores_only_coefficients_and_truncation():
    a = PuiseuxSeries({Fr(1, 3): 1}, lattice=3) * S({Fr(1, 2): 1}, trunc=3)
    # an exact series is its cleared form, keyed by the integer 6e: one
    # denominator, the int numerators and the nonzero imaginary ones; any
    # other ring keeps its coefficients in _by6 and no denominator
    assert PuiseuxSeries.__slots__ == ("_den", "_by6", "_im", "trunc")
    assert (a._den, a._by6, a._im) == (1, {5: 1}, {})
    g = S({1: GaussianRational(Fr(1, 3), Fr(-1, 4)), 0: Fr(-1, 2)})
    assert (g._den, g._by6, g._im) == (12, {0: -6, 6: 4}, {6: -3})
    assert (g * 4)._den == 3 and (g * 4)._by6 == {0: -6, 6: 4}     # over the least D
    f = S({0: 1.5, 1: Fr(1, 2)})
    assert f._den is None and f._by6 == {0: 1.5, 6: Fr(1, 2)} and f._im is None
    for name in ("_den", "_by6", "_im", "trunc", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert list(a.coeffs) == [Fr(5, 6)] and a.trunc == Fr(10, 3)


def test_coeffs_is_a_fraction_keyed_copy_in_exponent_order():
    s = PuiseuxSeries({Fr(3, 2): 1, 0: 2, Fr(-1, 6): 3, 1: 4, Fr(1, 6): 5},
                      trunc=Fr(7, 2), lattice=6)
    c = s.coeffs
    assert list(c) == [Fr(-1, 6), 0, Fr(1, 6), 1, Fr(3, 2)]
    assert all(type(e) is Fr for e in c)
    # z^1 and z^(1/6) are told apart, whether looked up by Fraction or int
    assert c[Fr(1)] == c[1] == 4 and c[Fr(1, 6)] == 5
    c[Fr(5, 2)] = 9
    del c[Fr(0)]
    assert s.coeffs == {Fr(3, 2): 1, 0: 2, Fr(-1, 6): 3, 1: 4, Fr(1, 6): 5}
    assert s.coeff(0) == 2 and s.coeff(Fr(5, 2)) == 0
    back = PuiseuxSeries.from_json(s.to_json())
    assert back == s and back.to_json() == s.to_json()
    g = PuiseuxSeries({Fr(1, 3): GaussianRational(1, -2), 0: Fr(1, 5)},
                      trunc=2, lattice=3)
    back = PuiseuxSeries.from_json(g.to_json())
    assert back == g and back.to_json() == g.to_json()


def test_exponents_off_the_sixths_lattice_rejected():
    with pytest.raises(LatticeError):
        S({1: 1}).shift(Fr(1, 5))
    with pytest.raises(LatticeError):
        S({1: 1, 2: 1}).pow_rational(Fr(1, 4), order=3)
    with pytest.raises(LatticeError):
        S({1: 1}).pow_rational(Fr(1, 5))


def test_reversion_requires_unit_derivative():
    with pytest.raises(SeriesError):
        TaylorSeries({2: 1}).reversion(5)


def test_calculus_power_rule():
    assert S({Fr(1, 2): 1}).derivative() == S({Fr(-1, 2): Fr(1, 2)})
    assert S({Fr(-5, 2): 1}).antiderivative() == S({Fr(-3, 2): Fr(-2, 3)})


def test_antiderivative_log_obstruction():
    with pytest.raises(LogObstruction):
        S({-1: 1}).antiderivative()


def test_a_z_inverse_term_of_a_ring_with_no_size_is_a_log_obstruction():
    # the 1e-9 rounding allowance reads floats and complexes only; a QPoly or
    # an eps-series coefficient at z^-1 is refused, not passed to complex()
    from exactwkb.polyring import QPoly
    for s in (S({-1: QPoly.gen("v"), 0: 1}), S({-1: eps(S({0: 1})), 0: eps(S({0: 2}))})):
        with pytest.raises(LogObstruction):
            s.antiderivative()
    assert S({-1: 1e-12, 0: 1.0}).antiderivative() == S({1: 1.0})
    with pytest.raises(LogObstruction):
        S({-1: 1e-6j, 0: 1.0}).antiderivative()


def _qpoly_series(lead_exp):
    from exactwkb.polyring import QPoly
    return S({lead_exp: QPoly.gen("v") + 1, lead_exp + 1: 1}, trunc=5)


@pytest.mark.parametrize("op, match", [
    (lambda: S({0: 1, 1: Fr(1, 2)}) / S({0: 2, 1: 3}), "div"),
    (lambda: S({0: 1.0, 1: 0.5j}) / S({0: 2.0, 1: 3.0}), "div"),
    (lambda: _qpoly_series(0).inverse(3), "power -1"),
    (lambda: _qpoly_series(0).pow_rational(Fr(1, 2), 3), "power 1/2"),
    (lambda: _qpoly_series(0).sqrt(3), "power 1/2"),
    (lambda: _qpoly_series(1).reversion(4), "power -1"),
    (lambda: _qpoly_series(0).eval(0.5), "no value"),
    (lambda: _qpoly_series(0).to_float(), "no value"),
], ids=["div-exact", "div-float", "inverse", "pow-half", "sqrt", "reversion",
        "eval", "to-float"])
def test_an_operation_the_ring_lacks_is_a_series_error(op, match):
    # division by a series goes through div; a QPoly coefficient has no
    # inverse, root or value at a point: each a SeriesError, not a bare
    # TypeError from inside the ring
    with pytest.raises(SeriesError, match=match):
        op()


def test_derive_antiderive_roundtrip():
    a = S({Fr(-5, 2): 3, Fr(1, 2): Fr(2, 7), 2: -4})
    assert (a.derivative().antiderivative() - a).is_zero()


def test_division_by_zero_series_rejected():
    with pytest.raises(SeriesError):
        S({0: 1}).div(S({}, trunc=4))


def test_division_by_a_zero_scalar_is_a_series_error():
    # as division by a zero series is; it was a bare ZeroDivisionError
    s = S({1: 1, 2: Fr(1, 3)}, trunc=4)
    for zero in (0, Fr(0), GaussianRational(0, 0), 0.0):
        with pytest.raises(SeriesError, match="division of a series by zero"):
            s / zero
    assert s / 2 == s * Fr(1, 2) == S({1: Fr(1, 2), 2: Fr(1, 6)}, trunc=4)


def test_float_terms_that_underflow_are_dropped():
    d = S({0: 1.0, 1: 1e-320}).derivative()
    assert d.coeffs == {Fr(0): 1e-320}
    assert (d * 1e-10).is_zero() and (d * 1e-10).trunc == INF
    # a weight of a diagonal map, a rational multiple included
    for got in (S({1: 5e-324}) * Fr(1, 3), S({2: 5e-324}).antiderivative(),
                S({Fr(1, 2): 5e-324}, trunc=3).derivative()):
        assert got.is_zero() and got.coeffs == {}


def test_truncation_tracking_mul():
    a = S({1: 1}, trunc=5)          # z + O(z^5)
    b = S({-1: 1}, trunc=2)         # 1/z + O(z^2)
    c = a * b                        # 1 + O(z^3): z*O(z^2) dominates
    assert c.trunc == 3
    assert c.coeff(0) == 1


def test_json_roundtrip_exact_and_float():
    a = S({Fr(-3, 2): Fr(5, 48), 0: 1, 2: Fr(-7, 3)}, trunc=Fr(7, 2))
    b = PuiseuxSeries.from_json(a.to_json())
    assert a == b
    g = S({0: GaussianRational(1, Fr(1, 2))})
    g2 = PuiseuxSeries.from_json(g.to_json())
    assert (g - g2).is_zero()
    f = S({0: 1.5, 1: 0.25 + 1j})
    f2 = PuiseuxSeries.from_json(f.to_json())
    assert (f - f2).is_zero()


def test_json_reads_back_kernel_output_on_sixths():
    s = S({1: 1, 2: 1}).pow_rational(Fr(2, 3), order=3)
    assert Fr(2, 3) in s.coeffs
    assert PuiseuxSeries.from_json(s.to_json()) == s
    with pytest.raises(LatticeError):
        PuiseuxSeries.from_json('{"coeffs": [["1/4", ["1", "0"]]]}')


def test_json_object_without_coeffs_is_refused():
    for text in ('{"0": "1/3", "1": "-2/7"}', '{"trunc": "inf"}', '5'):
        with pytest.raises(SeriesFormatError):
            PuiseuxSeries.from_json(text)


@pytest.mark.parametrize("text", [
    '{"coeffs": [[1, 2]]}', '{"coeffs": 5}', '{"coeffs": [["x", ["1", "0"]]]}',
    '{"coeffs": [["0", ["a", "0"]]]}', '{"coeffs": [], "trunc": "abc"}',
    '{"coeffs": [["0", ["1", "0", "2"]]]}', '{"coeffs": [["1/0", ["1", "0"]]]}',
    '{"coeffs": [["0", [1e400, 0]]]}', '{"coeffs": [["0", [0.5, -1e400]]]}',
    '{"coeffs": [["0", [NaN, 0]]]}', '{"coeffs": [], "trunc": 1e400}',
])
def test_malformed_json_terms_are_format_errors(text):
    # the terms or the truncation of an outside series, not a bare TypeError,
    # ValueError or ZeroDivisionError; JSON reads 1e400 as inf
    with pytest.raises(SeriesFormatError):
        PuiseuxSeries.from_json(text)


def test_gaussian_rational_field_ops():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (GaussianRational(1, 2) / GaussianRational(3, -1)) * GaussianRational(3, -1) \
        == GaussianRational(1, 2)


def test_eval_principal_branch():
    a = S({2: 1, 0: 3})
    assert abs(a.eval(2.0) - 7.0) < 1e-14


def eps(*cs):
    """The eps-series c_0 + c_1 eps + ..., known below eps^len(cs)."""
    return EpsSeries(cs).series()


def test_eps_series_algebra():
    one, zero = PuiseuxSeries.one(), PuiseuxSeries.zero()
    z = S({1: 1})
    A = eps(one, z, z * z)
    B = eps(one, -z, zero)
    P = A * B
    assert P.trunc == 3
    assert EpsSeries.of(P).coeffs == (one, zero, zero)
    R = A.inverse()
    assert EpsSeries.of(A * R).coeffs == (one, zero, zero)


def test_eps_binomial_and_exp():
    one, zero = PuiseuxSeries.one(), PuiseuxSeries.zero()
    z = S({1: 1})
    E = eps(one, zero, z)  # 1 + z eps^2
    h = E.pow_rational(Fr(-1, 2))
    assert EpsSeries.of(h * h * E).coeffs == (one, zero, zero)
    X = eps(zero, z, zero, zero)
    assert EpsSeries.of(X.exp()).coeffs == (one, z, z * z * Fr(1, 2),
                                            z * z * z * Fr(1, 6))


def test_the_exact_zero_absorbs_a_truncated_factor():
    # 0 * (z + O(z^3)) is 0, not 0 + O(z^3): nothing unknown survives
    zero, x = PuiseuxSeries.zero(), S({1: 1}, trunc=3)
    E = eps(x, S({}, trunc=2))          # an eps-series with z-series orders
    for a in (x, E):
        assert zero * a == zero and a * zero == zero
    assert EpsSeries.of(eps(zero, x) * eps(x, zero)).coeffs == (zero, x * x)


def test_every_spelling_of_a_zero_factor_gives_the_exact_zero():
    # s * 0, 0 * s and s * 0.0 are the product with PuiseuxSeries.zero()
    s = S({1: 1}, trunc=3)
    want = s * PuiseuxSeries.zero()
    for got in (s * 0, 0 * s, s * 0.0, s * Fr(0)):
        assert got == want
        assert got.trunc == want.trunc == INF


def _dense_product(a, b):
    """Convolution over every eps-order of two tuples that start with a
    nonzero order, absent orders as the zero series."""
    acc = []
    for k in range(min(len(a), len(b))):
        c = PuiseuxSeries.zero()
        for i in range(k + 1):
            c = c + a[i] * b[k - i]
        acc.append(c)
    return tuple(acc)


def _dense_inverse(a):
    """Geometric inverse over every eps-order: f_k = -f_0 sum_i a_i f_(k-i)."""
    out = [a[0].inverse()]
    for k in range(1, len(a)):
        c = PuiseuxSeries.zero()
        for i in range(1, k + 1):
            c = c + a[i] * out[k - i]
        out.append(-(out[0] * c))
    return tuple(out)


def _dense_exp(u):
    """Miller's exp recurrence over every eps-order: n f_n = sum_j j u_j f_(n-j)."""
    out = [PuiseuxSeries.one()]
    for n in range(1, len(u)):
        c = PuiseuxSeries.zero()
        for j in range(1, n + 1):
            c = c + u[j] * out[n - j] * j
        out.append(c / n)
    return tuple(out)


def test_sparse_eps_arithmetic_matches_the_dense_recurrences():
    # an absent eps-order is the exact zero, which times anything is the
    # exact zero: visiting stored orders only gives what a walk over every
    # order gives, z-truncations included, and exact zeros stay exact
    zero = PuiseuxSeries.zero()
    a = (S({0: 1, 1: 1}, trunc=4), zero, S({0: 2, 2: 1}, trunc=3), zero,
         S({1: -1}, trunc=5))
    b = (S({0: 3}, trunc=6), S({1: 1}, trunc=2), zero, S({0: 1}, trunc=4))
    mono = (S({0: 2}, trunc=3), zero, zero)           # one truncated term
    even = (S({0: 1, 1: 1}, trunc=5), zero, S({}, trunc=2), zero,
            S({1: 3}, trunc=4), zero)                  # steps by eps^2
    assert EpsSeries.of(eps(*a) * eps(*b)).coeffs == _dense_product(a, b)
    assert EpsSeries.of(eps(*even) * eps(*a)).coeffs == _dense_product(even, a)
    for x in (a, mono, even):
        assert EpsSeries.of(eps(*x).inverse()).coeffs == _dense_inverse(x)
    assert EpsSeries.of(eps(*mono).inverse()).coeffs[1:] == (zero, zero)
    u = (zero, S({1: 1}, trunc=3), zero, S({0: 1, 2: 1}, trunc=4))
    u_even = (zero, zero, S({1: 1}, trunc=4), zero, S({}, trunc=2), zero)
    for x in (u, u_even):
        assert EpsSeries.of(eps(*x).exp()).coeffs == _dense_exp(x)
    for r in (eps(*even).inverse(), eps(*u_even).exp()):
        odd = EpsSeries.of(r).coeffs[1::2]
        assert odd and all(c == zero for c in odd)
    assert all(c.trunc < INF for c in EpsSeries.of(eps(*even).inverse()).coeffs[::2])


def test_exp_of_a_z_series():
    # exp(z + z^2) = 1 + z + (3/2) z^2 + (7/6) z^3 + ...
    assert S({1: 1, 2: 1}, trunc=4).exp() == S({0: 1, 1: 1, 2: Fr(3, 2), 3: Fr(7, 6)}, 4)
    assert S({}, trunc=2).exp() == S({0: 1}, trunc=2)
    with pytest.raises(SeriesError):
        S({0: 1, 1: 1}, trunc=3).exp()
    with pytest.raises(SeriesError):
        S({1: 1}).exp()


def test_eps_series_times_z_monomial_is_coefficientwise():
    # nothing in the type tells a z-series from an eps-series: a mixed
    # product goes through map_coefficients, and E * m would read m in eps
    m = S({Fr(-1, 2): 1})
    cs = (S({Fr(1, 2): 1}), PuiseuxSeries.zero(), PuiseuxSeries.zero(4),
          S({-1: Fr(1, 4), 0: 2}, trunc=2))
    E = eps(*cs)
    want = eps(*(c * m for c in cs))
    assert E.map_coefficients(lambda c: c * m) == want
    assert EpsSeries.of(want).coeffs[2] == PuiseuxSeries.zero(Fr(7, 2))
    assert E * m != want


def test_series_equals_a_scalar_only_as_an_exact_constant():
    assert PuiseuxSeries.zero() == 0 and hash(PuiseuxSeries.zero()) == hash(0)
    assert PuiseuxSeries.zero(3) != 0
    assert S({0: Fr(2, 3)}) == Fr(2, 3) and hash(S({0: Fr(2, 3)})) == hash(Fr(2, 3))
    assert S({0: 1}, trunc=2) != 1 and S({1: 1}) != 1
    # so an eps-series keeps a 0 + O(z^T) coefficient and drops an exact 0
    assert eps(PuiseuxSeries.zero(), PuiseuxSeries.zero(3)).coeffs == {
        Fr(1): PuiseuxSeries.zero(3)}


def test_only_the_series_module_knows_the_term_store():
    # every other layer reads a series through its public readers and builds
    # one through the constructor or _combine, so the store can change here;
    # a _combine weight is data, polynomials in the exponent e, so no module
    # but series.py writes a lambda of the key 6e or divides by 6
    kernel = {"_combine", "_miller_sum"}
    for path in sorted(Path(exactwkb.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_combine":
                args = node.args + [k.value for k in node.keywords]
                assert not any(isinstance(n, ast.Lambda) for a in args for n in ast.walk(a)), where
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
                assert not (isinstance(node.right, ast.Constant) and node.right.value == 6), where
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("_den", "_by6", "_im"), where
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names}
                assert not any(n.split(".")[-1] == "series" for n in names), where
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("series"):
                    assert not {n for n in names - kernel if n.startswith("_")}, where


@pytest.mark.parametrize("s", [
    S({0: 1, Fr(1, 2): Fr(-2, 3)}),
    S({0: GaussianRational(1, -2), 1: Fr(1, 5)}),
    TaylorSeries({1: Fr(1, 3), 2: 2}, trunc=4),
    eps(S({Fr(1, 2): 1}), PuiseuxSeries.zero(3), S({-1: 1.5 - 2j})),
], ids=["exact", "gaussian", "truncated", "eps"])
def test_copy_and_pickle_rebuild_the_terms_without_the_cleared_form(s):
    # the state is the terms keyed by 6e and the truncation, and a copy
    # clears an exact series's terms afresh, to the same form
    assert s.__reduce__()[2] == ({int(6 * e): c for e, c in s.coeffs.items()}, s.trunc)
    for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(c) is type(s) and c == s and c.terms() == s.terms()
        assert c.trunc == s.trunc and (c.trunc is INF) == (s.trunc is INF)
        assert (c._den, c._by6, c._im) == (s._den, s._by6, s._im)
        assert c * c == s * s


def test_to_json_of_a_coefficient_without_a_json_form_is_a_format_error():
    from exactwkb.polyring import QPoly
    for s in (S({0: 1, 1: QPoly.gen("v")}), eps(S({0: 1}))):
        for dump in (s.to_json, s.to_json_dict):
            with pytest.raises(SeriesFormatError, match="has no JSON form"):
                dump()


def test_repr_of_a_truncated_series_shows_its_first_eight_terms():
    s = S({Fr(k, 2): Fr(k - 4, 3) for k in range(10)} | {1: GaussianRational(1, -1)}, trunc=6)
    assert repr(s) == (
        "<PuiseuxSeries (-4/3) + (-1)z^1/2 + (GaussianRational(1, -1))z^1 + (-1/3)z^3/2"
        " + (1/3)z^5/2 + (2/3)z^3 + (1)z^7/2 + (4/3)z^4 + ... + O(z^6)>")
