"""Property tests for GaussianRational against a pair-of-Fractions model.

GaussianRational keeps (a + b*i)/d as three ints in canonical form
(d > 0, b != 0, gcd(a, b, d) = 1); a real value is a Fraction.  Every
result must equal what plain complex arithmetic on (re, im) Fraction pairs
gives and be in that one form, so a real one is a Fraction, with
Fraction's == and hash.
"""

import copy
import pickle
from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactwkb.coefficients import GaussianRational as G
from exactwkb.coefficients import _gauss, clear, coeff_is_zero
from exactwkb.polyring import QPoly
from exactwkb.series import INF, PuiseuxSeries, _combine, _diag

RATS = st.fractions(min_value=-50, max_value=50, max_denominator=60)
GAUSS = st.builds(G, RATS, RATS)      # a Fraction when the drawn im is 0
SCALARS = st.one_of(st.integers(-40, 40), RATS)


# -- the reference model: complex arithmetic on (re, im) Fraction pairs --

def pair(x):
    if isinstance(x, G):
        return x.re, x.im
    return Fr(x), Fr(0)


def m_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def m_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


OPS = [(lambda x, y: x + y, m_add), (lambda x, y: x - y, m_sub),
       (lambda x, y: x * y, m_mul), (lambda x, y: x / y, m_div)]


def assert_canonical(g):
    """The one form: a real value is a Fraction, any other a GaussianRational
    with d > 0, b != 0 and gcd(a, b, d) = 1."""
    if type(g) is Fr:
        return
    assert type(g) is G
    assert g._d > 0 and g._b != 0
    assert gcd(g._a, g._b, g._d) == 1


def check(x, y):
    """Every operation on x, y against the model, when it is defined."""
    for op, model in OPS:
        if op is OPS[3][0] and pair(y) == (0, 0):
            continue
        r = op(x, y)
        assert_canonical(r)
        assert pair(r) == model(pair(x), pair(y))


@given(GAUSS, GAUSS)
def test_ops_match_the_pair_model(x, y):
    check(x, y)
    re, im = pair(x)
    assert_canonical(-x)
    assert pair(-x) == (-re, -im)
    assert pair(x.conjugate()) == (re, -im)
    assert_canonical(x.conjugate())


@given(GAUSS, SCALARS)
def test_int_and_fraction_operands_on_both_sides(x, q):
    check(x, q)
    check(q, x)


@given(RATS, RATS)
def test_constructor_is_canonical_and_reads_back(re, im):
    g = G(re, im)
    assert_canonical(g)
    assert pair(g) == (re, im)
    assert type(g) is (G if im else Fr)
    if im:
        assert isinstance(g.re, Fr) and isinstance(g.im, Fr)
    assert G(str(re), str(im)) == g


@given(SCALARS)
def test_eq_and_hash_agree_with_fraction_at_im_zero(q):
    g = G(q)
    assert type(g) is Fr
    assert g == q and q == g
    assert hash(g) == hash(q) == hash(Fr(q))
    assert {q: "x"}[g] == "x"
    assert {g: "y"}[q] == "y"
    assert G(q, 1) != q
    assert (G(q, 1) - G(0, 1)) == q


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE, FINITE)
def test_eq_with_a_complex_is_exact_and_hashes_like_it(re, im):
    # as Fraction == float: equal only to the complex of exactly its parts
    g, c = G(Fr(re), Fr(im)), complex(re, im)
    assert g == c and c == g and hash(g) == hash(c)
    assert {c: "x"}[g] == "x"
    assert G(Fr(re) + Fr(1, 3), Fr(im)) != c


def test_complex_eq_and_hash_on_a_grid():
    assert G(Fr(1, 3), Fr(2, 7)) != complex(1 / 3, 2 / 7)
    assert G(Fr(1, 3)) != complex(1 / 3) and G(1, 1) == 1 + 1j
    grid = [0.0, -0.0, 0.5, -1.25, 3.0, 2.0 ** 70, -7.5e-8, 1e300, -1e-300, 1 / 3]
    for re in grid:
        for im in grid:
            assert hash(G(Fr(re), Fr(im))) == hash(complex(re, im)), (re, im)
        # a real float too, exactly, as Fraction == float; a constant QPoly alike
        for x in (G(Fr(re)), QPoly(Fr(re))):
            assert x == re and re == x and hash(x) == hash(re), (x, re)
            assert {re: "x"}[x] == "x"
            assert x != 2 * re + 1 and x != float("nan"), (x, re)
        assert G(Fr(re), Fr(1)) != re and QPoly({(("a", 1),): Fr(1)}) + Fr(re) != re
    assert G(1) == 1.0 and QPoly(3) == 3.0 and QPoly(0) == -0.0
    assert G(Fr(1, 3)) != 1 / 3 and QPoly(Fr(1, 3)) != 1 / 3


@given(GAUSS)
def test_complex_is_the_float_pair(g):
    re, im = pair(g)
    assert complex(g) == complex(float(re), float(im))


@given(st.one_of(GAUSS, SCALARS))
def test_division_by_zero_raises(x):
    for zero in (G(0), G(Fr(0), Fr(0)), 0, Fr(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_read_only_parts_and_repr():
    g = G(Fr(1, 2), Fr(-3, 4))
    with pytest.raises(AttributeError):
        g.re = 1
    assert (g._a, g._b, g._d) == (2, -3, 4)
    assert repr(g) == "GaussianRational(1/2, -3/4)"
    assert repr(G(Fr(6, 4))) == "Fraction(3, 2)"
    assert repr(G(Fr(6, 4), 0) * G(1, 2) / G(1, 2)) == "Fraction(3, 2)"
    assert g.conjugate() == G(Fr(1, 2), Fr(3, 4))


@given(st.one_of(GAUSS, RATS))
def test_zero_test_and_truth_follow_the_numerator(x):
    assert coeff_is_zero(x) is (pair(x) == (0, 0))
    assert bool(x) is (pair(x) != (0, 0))


def test_zero_test_of_exact_scalars_skips_fraction_eq(monkeypatch):
    def refuse(*_):
        raise AssertionError("Fraction.__eq__ called")
    monkeypatch.setattr(Fr, "__eq__", refuse)
    assert coeff_is_zero(Fr(0)) and not coeff_is_zero(Fr(1, 3))
    assert coeff_is_zero(G(0)) and not coeff_is_zero(G(0, 2)) and not coeff_is_zero(G(1, 2))
    assert not coeff_is_zero(G(Fr(5, 2)))


@given(st.lists(st.one_of(GAUSS, RATS), max_size=8))
def test_clear_and_gauss_invert_each_other(values):
    d, rows = clear(values)
    assert d > 0 and sum(isinstance(v, G) for v in values) == sum(b != 0 for _, b in rows)
    back = [_gauss(a, b, d) for a, b in rows]
    assert [repr(v) for v in back] == [repr(v) for v in values]


def test_clear_refuses_other_rings():
    assert clear([Fr(1), 0.5]) is None and clear([1j]) is None


# -- the one form, through the series kernel ----------------------------------

# values whose products, quotients and sums are often real: i^2, (1+i)(1-i), ...
UNITS = st.sampled_from([Fr(1), Fr(-2), Fr(1, 2), G(0, 1), G(0, -1), G(1, 1), G(1, -1),
                         G(Fr(1, 2), Fr(-1, 2)), G(-2, 2)])
HALF = Fr(1, 2)


def pairs_of(s):
    """The terms of s as {6e: (re, im)}, each read back in its one form."""
    for c in s.coeffs.values():
        assert_canonical(c)
    return {int(6 * e): pair(c) for e, c in s.coeffs.items()}


def scaled(p, f):
    return p[0] * f, p[1] * f


def at(poly, k):
    """The polynomial poly (ascending coefficients) in e at e = k/6."""
    return sum(a * Fr(k, 6) ** i for i, a in enumerate(poly))


def model_combine(terms, final=None):
    """{6e: (re, im)} of _combine(terms, final) by the pair model, every term
    kept (the caller cuts at the result's truncation)."""
    out = {}

    def add(k, p):
        out[k] = m_add(out.get(k, (0, 0)), p)
    for t in terms:
        if isinstance(t, PuiseuxSeries):
            t = (t, 0, (1,), (1,))
        if len(t) == 4:
            s, shift, num, den = t
            for k, p in pairs_of(s).items():
                add(k + int(6 * shift), scaled(p, at(num, k) / at(den, k)))
        else:
            for ka, p in pairs_of(t[0]).items():
                for kb, q in pairs_of(t[1]).items():
                    add(ka + kb, scaled(m_mul(p, q), t[2]))
    if final is not None:
        shift, num, den = final
        out = {k + int(6 * shift): scaled(p, at(num, k) / at(den, k)) for k, p in out.items()}
    return out


def assert_model(r, model, below=None):
    """r's terms are in their one form and are the model's nonzero terms
    below r's truncation (or ``below``)."""
    top = 6 * (r.trunc if below is None else below)
    assert {k: p for k, p in pairs_of(r).items() if k < top} == \
        {k: p for k, p in model.items() if k < top and p != (0, 0)}


def unit_series(data, lo=0, lead=None):
    """Up to four UNITS terms at exponents lo/2 .. (lo + 5)/2, led by ``lead``
    z^(lo/2) if given, and a drawn truncation past them (or none)."""
    ks = data.draw(st.lists(st.integers(lo + (lead is not None), lo + 5), max_size=4,
                            unique=True))
    terms = {k * HALF: data.draw(UNITS) for k in ks}
    if lead is not None:
        terms[lo * HALF] = lead
    t = data.draw(st.one_of(st.none(), st.integers(lo + 1, lo + 8)))
    return PuiseuxSeries(terms, INF if t is None else t * HALF)


@given(st.data())
def test_no_result_is_a_gaussian_with_zero_imaginary_part(data):
    """Every exact result is a Fraction or a GaussianRational with b != 0,
    and is what the (re, im) pair model gives: scalar + - * /, _diag,
    _combine with cancelling terms, products, pow_rational, inverse, exp,
    the JSON round trip, and copy and pickle of a GaussianRational."""
    x, y = data.draw(UNITS), data.draw(UNITS)
    check(x, y)
    for g in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert_canonical(g)
        assert type(g) is type(x) and pair(g) == pair(x)

    a, b = unit_series(data), unit_series(data, lo=-2)
    # 6e - 3 is 0 at e = 1/2, and 1 + 12e < 0 for e < 0: never 0 on the half-integers
    weight = (data.draw(st.sampled_from([-HALF, 0, HALF])), (-3, 6), (1, 12))
    assert_model(_diag(a, *weight), model_combine([(a, *weight)]))
    assert_model(a * b, model_combine([(a, b, 1)]))
    # each term then the terms that cancel it, or its conjugate's: real keys
    conj = PuiseuxSeries({e: c.conjugate() for e, c in a.coeffs.items()}, a.trunc)
    terms = [a, (b, *weight), (a, b, 2), conj,
             (a, 0, (-1,), (1,)), (b, weight[0], (3, -6), weight[2])]
    terms = data.draw(st.permutations(terms))
    final = data.draw(st.sampled_from([None, (1, (1,), (3,))]))
    assert_model(_combine(terms, final), model_combine(terms, final))

    # powers: each result times its inverse power, in the model, is 1 or s
    s = unit_series(data, lo=data.draw(st.sampled_from([-2, 0, 2])),
                    lead=data.draw(st.sampled_from([Fr(1), Fr(4), Fr(1, 4)])))
    r = s.inverse(2)
    assert_model(r * s, model_combine([(r, s, 1)]))
    assert_model(r * s, {0: (1, 0)})
    f = s.pow_rational(HALF, 2)
    assert_model(f * f, model_combine([(f, f, 1)]))
    assert_model(f * f, pairs_of(s), (f * f).trunc)
    assert_model(s.pow_rational(2), model_combine([(s, s, 1)]))
    # exp: E' = u' E, u of positive order and known below a finite order
    u = unit_series(data, lo=1)
    u = u if u.trunc is not INF else u.with_trunc(4)
    E = u.exp()
    assert_model(E.derivative(), model_combine([(u.derivative(), E, 1)]), u.trunc - 1)
    assert_model(E.derivative(), model_combine([(E, -1, (0, 1), (1,))]))

    for t in (a, b, r, f, E):
        back = PuiseuxSeries.from_json(t.to_json())
        assert back == t and back.trunc == t.trunc
        assert pairs_of(back) == pairs_of(t)
