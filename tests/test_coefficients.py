"""Property tests for GaussianRational against a pair-of-Fractions model.

GaussianRational keeps (a + b*i)/d as three ints in canonical form
(d > 0, gcd(a, b, d) = 1).  Every result must equal what plain complex
arithmetic on (re, im) Fraction pairs gives, be canonical, and agree with
Fraction on == and hash when its imaginary part is 0.
"""

from fractions import Fraction as Fr
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactwkb.coefficients import GaussianRational as G
from exactwkb.coefficients import clear, coeff_is_zero, uncleared
from exactwkb.polyring import QPoly

settings.register_profile("coefficients", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("coefficients")

RATS = st.fractions(min_value=-50, max_value=50, max_denominator=60)
GAUSS = st.builds(G, RATS, RATS)
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
    assert isinstance(g, G)
    assert g._d > 0
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
    assert_canonical(-x)
    assert pair(-x) == (-x.re, -x.im)
    assert pair(x.conjugate()) == (x.re, -x.im)
    assert_canonical(x.conjugate())


@given(GAUSS, SCALARS)
def test_int_and_fraction_operands_on_both_sides(x, q):
    check(x, q)
    check(q, x)


@given(RATS, RATS)
def test_constructor_is_canonical_and_reads_back(re, im):
    g = G(re, im)
    assert_canonical(g)
    assert (g.re, g.im) == (re, im)
    assert isinstance(g.re, Fr) and isinstance(g.im, Fr)
    assert G(str(re), str(im)) == g


@given(SCALARS)
def test_eq_and_hash_agree_with_fraction_at_im_zero(q):
    g = G(q)
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
    assert complex(g) == complex(float(g.re), float(g.im))


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
    assert repr(G(Fr(6, 4))) == "GaussianRational(3/2)"
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
    assert coeff_is_zero(G(0)) and not coeff_is_zero(G(0, 2))
    assert not coeff_is_zero(G(Fr(5, 2)))


@given(st.lists(st.one_of(GAUSS, RATS), max_size=8))
def test_clear_and_uncleared_invert_each_other(values):
    d, rows, gaussian = clear(values)
    assert d > 0 and gaussian == sum(isinstance(v, G) for v in values)
    back = [uncleared(a, b, d, g) for a, b, g in rows]
    assert [repr(v) for v in back] == [repr(v) for v in values]


def test_clear_refuses_other_rings():
    assert clear([Fr(1), 0.5]) is None and clear([1j]) is None
