"""Property tests for the series kernel and the reduction built on it:
truncation soundness and JSON.

Completion property: a series known below ``trunc`` stands for every
series that agrees with it there.  Adding arbitrary terms at exponents
>= ``trunc`` (and raising ``trunc`` past them) must leave every
coefficient an operation reports below its result's ``trunc``
unchanged; a coefficient that moves was claimed without being known.
An eps-series, whose coefficients are z-series, is completed in both
variables at once.  A zero known only below ``trunc`` is such a series
too, so an operation may not report it as the exact zero.
"""

from fractions import Fraction as Fr

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import math

import pytest

from exactwkb.coefficients import GaussianRational, coeff_is_zero
from exactwkb.errors import LogObstruction
from exactwkb.polyring import QPoly
from exactwkb.reduction import reduce_to_airy, schrodinger_pipeline
from exactwkb.series import (INF, PuiseuxSeries, TaylorSeries, _combine, _diag,
                             _log_free, _make)

settings.register_profile("series", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("series")

HALF = Fr(1, 2)
RATS = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
GAUSS = st.builds(GaussianRational, RATS, RATS)
EXACT = st.one_of(RATS, GAUSS)
FLOATS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


def draw_series(data, step, lo, hi, coeff=EXACT):
    """Up to five terms at exponents k*step, lo <= k <= hi, and a trunc on
    the same grid (or +inf); Taylor when step is 1."""
    ks = data.draw(st.lists(st.integers(lo, hi), max_size=5, unique=True))
    terms = {k * step: data.draw(coeff) for k in ks}
    t = data.draw(st.one_of(st.none(), st.integers(lo, hi + 2)))
    T = INF if t is None else t * step
    cls = TaylorSeries if step == 1 else PuiseuxSeries
    return cls(terms, T)


def complete(data, s, step, lead_one=False, avoid=()):
    """s plus random terms at trunc, trunc + step, trunc + 2 step, now known
    below trunc + 3 step (s itself when it is exact)."""
    if s.trunc is INF:
        return s
    extra = {}
    for j in range(3):
        e = s.trunc + j * step
        if e not in avoid:
            extra[e] = data.draw(EXACT)
    if lead_one and s.is_zero():
        extra[s.trunc] = Fr(1)
    return PuiseuxSeries({**s.coeffs, **extra}, s.trunc + 3 * step)


def assert_agrees(r, rc):
    """Coefficients of r and of its completed rerun rc agree wherever both
    claim to know them; series coefficients (of an eps-series) agree in
    the same sense."""
    cut = min(r.trunc, rc.trunc)
    for e in set(r.coeffs) | set(rc.coeffs):
        if e < cut:
            a, b = r.coeffs.get(e, 0), rc.coeffs.get(e, 0)
            if isinstance(a, PuiseuxSeries) or isinstance(b, PuiseuxSeries):
                # a scalar next to a series coefficient is a constant series
                assert_agrees(*(c if isinstance(c, PuiseuxSeries)
                                else PuiseuxSeries({0: c}) for c in (a, b)))
            else:
                assert a == b, (e, r, rc)


def unit_z(data):
    """z^m (1 + ...): a monomial, or truncated, so that every rational
    power of it is defined without an order."""
    m = data.draw(st.integers(-2, 2))
    t = data.draw(st.one_of(st.none(), st.integers(1, 6)))
    if t is None:
        return PuiseuxSeries({m: 1})
    ks = data.draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
    return PuiseuxSeries({m: 1, **{m + k * HALF: data.draw(EXACT) for k in ks}},
                         m + t * HALF)


def eps_series(data, unit=False, start=0, finite=False):
    """An eps-series: up to three z-series coefficients at eps^start ..
    eps^4 (some of them 0 + O(z^T)), a unit_z one at eps^0 with ``unit``,
    known below a drawn eps-order (or exact unless ``finite``)."""
    ns = data.draw(st.lists(st.integers(max(start, int(unit)), 4), max_size=3,
                            unique=True))
    cs = {n: puiseux(data) if data.draw(st.integers(0, 3))
          else PuiseuxSeries({}, data.draw(st.integers(-2, 4))) for n in ns}
    if unit:
        cs[0] = unit_z(data)
    t = data.draw(st.integers(start + 1, 5) if finite
                  else st.one_of(st.none(), st.integers(start + 1, 5)))
    return PuiseuxSeries(cs, INF if t is None else t, lattice=1)


def complete_eps(data, E):
    """E with each z-coefficient completed and, when its eps-truncation is
    finite, drawn z-series at eps^trunc .. eps^(trunc+2)."""
    cs = {n: complete(data, c, HALF) for n, c in E.coeffs.items()}
    if E.trunc is INF:
        return PuiseuxSeries(cs, lattice=1)
    for j in range(3):
        cs[E.trunc + j] = puiseux(data)
    return PuiseuxSeries(cs, E.trunc + 3, lattice=1)


def assert_zero(E):
    """Every retained eps-coefficient of E is zero on its retained z-orders."""
    assert all(c.is_zero() for c in E.coeffs.values()), E


def puiseux(data, **kw):
    return draw_series(data, HALF, -4, 6, **kw)


@given(st.data(), st.booleans())
def test_add_mul_complete(data, in_eps):
    if in_eps:
        a, b = eps_series(data), eps_series(data)
        ac, bc = complete_eps(data, a), complete_eps(data, b)
    else:
        a, b = puiseux(data), puiseux(data)
        ac, bc = complete(data, a, HALF), complete(data, b, HALF)
    assert_agrees(a + b, ac + bc)
    assert_agrees(a * b, ac * bc)


@given(st.data(), st.booleans())
def test_inverse_complete(data, in_eps):
    if in_eps:
        a = eps_series(data, unit=True)
        ac = complete_eps(data, a)
    else:
        a = puiseux(data)
        assume(not a.is_zero())
        ac = complete(data, a, HALF)
    assert_agrees(a.inverse(order=3), ac.inverse(order=3))


@given(st.data(), st.sampled_from([Fr(1, 2), Fr(-1, 2), Fr(1, 3), Fr(2, 3),
                                   Fr(-2, 3), Fr(3, 2), Fr(-1), Fr(2), Fr(3)]))
def test_pow_rational_complete(data, r):
    # an integer leading exponent m with coefficient 1 keeps m*r on the
    # 1/6 lattice and the leading root exact (any Gaussian one is
    # invertible, so r = -1 draws those too); later terms are on half
    # steps, and may all lie past order 4 or trunc
    m = data.draw(st.integers(-2, 3))
    if data.draw(st.booleans()):
        a = PuiseuxSeries({}, m)
        r = abs(r)
    else:
        lead = data.draw(GAUSS) if r == -1 else 1
        ks = data.draw(st.lists(st.integers(1, 6), max_size=4, unique=True))
        past = data.draw(st.sampled_from([0, 8]))
        t = data.draw(st.one_of(st.none(), st.integers(1, 8)))
        a = PuiseuxSeries({m: lead, **{m + (k + past) * HALF: data.draw(EXACT)
                                       for k in ks}},
                          INF if t is None else m + t * HALF)
    ac = complete(data, a, HALF, lead_one=True)
    assert_agrees(a.pow_rational(r, order=4), ac.pow_rational(r, order=4))


@given(st.data(), st.sampled_from(["sqrt_inverse", "exp"]))
def test_eps_power_and_exp_complete(data, op):
    if op == "exp":
        E = eps_series(data, start=1, finite=True)
        run = PuiseuxSeries.exp
    else:
        E = eps_series(data, unit=True)
        run = lambda s: s.pow_rational(Fr(-1, 2), order=3)  # noqa: E731
    assert_agrees(run(E), run(complete_eps(data, E)))


@given(st.data())
def test_eps_series_identities(data):
    E = eps_series(data, unit=True, finite=True)
    assert_zero(E * E.inverse() - 1)
    h = E.pow_rational(Fr(-1, 2))
    assert_zero(h * h * E - 1)
    a = eps_series(data, start=1, finite=True)
    b = eps_series(data, start=1, finite=True)
    assert_zero(a.exp() * b.exp() - (a + b).exp())
    # exp(a)' = a' exp(a) in eps, which the homomorphism alone does not pin
    assert_zero(a.exp().derivative() - a.derivative() * a.exp())


@given(st.data())
def test_compose_complete(data):
    f = draw_series(data, 1, 0, 5)
    g = draw_series(data, HALF, 2, 8)
    fc, gc = complete(data, f, 1), complete(data, g, HALF)
    assert_agrees(f.compose(g, order=6), fc.compose(gc, order=6))


@given(st.data())
def test_reversion_complete(data):
    f = TaylorSeries({1: data.draw(RATS)}) + draw_series(data, 1, 2, 5)
    fc = complete(data, f, 1)
    assert_agrees(f.reversion(6), fc.reversion(6))


def exactly(data, s, step):
    """s completed by drawn terms at and past its truncation, and then
    taken as exact: the completion that claims the most."""
    return PuiseuxSeries(complete(data, s, step).coeffs)


def assert_orders_agree(s, sc):
    assert len(s.s_coeffs) == len(sc.s_coeffs)
    for a, b in zip(s.s_coeffs, sc.s_coeffs):
        assert_agrees(a, b)


@given(st.data())
def test_reduce_to_airy_complete(data):
    # the odd s_k are exact zeros by eps-parity; an even right-hand side
    # that is zero only below z^T makes s_k = 0 + O(z^T), never exact
    F = draw_series(data, 1, 0, 3)
    N = data.draw(st.integers(2, 6))
    s = reduce_to_airy(F, N, 8)
    assert_orders_agree(s, reduce_to_airy(exactly(data, F, 1), N, 8))
    assert all(c == PuiseuxSeries.zero() for c in s.s_coeffs[1::2])


@settings(max_examples=30)
@given(st.data())
def test_schrodinger_pipeline_complete(data):
    V = TaylorSeries({1: 1}) + draw_series(data, 1, 2, 5)
    N = data.draw(st.integers(2, 4))
    assert_orders_agree(schrodinger_pipeline(V, N, 7)[1],
                        schrodinger_pipeline(exactly(data, V, 1), N, 7)[1])


def test_schrodinger_pipeline_keeps_a_truncated_zero():
    # s_4 of the exact V = q + q^5 is -(1523736/209209) z^3 + O(z^5), so
    # from V known below q^9 it is 0 + O(z^3), in z and in q alike
    s4 = schrodinger_pipeline(TaylorSeries({1: 1, 5: 1}), 4)[1].s_coeffs[4]
    assert s4 == PuiseuxSeries({3: Fr(-1523736, 209209)}, 5)
    F, s = schrodinger_pipeline(TaylorSeries({1: 1, 5: 1}, trunc=9), 4)
    assert s.s_coeffs[4] == PuiseuxSeries.zero(3)
    assert reduce_to_airy(F, 4, 8).s_coeffs[4] == PuiseuxSeries.zero(3)


def reversion_by_composition(f, order):
    """Reference reversion: compose f with the partial inverse g at every
    order m and read the correction to g_m off the z^m term."""
    trunc = min(Fr(int(order)), f.trunc)
    a1 = f.coeffs[Fr(1)]
    inv_a1 = Fr(1) / a1 if isinstance(a1, Fr) else 1 / a1
    g = {6: inv_a1}     # _make keys a term c z^m by the integer 6m
    for m in range(2, math.ceil(trunc)):
        comp = f._compose_plain(_make(g, Fr(m + 1)), Fr(m + 1))
        corr = -comp.coeffs.get(Fr(m), Fr(0)) * inv_a1
        if not coeff_is_zero(corr):
            g[6 * m] = corr
    return _make(g, trunc)


QPOLYS = st.builds(lambda a, b: QPoly.gen("v") * a + b, RATS, RATS)
COMPLEX = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("f, order", [
    (TaylorSeries({1: 1, 3: 1}), 10),                 # every g_2m absent
    (TaylorSeries({1: Fr(1, 2), 2: 1, 5: -3}, trunc=4), 9),
    (TaylorSeries({1: 2, 2: QPoly.gen("v")}), 7),
    (TaylorSeries({1: GaussianRational(1, 1), 4: 2}, trunc=8), 12),
])
def test_reversion_matches_composition_examples(f, order):
    g = f.reversion(order)
    want = reversion_by_composition(f, order)
    assert g == want and list(g.coeffs) == list(want.coeffs)
    assert g.trunc == min(order, f.trunc)
    assert (f._compose_plain(g, g.trunc) - TaylorSeries({1: 1})).is_zero()


@given(st.data())
def test_reversion_matches_composition(data):
    coeff = data.draw(st.sampled_from([RATS, GAUSS, QPOLYS, COMPLEX]))
    a1 = data.draw(COMPLEX.filter(lambda c: abs(c) > 0.5) if coeff is COMPLEX else RATS)
    f = TaylorSeries({1: a1}) + draw_series(data, 1, 2, 7, coeff)
    order = data.draw(st.integers(1, 9))
    g, want = f.reversion(order), reversion_by_composition(f, order)
    assert g.trunc == want.trunc
    comp = f._compose_plain(g, g.trunc) - TaylorSeries({1: 1})
    if coeff is COMPLEX:
        assert g.coeffs.keys() == want.coeffs.keys()
        for e, c in want.coeffs.items():
            assert abs(g.coeffs[e] - c) <= 1e-14 * abs(c)
        size = (1 + max(map(abs, f.coeffs.values()))) * (
            1 + max(map(abs, g.coeffs.values()), default=0)) ** order
        assert all(abs(c) <= 1e-14 * size for c in comp.coeffs.values())
    else:
        assert g == want and list(g.coeffs) == list(want.coeffs)
        assert comp.is_zero()


@given(st.data())
def test_calculus_complete(data):
    a = puiseux(data)
    a = PuiseuxSeries({e: c for e, c in a.coeffs.items() if e != -1}, a.trunc)
    ac = complete(data, a, HALF, avoid=(Fr(-1),))
    assert_agrees(a.derivative(), ac.derivative())
    assert_agrees(a.antiderivative(), ac.antiderivative())


@given(st.data(), st.sampled_from(["fraction", "gaussian", "float"]))
def test_json_roundtrip(data, ring):
    coeff = {"fraction": RATS, "gaussian": GAUSS,
             "float": st.one_of(FLOATS, st.builds(complex, FLOATS, FLOATS))}[ring]
    a = puiseux(data, coeff=coeff)
    b = PuiseuxSeries.from_json(a.to_json())
    assert b == a
    assert b.to_json() == a.to_json()


SIXTH = Fr(1, 6)
# finite truncations on the 1/6 grid and off it
TRUNCS = st.one_of(st.none(), st.integers(-6, 24).map(lambda k: k * SIXTH),
                   st.sampled_from([Fr(7, 5), Fr(-3, 7), Fr(13, 4), Fr(1, 10)]))
COEFFS = {"exact": EXACT,
          "float": st.one_of(FLOATS, st.builds(complex, FLOATS, FLOATS))}


def sixths_series(data, coeff):
    """Up to six terms on (1/6)Z, from -5/6 up, and a drawn truncation."""
    ks = data.draw(st.lists(st.integers(-5, 14), max_size=6, unique=True))
    t = data.draw(TRUNCS)
    return PuiseuxSeries({k * SIXTH: data.draw(coeff) for k in ks},
                         INF if t is None else t, lattice=6)


def naive_product(a, b):
    """(items, trunc) of a*b by a Fraction-keyed convolution, each key
    summed in the order of the double loop over a's then b's terms, exact
    zeros dropped, sorted by exponent; the exact zero (no terms, no
    truncation) times anything is the exact zero."""
    if any(not s.coeffs and s.trunc == INF for s in (a, b)):
        return [], INF
    trunc = min(a.min_exp + b.trunc, b.min_exp + a.trunc)
    data = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = ea + eb
            if e < trunc:
                data[e] = data[e] + ca * cb if e in data else ca * cb
    return [(e, c) for e, c in sorted(data.items()) if c != 0], trunc


@given(st.data(), st.sampled_from(sorted(COEFFS)))
def test_product_matches_the_fraction_keyed_convolution(data, ring):
    a, b = sixths_series(data, COEFFS[ring]), sixths_series(data, COEFFS[ring])
    items, trunc = naive_product(a, b)
    p = a * b
    assert p.trunc == trunc
    # same keys in increasing exponent, and bit-identical float coefficients
    assert [(e, repr(c)) for e, c in p.coeffs.items()] == \
        [(e, repr(c)) for e, c in items]
    assert all(isinstance(e, Fr) for e in p.coeffs)


# numerators and denominators large enough that clearing them matters
LONG_RATS = st.builds(Fr, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 97))
# Gaussians, a zero imaginary part among them, and Fractions in one series
MIXED = st.one_of(LONG_RATS, st.builds(GaussianRational, LONG_RATS, LONG_RATS),
                  st.builds(GaussianRational, LONG_RATS))
LONG_COEFFS = {"fraction": LONG_RATS, "mixed": MIXED}


def long_series(data, coeff):
    """Up to 40 terms on (1/6)Z, from -2 up, and a drawn truncation."""
    ks = data.draw(st.lists(st.integers(-12, 60), max_size=40, unique=True))
    t = data.draw(st.one_of(st.none(), st.integers(-12, 66), st.just(Fr(61, 7))))
    return PuiseuxSeries({k * SIXTH: data.draw(coeff) for k in ks},
                         INF if t is None else t * SIXTH, lattice=6)


@given(st.data(), st.sampled_from(sorted(LONG_COEFFS)))
def test_long_and_mixed_products_match_the_fraction_keyed_convolution(data, ring):
    a, b = (long_series(data, LONG_COEFFS[ring]) for _ in range(2))
    items, trunc = naive_product(a, b)
    p = a * b
    assert p.trunc == trunc
    # same keys in increasing exponent, the same values and the same types: a
    # coefficient is Gaussian iff some pair that feeds it has a Gaussian
    assert [(e, repr(c)) for e, c in p.coeffs.items()] == \
        [(e, repr(c)) for e, c in items]


def test_a_gaussian_with_zero_imaginary_part_keeps_its_products_gaussian():
    real = GaussianRational(Fr(2, 3))
    a = PuiseuxSeries({0: Fr(1, 3), 1: real})
    b = PuiseuxSeries({0: Fr(3, 5), 2: GaussianRational(1, 1)})
    p = a * b
    assert [(e, repr(c)) for e, c in p.coeffs.items()] == [
        (0, "Fraction(1, 5)"), (1, "GaussianRational(2/5)"),
        (2, "GaussianRational(1/3, 1/3)"), (3, "GaussianRational(2/3, 2/3)")]
    # a cancellation to 0 drops the term, whatever its type
    assert (a * PuiseuxSeries({0: 1, 1: -real / Fr(1, 3)})).coeffs == {
        0: Fr(1, 3), 2: GaussianRational(Fr(-4, 3))}


@given(st.data())
def test_eps_products_match_the_fraction_keyed_convolution(data):
    """Series-valued coefficients take the coefficientwise product; the z-
    products inside it are cleared ones."""
    a, b = eps_series(data), eps_series(data)
    items, trunc = naive_product(a, b)
    p = a * b
    assert p.trunc == trunc
    assert [(e, repr(c)) for e, c in p.coeffs.items()] == \
        [(e, repr(c)) for e, c in items]
    assert list(p.coeffs.values()) == [c for _, c in items]


def test_product_on_thirds_and_an_off_grid_truncation():
    a = PuiseuxSeries({Fr(-5, 6): 2, Fr(1, 3): Fr(1, 7), 1: 3}, Fr(7, 5), lattice=6)
    b = PuiseuxSeries({Fr(1, 2): 5, Fr(2, 3): -1}, lattice=6)
    # trunc = min(-5/6 + inf, 1/2 + 7/5) = 19/10
    assert a * b == PuiseuxSeries(
        {Fr(-1, 3): 10, Fr(-1, 6): -2, Fr(5, 6): Fr(5, 7), 1: Fr(-1, 7),
         Fr(3, 2): 15, Fr(5, 3): -3}, Fr(19, 10), lattice=6)


@given(st.data(), st.sampled_from(["exact", "float"]))
def test_json_roundtrip_on_the_kernel_lattice(data, ring):
    a = sixths_series(data, COEFFS[ring])
    b = PuiseuxSeries.from_json(a.to_json())
    assert b == a
    assert b.to_json() == a.to_json()


# complex coefficients, none so small that a weight of about 1/20 underflows
TINY_FREE = st.floats(-4, 4).filter(lambda x: x == 0 or abs(x) > 1e-300)
DIAG_RINGS = {"fraction": RATS, "gaussian": GAUSS, "qpoly": QPOLYS,
              "complex": st.builds(complex, TINY_FREE, TINY_FREE)}


def termwise(s, fn, shift):
    """{e + shift: fn(e, c)} over the terms of s with a nonzero result, in
    s's key order."""
    out = [(e + shift, fn(e, c)) for e, c in s.coeffs.items()]
    return [(e, c) for e, c in out if not coeff_is_zero(c)]


@given(st.data(), st.sampled_from(sorted(DIAG_RINGS)))
def test_calculus_and_rational_multiples_are_termwise(data, ring):
    # exponents on both sides of -1, where the antiderivative's weight
    # 1/(e + 1) changes sign
    ks = data.draw(st.lists(st.integers(-18, 18), max_size=6, unique=True))
    t = data.draw(TRUNCS)
    s = PuiseuxSeries({k * SIXTH: data.draw(DIAG_RINGS[ring]) for k in ks},
                      INF if t is None else t, lattice=6)
    q = data.draw(st.one_of(RATS, st.integers(-5, 5).filter(bool)))
    T = s.trunc
    cases = [(s.derivative(), termwise(s, lambda e, c: c * e if e else 0, -1),
              T - 1, True)]
    cases += [(m, termwise(s, lambda e, c: c * q, 0), T, True) for m in (s * q, q * s)]
    if Fr(-1) not in s.coeffs:
        cases.append((s.antiderivative(),
                      termwise(s, lambda e, c: c / (e + 1), 1), T + 1, False))
    for got, want, trunc, bitwise in cases:
        assert got.trunc == trunc
        assert list(got.coeffs) == [e for e, _ in want]
        if ring != "complex" or bitwise:
            # exact rings, and float derivatives and multiples, bit for bit
            assert [repr(c) for c in got.coeffs.values()] == [repr(c) for _, c in want]
        else:
            for (_, w), g in zip(want, got.coeffs.values()):
                assert abs(g - w) <= 1e-15 * abs(w)


QPOLY_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), RATS,
                              max_size=6).map(
    lambda d: QPoly({(("v2", a), ("v3", b)): c for (a, b), c in d.items()}))


@given(QPOLY_TERMS, st.one_of(RATS, st.integers(-5, 5)))
def test_qpoly_times_a_scalar_is_the_product_with_its_constant(q, c):
    # the scalar path keeps the monomials, their order and Fraction values
    want = list((q * QPoly(c)).terms.items())
    for got in (q * c, c * q):
        assert list(got.terms.items()) == want
        assert all(type(v) is Fr for v in got.terms.values())


# -- one integer pass per recursion step: _combine against its chain ---------

COMBINE_RINGS = {"fraction": RATS, "gaussian": EXACT,
                 "float": st.one_of(RATS, COMPLEX)}


def small_series(data, coeff):
    """Up to four terms at 6e = -2..4, so that the terms of a sum overlap;
    in the Gaussian ring all Fractions, all Gaussians or mixed."""
    if coeff is EXACT:
        coeff = data.draw(st.sampled_from([RATS, GAUSS, EXACT]))
    ks = data.draw(st.lists(st.integers(-2, 4), max_size=4, unique=True))
    t = data.draw(st.one_of(st.none(), st.none(), st.integers(0, 12)))
    return PuiseuxSeries({k * SIXTH: data.draw(coeff) for k in ks},
                         INF if t is None else t * SIXTH, lattice=6)


def draw_weight(data):
    """(num, den) of a diagonal map: a*k + b over a constant or a varying
    positive den; num is 0 at some keys, which the map drops."""
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-6, 6))
    c = data.draw(st.integers(1, 4))
    den = (lambda k: c + abs(k)) if data.draw(st.booleans()) else (lambda k: c)
    return (lambda k: a * k + b), den


def undo(t):
    """The term that cancels t."""
    if isinstance(t, PuiseuxSeries):
        return (t, 0, lambda k: -1, lambda k: 1)
    if len(t) == 4:
        return (t[0], t[1], lambda k, num=t[2]: -num(k), t[3])
    return (t[0], t[1], -t[2])


def draw_terms(data, coeff):
    """Up to five terms and the terms that cancel some of them, each then
    perhaps followed by Fractions at the cancelled keys (a Gaussian key
    comes back a Fraction)."""
    terms = []
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(["series", "diag", "pair", "undo", "undo"]))
        if kind == "undo" and terms:
            t = data.draw(st.sampled_from(terms))
            terms.append(undo(t))
            if data.draw(st.booleans()):
                keys = combine_by_chain([t]).coeffs
                terms.append(PuiseuxSeries({e: data.draw(RATS) for e in keys}, lattice=6))
        elif kind == "diag":
            terms.append((small_series(data, coeff), data.draw(st.sampled_from([-3, 0, 3])),
                          *draw_weight(data)))
        elif kind == "pair":
            terms.append((small_series(data, coeff), small_series(data, coeff),
                          data.draw(st.sampled_from([1, -1, 2, -3]))))
        else:
            terms.append(small_series(data, coeff))
    return terms


def product_by_loop(x, y):
    """x y by the plain double loop over the coefficients (no clearing),
    each key's products added in turn, as the constructor sums a
    repeated exponent; known below a_known err_b + err_a b_known."""
    if not x.coeffs and x.trunc is INF or not y.coeffs and y.trunc is INF:
        return PuiseuxSeries({})      # the exact zero absorbs
    trunc = min(INF if y.trunc is INF else x.min_exp + y.trunc,
                INF if x.trunc is INF else y.min_exp + x.trunc)
    return PuiseuxSeries([(a + b, ca * cb) for a, ca in x.coeffs.items()
                          for b, cb in y.coeffs.items()], trunc, lattice=6)


def combine_by_chain(terms, final=None, log=None):
    """The terms by the operators, one + or - at a time: _diag for a
    quadruple, the double loop for a product, a negative weight
    subtracting."""
    acc = None
    for t in terms:
        if isinstance(t, PuiseuxSeries):
            acc = t if acc is None else acc + t
            continue
        if len(t) == 4:
            v, w = _diag(*t), 1
        else:
            v, w = product_by_loop(t[0], t[1]), t[2]
            v = v if abs(w) == 1 else v * abs(w)
        acc = (v if w > 0 else -v) if acc is None else acc + v if w > 0 else acc - v
    if log is not None:
        _log_free(acc._by6, log)
    return acc if final is None else _diag(acc, *final)


def outcome(fn, *args):
    try:
        r = fn(*args)
    except LogObstruction:
        return "log"
    return r.trunc, [(e, repr(c)) for e, c in r.coeffs.items()]


@pytest.mark.parametrize("ring", sorted(COMBINE_RINGS))
@settings(max_examples=150)
@given(data=st.data())
def test_combine_matches_the_chain_of_operators(data, ring):
    # values, truncation, Gaussian or Fraction, and float bits
    terms = draw_terms(data, COMBINE_RINGS[ring])
    final = None
    if data.draw(st.booleans()):
        final = (data.draw(st.sampled_from([-9, -3, 0, 6])), *draw_weight(data))
    log = data.draw(st.one_of(st.none(), st.integers(-9, 12)))
    assert outcome(_combine, terms, final, log) == outcome(combine_by_chain, terms, final, log)


def test_a_gaussian_key_that_cancels_comes_back_as_a_fraction():
    g = PuiseuxSeries({1: GaussianRational(1, 2), 2: GaussianRational(3)})
    f = PuiseuxSeries({2: Fr(1, 5), 1: Fr(3)})
    out = _combine([g, undo(g), f])
    assert [(e, repr(c)) for e, c in out.coeffs.items()] == [
        (1, "Fraction(3, 1)"), (2, "Fraction(1, 5)")]
    # kept alive, a key stays Gaussian; a product cancels as a sum does
    out = _combine([g, f, (g, f, 1), (f, g, -1)])
    assert [(e, repr(c)) for e, c in out.coeffs.items()] == [
        (1, "GaussianRational(4, 2)"), (2, "GaussianRational(16/5)")]
    # a product's own zero sum adds nothing: no term and no Gaussian flag
    x, y = PuiseuxSeries({0: 1, 1: 1}), PuiseuxSeries({0: 1, 1: -1})
    assert list(_combine([(x, y, 1)]).coeffs) == [0, 2]
    assert list(_combine([(x, y, 1), PuiseuxSeries({1: 5})]).coeffs) == [0, 1, 2]
    x, y = PuiseuxSeries({0: GaussianRational(1, 1), 1: GaussianRational(1, 1)}), \
        PuiseuxSeries({1: 1, 0: -1})
    out = _combine([PuiseuxSeries({1: Fr(2)}), (x, y, 1)])
    assert [(e, repr(c)) for e, c in out.coeffs.items()] == [
        (0, "GaussianRational(-1, -1)"), (1, "Fraction(2, 1)"), (2, "GaussianRational(1, 1)")]


# -- one term order: every result stores its terms in increasing exponent ---

ORDER_RINGS = {"fraction": RATS, "gaussian": GAUSS, "complex": COMPLEX, "qpoly": QPOLYS}


def shuffled_series(data, coeff, ks, trunc=None):
    """Terms at the exponents k/6, k in ks, handed to the constructor in a
    drawn order, known below ``trunc`` (exact if None)."""
    items = data.draw(st.permutations([(k * SIXTH, data.draw(coeff)) for k in ks]))
    return PuiseuxSeries(items, INF if trunc is None else trunc, lattice=6)


def assert_in_exponent_order(s):
    """s's keys strictly increase and terms() lists coeffs' items, in s and
    in each of its series coefficients."""
    keys = list(s._by6)
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    assert s.terms() == list(s.coeffs.items())
    for c in s._by6.values():
        if isinstance(c, PuiseuxSeries):
            assert_in_exponent_order(c)


@pytest.mark.parametrize("ring", sorted(ORDER_RINGS))
@given(data=st.data())
def test_every_operation_stores_its_terms_in_increasing_exponent(data, ring):
    coeff = ORDER_RINGS[ring]

    def draw(lo, hi, scale=1, trunc=None):
        ks = data.draw(st.lists(st.integers(lo, hi), max_size=5, unique=True))
        return shuffled_series(data, coeff, [scale * k for k in ks], trunc)

    # no z^-1 term (6e = -6), so the antiderivative is defined
    s, t = draw(-5, 14, trunc=data.draw(TRUNCS)), draw(-5, 14, trunc=data.draw(TRUNCS))
    v = draw(1, 14, trunc=Fr(3))            # positive order, known below z^3
    outer, inner = draw(0, 4, 6), draw(1, 4, 6)
    f = PuiseuxSeries({1: 1}) + draw(2, 5, 6)
    E = PuiseuxSeries(data.draw(st.permutations([(0, s), (1, t), (2, v)])), lattice=1)
    results = [
        s, t, s + t, s - t, s * t, s * data.draw(coeff), s / data.draw(RATS),
        s.derivative(), s.antiderivative(), s.shift(Fr(-1, 3)),
        s.with_trunc(min(s.trunc, Fr(1))), (1 + v).pow_rational(HALF, order=2),
        (1 + v).pow_rational(3), (1 + v).inverse(order=2), v.exp(),
        outer.compose(inner, order=3), f.reversion(4), E, E * E,
        _combine([s, (t, 6, lambda k: k - 2, lambda k: 3), (s, t, -2)])]
    for r in results:
        assert_in_exponent_order(r)


QPOLY_MIXED = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), RATS,
    max_size=5).map(lambda d: QPoly({(("w", c), ("v3", b), ("v2", a)): q
                                     for (a, b, c), q in d.items()}))


def qpoly_by_init(p, q, op):
    """p + q or p * q as QPoly.__init__ normalises the plain dict sum or
    the double loop's products."""
    data: dict = {}
    if op == "add":
        data.update(p.terms)
        for m, c in q.terms.items():
            data[m] = data.get(m, Fr(0)) + c
        return QPoly(data)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = dict(m1)
            for n, e in m2:
                mono[n] = mono.get(n, 0) + e
            key = tuple(sorted(mono.items()))
            data[key] = data.get(key, Fr(0)) + c1 * c2
    return QPoly(data)


@given(QPOLY_MIXED, QPOLY_MIXED)
def test_qpoly_sums_and_products_are_in_normal_form(p, q):
    # the trusted results: the values, the monomial order and Fractions
    cases = [(p + q, qpoly_by_init(p, q, "add")), (p * q, qpoly_by_init(p, q, "mul")),
             (q * p, qpoly_by_init(q, p, "mul")), (-p, QPoly({m: -c for m, c in p.terms.items()})),
             (p - q, qpoly_by_init(p, QPoly({m: -c for m, c in q.terms.items()}), "add"))]
    for got, want in cases:
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fr and c for c in got.terms.values())
    assert p - p == 0 and not (p - p).terms


@given(st.one_of(RATS, st.just(Fr(0))))
def test_a_constant_qpoly_hashes_like_its_scalar(c):
    assert QPoly(c) == c and hash(QPoly(c)) == hash(c)
    assert len({QPoly(c), c}) == 1
    # so an eps-series with a QPoly constant keeps the series hash rule
    s = PuiseuxSeries({0: QPoly(c)})
    assert s == c and hash(s) == hash(c)
