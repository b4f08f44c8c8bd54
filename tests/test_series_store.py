"""The cleared store of exact series, against a Fraction-keyed model.

A series whose coefficients are all Fractions and GaussianRationals is
stored as one denominator D > 0, int numerators keyed by 6e and the
nonzero imaginary numerators, with gcd(D, every numerator) = 1.  After
every exact operation that form must be the canonical one, and every
public reader must give what a plain model of the operation gives: a dict
exponent -> coefficient worked out with scalar Fraction and
GaussianRational arithmetic.  Values, types, key order, hashes, JSON and
printed forms all come from the model.  The float readers divide the
numerators by D, which rounds as float(Fraction) does.
"""

import math
from fractions import Fraction as Fr

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from exactwkb.coefficients import GaussianRational as G
from exactwkb.series import INF, ExponentTable, PuiseuxSeries, _combine, _principal_pow

SIXTH = Fr(1, 6)
HALF = Fr(1, 2)
RATS = st.builds(Fr, st.integers(-30, 30), st.integers(1, 12))
RINGS = {
    "fraction": RATS,
    "gaussian": st.builds(G, RATS, RATS.filter(bool)),
    "mixed": st.one_of(RATS, st.builds(G, RATS, RATS)),
}


def assert_cleared(s):
    """s's store is the canonical cleared form."""
    D, re, im = s._den, s._by6, s._im
    assert type(D) is int and D > 0
    assert all(type(a) is int for a in re.values())
    assert all(type(b) is int and b for b in im.values())
    assert list(re) == sorted(re) and im.keys() <= re.keys()
    assert all(a or k in im for k, a in re.items())        # no zero term
    assert math.gcd(D, *re.values(), *im.values()) == 1


# -- the model: (terms {exponent: coefficient}, trunc) -------------------------

def m_cut(terms, trunc):
    trunc = INF if trunc == INF else trunc
    return {e: c for e, c in sorted(terms.items()) if e < trunc and c != 0}, trunc


def m_add(x, *ys):
    out = dict(x[0])
    for y in ys:
        for e, c in y[0].items():
            out[e] = out[e] + c if e in out else c
    return m_cut(out, min([x[1], *(y[1] for y in ys)]))


def m_map(x, fn, shift=0):
    """c z^e -> fn(e, c) z^(e + shift), known below trunc + shift."""
    return m_cut({e + shift: fn(e, c) for e, c in x[0].items()}, x[1] + shift)


def m_mul(x, y):
    if any(not m[0] and m[1] == INF for m in (x, y)):
        return {}, INF
    lo = [min(m[0]) if m[0] else m[1] for m in (x, y)]
    out = {}
    for ea, ca in x[0].items():
        for eb, cb in y[0].items():
            out[ea + eb] = out[ea + eb] + ca * cb if ea + eb in out else ca * cb
    return m_cut(out, min(lo[0] + y[1], lo[1] + x[1]))


def m_weigh(x, shift, num, den):
    """_diag's map: c z^e -> c num(e)/den(e) z^(e + shift), num and den
    polynomials in e (ascending coefficients), den not 0 at any e of x."""
    def at(poly, e):
        return sum(a * e ** i for i, a in enumerate(poly))
    return m_map(m_cut({e: c for e, c in x[0].items() if at(num, e)}, x[1]),
                 lambda e, c: c * at(num, e) / at(den, e), shift)


def m_compose(f, g):
    """sum f_e g^e over the Taylor model f, each power by m_mul."""
    out = ({}, INF)
    for e, v in f[0].items():
        power = ({Fr(0): Fr(1)}, INF)
        for _ in range(int(e)):
            power = m_mul(power, g)
        out = m_add(out, m_map(power, lambda _, x: x * v))
    return out


def m_below(x, trunc):
    return {e: c for e, c in x[0].items() if e < trunc}


def read(s):
    return dict(s.coeffs), s.trunc


def bits(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def assert_reads(s, model):
    """s is cleared and each public reader gives the model's answer."""
    assert_cleared(s)
    terms, trunc = model
    items = sorted(terms.items())
    assert s.trunc == trunc and (s.trunc is INF) == (trunc is INF)
    assert [(e, type(c), c) for e, c in s.coeffs.items()] == [(e, type(c), c) for e, c in items]
    assert [(e, type(c), c) for e, c in s.terms()] == [(e, type(c), c) for e, c in items]
    for e, c in items:
        assert type(s.coeff(e)) is type(c) and s.coeff(e) == c
    absent = [e for e in (Fr(-7, 6), Fr(1, 12), Fr(25, 6)) if e not in terms and e < trunc]
    assert all(s.coeff(e) == 0 and type(s.coeff(e)) is Fr for e in absent)
    assert s.is_zero() == (not items) and bool(s) == bool(items)
    assert s.min_exp == (items[0][0] if items else 0 if trunc is INF else trunc)
    if items:
        assert s.leading() == items[0] and type(s.leading()[1]) is type(items[0][1])
    assert s.is_exact() and s.is_taylor() == all(e >= 0 and e.denominator == 1 for e in terms)
    # floats: the Fraction path's, bit for bit
    z, want = 0.7 - 0.4j, 0j
    for e, c in items:
        want += complex(c) * _principal_pow(z, e)
    assert bits(s.eval(z)) == bits(want)
    assert [(e, bits(c)) for e, c in s.to_float().terms()] == \
        [(e, bits(complex(c))) for e, c in items]
    # equality, hashing, mapping and the printed forms
    ref = PuiseuxSeries(terms, trunc, lattice=6)
    assert s == ref and hash(s) == hash(ref) and s.map_coefficients(lambda c: c) == s
    c = terms.get(0, Fr(0))     # a scalar equals only its exact constant
    assert (s == c) == (trunc is INF and not terms.keys() - {0})
    if s == c:
        assert hash(s) == hash(c)
    assert s.to_json_dict() == {
        "min_exp": str(s.min_exp), "trunc": "inf" if trunc is INF else str(trunc),
        "coeffs": [[str(e), [str(c), "0"] if type(c) is Fr else [str(c.re), str(c.im)]]
                   for e, c in items]}
    body = " + ".join(f"({c})z^{e}" if e else f"({c})" for e, c in items[:8]) or "0"
    body += " + ..." if len(items) > 8 else ""
    assert repr(s) == f"<PuiseuxSeries {body}{'' if trunc is INF else f' + O(z^{trunc})'}>"


def draw(data, coeff, lo=-6, hi=12, step=1, lead=None, trunc=True):
    """A series and its model: up to five terms at exponents k step/6,
    lo <= k <= hi (led by ``lead`` z^(lo step/6) if given), and a drawn
    truncation, on the grid, off it or none."""
    ks = data.draw(st.lists(st.integers(lo + (lead is not None), hi), max_size=5, unique=True))
    terms = {k * step * SIXTH: data.draw(coeff) for k in ks}
    if lead is not None:
        terms[lo * step * SIXTH] = lead
    T = data.draw(st.one_of(st.none(), st.integers(lo + 1, hi + 3).map(lambda t: t * step * SIXTH),
                            st.just(Fr(61, 7)))) if trunc else None
    T = INF if T is None else T
    return PuiseuxSeries(terms, T, lattice=6), m_cut(terms, T)


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=15)
@given(data=st.data())
def test_every_exact_result_is_cleared_and_reads_as_the_model(data, ring):
    coeff = RINGS[ring]
    (a, A), (b, B) = draw(data, coeff), draw(data, coeff)
    c = data.draw(coeff.filter(bool))
    assert_reads(a, A)
    assert_reads(a + b, m_add(A, B))
    assert_reads(a - b, m_add(A, m_map(B, lambda e, v: -v)))
    assert_reads(-a, m_map(A, lambda e, v: -v))
    assert_reads(a * c, m_map(A, lambda e, v: v * c))
    assert_reads(a * 3, m_map(A, lambda e, v: v * 3))
    assert_reads(a / c, m_map(A, lambda e, v: v / c))
    assert_reads(a.shift(Fr(-1, 3)), m_map(A, lambda e, v: v, Fr(-1, 3)))
    T = min(a.trunc, data.draw(st.integers(-6, 14)) * SIXTH)
    assert_reads(a.with_trunc(T), m_cut(A[0], T))
    assert_reads(a.derivative(), m_map(m_cut({e: v for e, v in A[0].items() if e}, A[1]),
                                       lambda e, v: v * e, -1))
    assert_reads(a * b, m_mul(A, B))
    # one _combine: a series, a weighted one, a product subtracted twice, a final map
    # 6e - 2 is 0 at e = 1/3; 1 + 12e is < 0 for e < 0 and 0 at no e on (1/6)Z
    w, final = (b, 1, (-2, 6), (3,)), (0, (1,), (1, 12))
    AB = m_mul(A, B)
    assert_reads(_combine([a, w, (a, b, -2)], final),
                 m_weigh(m_add(A, m_weigh(B, *w[1:]), m_map(AB, lambda e, v: -2 * v)), *final))

    # Miller's recurrence and the compositions, each against an identity in the model
    s, S = draw(data, coeff, lo=0, hi=8, step=3, lead=Fr(data.draw(st.sampled_from([1, 4, 9]))))
    r = s.inverse(order=2)
    assert_reads(r, read(r))
    assert m_below(m_mul(read(r), S), r.trunc) == {0: 1}
    f = s.pow_rational(HALF, order=2)
    assert_reads(f, read(f))
    assert m_below(m_mul(read(f), read(f)), f.trunc) == m_below(S, f.trunc)
    u, U = draw(data, coeff, lo=1, hi=8, step=3, trunc=False)
    u, U = u.with_trunc(3), m_cut(U[0], 3)
    E = u.exp()
    dE = m_map(m_cut({e: v for e, v in read(E)[0].items() if e}, E.trunc), lambda e, v: v * e, -1)
    dU = m_map(m_cut({e: v for e, v in U[0].items() if e}, U[1]), lambda e, v: v * e, -1)
    assert_reads(E, read(E))
    assert m_below(dE, u.trunc - 1) == m_below(m_mul(dU, read(E)), u.trunc - 1)
    (p, P), (g, Gm) = draw(data, coeff, 0, 4, 6, trunc=False), draw(data, coeff, 1, 4, 6)
    h = p.compose(g, order=4)
    assert_reads(h, read(h))
    assert m_below(read(h), h.trunc) == m_below(m_compose(P, Gm), h.trunc)
    q = draw(data, coeff, 2, 5, 6, trunc=False)[0] + PuiseuxSeries({1: c})
    inv = q.reversion(4)
    assert_reads(inv, read(inv))
    assert m_below(m_compose(read(q), read(inv)), inv.trunc) == {1: 1}


BIG = st.builds(lambda n, sign, d: Fr(sign * n, d), st.integers(2 ** 60 + 1, 2 ** 90),
                st.sampled_from([1, -1]), st.integers(2 ** 60 + 1, 2 ** 90))


@settings(max_examples=30)
@given(st.lists(st.one_of(BIG, st.builds(G, BIG, BIG), st.builds(G, st.just(0), BIG)),
                min_size=1, max_size=6))
def test_float_readers_round_as_the_fraction_path(values):
    """eval, to_float and the exponent table read a/D and b/D off
    the cleared form; with numerators and denominators past 2^60 (and one
    D for all terms) they give the floats of complex(Fraction) and
    complex(GaussianRational), bit for bit."""
    s = PuiseuxSeries(dict(enumerate(values)), lattice=1)
    path = [(e, complex(c)) for e, c in s.terms()]
    assert [(e, bits(c)) for e, c in s.to_float().terms()] == [(e, bits(c)) for e, c in path]
    for z in (0.3 + 0.2j, -1.7 + 0j):
        want = 0j
        for e, c in path:
            want += c * _principal_pow(z, e)
        assert bits(s.eval(z)) == bits(want)
    a_list = (s, s.shift(1), s * Fr(1, 3))
    table = ExponentTable(a_list)
    for a, row in zip(a_list, table.rows):
        assert [(table.exps[i], bits(c)) for c, i in row] == \
            [(e, bits(complex(c))) for e, c in a.terms()]
