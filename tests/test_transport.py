"""Transport recursion, Riccati expansion, gradings and cross-consistency."""

import random
from fractions import Fraction as Fr

import pytest

from exactwkb import transport
from exactwkb.airy import airy_symbol
from exactwkb.coefficients import GaussianRational
from exactwkb.errors import LogObstruction, SeriesError
from exactwkb.series import INF, EpsSeries, PuiseuxSeries, TaylorSeries
from exactwkb.symbols import WKBSymbol
from exactwkb.transport import (grading_ok, riccati_grading_ok, riccati_p,
                                symbol_consistency, transport_g, wkb_residual)

F0 = TaylorSeries({})


def test_transport_reproduces_airy_closed_form():
    sym = transport_g(F0, 12)
    ref = airy_symbol(12)
    for a, b in zip(sym.eps_coeffs, ref.eps_coeffs):
        assert (a - b).is_zero()


def test_g0_is_one_for_any_F():
    F = TaylorSeries({0: Fr(5, 2), 3: -2})
    assert transport_g(F, 0).eps_coeffs[0] == PuiseuxSeries({0: 1})


def test_g1_constant_potential():
    c = Fr(3, 7)
    g1 = transport_g(TaylorSeries({0: c}), 1).eps_coeffs[1]
    assert g1 == PuiseuxSeries({Fr(-3, 2): Fr(-5, 48), Fr(1, 2): -c})


def riccati_by_full_sum(F, N):
    """p_0, ..., p_N with sum_{j=1..n} p_j p_{n+1-j} formed term by term."""
    inv_2p0 = PuiseuxSeries.monomial(Fr(1, 2), Fr(-1, 2))
    ps = [PuiseuxSeries.monomial(1, Fr(1, 2)), PuiseuxSeries.monomial(Fr(1, 4), -1)]
    for n in range(1, N):
        rhs = ps[n].derivative()
        for j in range(1, n + 1):
            rhs = rhs - ps[j] * ps[n + 1 - j]
        if n == 1:
            rhs = rhs + F
        ps.append(rhs * inv_2p0)
    return ps[:N + 1]


@pytest.mark.parametrize("F", [
    TaylorSeries({0: Fr(1, 3), 1: Fr(-2, 7), 2: Fr(5, 4)}),
    TaylorSeries({0: GaussianRational(Fr(1, 2), -1), 2: GaussianRational(0, Fr(3, 5))},
                 trunc=4),
], ids=["fraction", "gaussian"])
def test_halved_riccati_products_match_the_full_sum(F):
    want = riccati_by_full_sum(F, 12)
    for N in range(13):
        got = riccati_p(F, N).p_coeffs
        assert len(got) == N + 1
        for n, p in enumerate(got):
            assert p == want[n] and p.trunc == want[n].trunc, (N, n)
            assert list(p.coeffs.items()) == list(want[n].coeffs.items()), (N, n)


def test_riccati_seeds_and_p2():
    c = Fr(2, 5)
    ric = riccati_p(TaylorSeries({0: c}), 2)
    assert ric.p_coeffs[0] == PuiseuxSeries({Fr(1, 2): 1})
    assert ric.p_coeffs[1] == PuiseuxSeries({-1: Fr(1, 4)})
    assert ric.p_coeffs[2] == PuiseuxSeries({Fr(-5, 2): Fr(-5, 32),
                                             Fr(-1, 2): c / 2})


def test_riccati_p2_free_case():
    ric = riccati_p(F0, 2)
    assert ric.p_coeffs[2] == PuiseuxSeries({Fr(-5, 2): Fr(-5, 32)})


@pytest.mark.parametrize("coeffs", [{}, {0: Fr(1, 3)}, {0: Fr(-2, 9), 1: Fr(1, 2)},
                                    {1: 1, 2: Fr(4, 11), 3: -1}])
def test_gradings(coeffs):
    F = TaylorSeries(coeffs)
    assert grading_ok(transport_g(F, 8))
    assert riccati_grading_ok(riccati_p(F, 8))


def test_wkb_residual_is_zero_series():
    rng = random.Random(5)
    F = TaylorSeries({k: Fr(rng.randint(-6, 6), rng.randint(1, 4))
                      for k in range(4)})
    sym = transport_g(F, 7)
    assert all(r.is_zero() for r in wkb_residual(sym, F))


def test_eps_parity_gives_second_basis_element():
    F = TaylorSeries({0: Fr(1, 4)})
    sym = transport_g(F, 5)
    other = sym.flip_eps()
    assert other.sign == -1
    for n in range(6):
        expect = sym.eps_coeffs[n] if n % 2 == 0 else -sym.eps_coeffs[n]
        assert (other.eps_coeffs[n] - expect).is_zero()
    # involution
    back = other.flip_eps()
    assert all((a - b).is_zero()
               for a, b in zip(back.eps_coeffs, sym.eps_coeffs))


def test_symbol_consistency_exact_zero():
    assert symbol_consistency(F0, 6)["expansion_residual"] == 0
    rep = symbol_consistency(TaylorSeries({0: Fr(1, 2)}), 4)
    assert rep["odd_even_residual"] == 0
    assert rep["expansion_residual"] == 0
    assert rep["C"][0] == 1


def test_symbol_consistency_degenerate_order():
    rep = symbol_consistency(F0, 0)
    assert rep["orders"] == 0 and rep["odd_even_residual"] is None


def test_requires_taylor_potential():
    with pytest.raises(SeriesError):
        transport_g(PuiseuxSeries({Fr(-1, 2): 1}), 2)


# -- the folded recursions against the operator chains they replace ----------

def transport_by_chain(F, N):
    """g_0, ..., g_N by the transport recursion written as a chain of series
    operations: derivatives, monomial products, sums, one antiderivative."""
    z2 = PuiseuxSeries.monomial(1, 2)
    den = PuiseuxSeries.monomial(Fr(1, 32), Fr(-5, 2))
    gs = [PuiseuxSeries.one()]
    for n in range(N):
        g = gs[n]
        rhs = z2 * g.derivative().derivative() * 16 \
            - PuiseuxSeries.monomial(8, 1) * g.derivative() \
            - (z2 * F * 16 - 5) * g
        gs.append((rhs * den).antiderivative())
    return gs


def wkb_residual_by_chain(gs, F):
    """The eps-coefficients of eps [W'' - W'/(2z) + (5/16) z^-2 W - F W]
    - 2 z^{1/2} W' for W = sum g_n eps^n, one series operation at a time."""
    half_z = PuiseuxSeries.monomial(Fr(1, 2), -1)
    five_z2 = PuiseuxSeries.monomial(Fr(5, 16), -2)
    two_sqrt = PuiseuxSeries.monomial(2, Fr(1, 2))

    def bracket(g):
        dg = g.derivative()
        return dg.derivative() - dg * half_z + g * five_z2 - g * F

    W = EpsSeries(tuple(gs)).series()
    resid = W.map_coefficients(bracket).shift(1) \
        - W.map_coefficients(lambda g: g.derivative() * two_sqrt)
    return list(EpsSeries.of(resid).coeffs)


def _coeff(rng, gaussian):
    q = Fr(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    if gaussian and rng.random() < 0.7:
        return GaussianRational(q, Fr(rng.randint(-9, 9), rng.randint(1, 9)))
    return q


def random_series(rng, gaussian, exps, trunc=INF):
    """Terms at a random subset of ``exps`` given in random order (stored
    in exponent order), known below ``trunc``."""
    exps = rng.sample(exps, rng.randint(0, len(exps)))
    return PuiseuxSeries({e: _coeff(rng, gaussian) for e in exps}, trunc)


def random_F(rng, gaussian):
    return random_series(rng, gaussian, list(range(5)),
                         rng.choice([INF, INF, rng.randint(1, 6)]))


def assert_same_series(got, want):
    """Equal values and truncations, terms in exponent order."""
    assert got.trunc == want.trunc, (got, want)
    assert list(got.coeffs.items()) == list(want.coeffs.items()), (got, want)


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("seed", range(12))
def test_folded_transport_matches_the_operator_chain(seed, gaussian):
    rng = random.Random(seed)
    F, N = random_F(rng, gaussian), rng.randint(0, 12)
    got, want = transport_g(F, N).eps_coeffs, transport_by_chain(F, N)
    assert len(got) == N + 1
    for g, w in zip(got, want):
        assert_same_series(g, w)


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("seed", range(12))
def test_folded_wkb_residual_matches_the_operator_chain(seed, gaussian):
    # a symbol of another F, and one of random orders on the half-integer
    # lattice (z^0 and z^{3/2}, whose terms the fold moves, among them)
    rng = random.Random(100 + seed)
    F, N = random_F(rng, gaussian), rng.randint(0, 12)
    other = transport_g(random_F(rng, gaussian), N).eps_coeffs
    exps = [Fr(k, 2) for k in range(-8, 9)]
    noise = tuple(random_series(rng, gaussian, exps,
                                rng.choice([INF, Fr(rng.randint(-2, 12), 2)]))
                  for _ in range(N + 1))
    for gs in (other, noise):
        got = wkb_residual(WKBSymbol.from_g(gs), F)
        want = wkb_residual_by_chain(gs, F)
        assert len(got) == len(want) == N + 1
        for r, w in zip(got, want):
            assert_same_series(r, w)


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


def riccati_by_chain(F, N):
    """p_0, ..., p_N by the operators riccati_p ran before its one pass:
    p_n' less each pair product doubled and the square, F at n = 1, all
    times 1/(2 z^{1/2}); products by the plain double loop."""
    inv_2p0 = PuiseuxSeries.monomial(Fr(1, 2), Fr(-1, 2))
    ps = [PuiseuxSeries.monomial(1, Fr(1, 2)), PuiseuxSeries.monomial(Fr(1, 4), -1)]
    for n in range(1, N):
        rhs = ps[n].derivative()
        for j in range(1, n // 2 + 1):
            rhs = rhs - product_by_loop(ps[j], ps[n + 1 - j]) * 2
        if n % 2:
            rhs = rhs - product_by_loop(ps[(n + 1) // 2], ps[(n + 1) // 2])
        if n == 1:
            rhs = rhs + F
        ps.append(product_by_loop(rhs, inv_2p0))
    return ps[:N + 1]


@pytest.mark.parametrize("ring", ["fraction", "gaussian", "float"])
@pytest.mark.parametrize("seed", range(12))
def test_riccati_matches_the_operator_chain(seed, ring):
    # exact rings in one integer pass, floats by the same operators, bit for bit
    rng = random.Random(400 + seed)
    F, N = random_F(rng, ring == "gaussian"), rng.randint(0, 12)
    F = F.to_float() if ring == "float" else F
    got, want = riccati_p(F, N).p_coeffs, riccati_by_chain(F, N)
    assert len(got) == len(want) == N + 1
    for p, w in zip(got, want):
        assert p.trunc == w.trunc
        assert [(e, repr(c)) for e, c in p.coeffs.items()] == \
            [(e, repr(c)) for e, c in w.coeffs.items()]


def test_transport_step_refuses_a_log_term(monkeypatch):
    # a holomorphic F never leaves a z^-1 term (b_9 = 0); past the Taylor
    # guard, F = z^{-1/2} makes 16 z^2 F g_0 one
    monkeypatch.setattr(transport, "require_taylor", lambda s, name: s)
    with pytest.raises(LogObstruction, match="transport step n=1"):
        transport_g(PuiseuxSeries({Fr(-1, 2): 1}), 2)


def test_float_transport_matches_the_exact_one():
    rng = random.Random(7)
    for gaussian in (False, True):
        F = TaylorSeries({k: _coeff(rng, gaussian) for k in range(4)})
        exact = transport_g(F, 12).eps_coeffs
        floats = transport_g(F.to_float(), 12).eps_coeffs
        for g, w in zip(floats, exact):
            w = w.to_float()
            assert g.trunc == w.trunc and list(g.coeffs) == list(w.coeffs)
            for e, c in w.coeffs.items():
                assert abs(g.coeffs[e] - c) <= 1e-12 * abs(c), (e, g.coeffs[e], c)
