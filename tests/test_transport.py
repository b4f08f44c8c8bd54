"""Transport recursion, Riccati expansion, gradings and cross-consistency."""

import random
from fractions import Fraction as Fr

import pytest

from exactwkb.airy import airy_symbol
from exactwkb.coefficients import GaussianRational
from exactwkb.errors import SeriesError
from exactwkb.series import PuiseuxSeries, TaylorSeries
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
