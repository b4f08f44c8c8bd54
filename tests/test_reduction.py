"""Liouville transform, induced potential, reduction to the Airy model,
and the Airy-basis decomposition."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactwkb.airy import airy_symbol
from exactwkb.coefficients import GaussianRational
from exactwkb.errors import NotSimpleTurningPoint
from exactwkb.polyring import QPoly
from exactwkb.reduction import (ReductionSeries, airy_basis_decomposition,
                                induced_potential_F, liouville_map,
                                master_relation_residual,
                                reconstruct_from_basis, reduce_to_airy,
                                schrodinger_master_residual,
                                schrodinger_pipeline, schwarzian)
from exactwkb.series import INF, PuiseuxSeries, TaylorSeries
from exactwkb.transport import transport_g


def test_liouville_identity_potential():
    z = liouville_map(TaylorSeries({1: 1}), 8)
    assert (z - PuiseuxSeries({1: 1})).is_zero()


def test_liouville_quadratic_example():
    z = liouville_map(TaylorSeries({1: 1, 2: 1}), 8)
    assert z.coeff(1) == 1
    assert z.coeff(2) == Fr(1, 5)
    assert z.coeff(3) == Fr(-8, 175)


@pytest.mark.parametrize("V", [TaylorSeries({1: 1}, trunc=1), TaylorSeries({}, trunc=0),
                               PuiseuxSeries({0: 0}, trunc=Fr(1, 2))])
def test_liouville_map_needs_v0_and_its_slope_known(V):
    # V = q + O(q) once failed V'(0) != 1 only by reading a missing term as 0
    with pytest.raises(NotSimpleTurningPoint, match=rf"truncation O\(q\^{V.trunc}\)"):
        liouville_map(V, 4)


def test_liouville_symbolic_coefficient():
    v2 = QPoly.gen("v2")
    z = liouville_map(TaylorSeries({1: Fr(1), 2: v2}), 5)
    assert z.coeff(2) == v2 * Fr(1, 5)


def test_liouville_defining_identity():
    # (3/2) int sqrt(V) == z(q)^{3/2} on retained orders
    V = TaylorSeries({1: 1, 2: Fr(1, 3), 3: Fr(-2, 7)})
    N = 9
    z = liouville_map(V, N)
    lhs = V.pow_rational(Fr(1, 2), order=N).antiderivative() * Fr(3, 2)
    rhs = z.pow_rational(Fr(3, 2), order=N)
    assert (lhs - rhs).is_zero()


def test_liouville_rejects_bad_normalization():
    with pytest.raises(NotSimpleTurningPoint):
        liouville_map(TaylorSeries({1: 2}), 4)
    with pytest.raises(NotSimpleTurningPoint):
        liouville_map(TaylorSeries({0: 1, 1: 1}), 4)


def test_schwarzian_chain_rule():
    # {z,q} = -{q,z} (dz/dq)^2 on retained orders
    V = TaylorSeries({1: 1, 2: Fr(1, 2), 3: Fr(1, 5)})
    N = 8
    zq = liouville_map(V, N + 3)
    qz = zq.reversion(N + 3)
    lhs, rhs_q = (schwarzian(PuiseuxSeries({0: f}, lattice=1)).coeff(0)
                  for f in (zq, qz))
    dz = zq.derivative()
    rhs = -(rhs_q.compose(zq)) * dz * dz
    assert (lhs - rhs).with_trunc(N - 1).is_zero()


def test_induced_F_trivial_and_paper_value():
    assert induced_potential_F(TaylorSeries({1: 1}), 6).is_zero()
    F = induced_potential_F(TaylorSeries({1: 1, 2: Fr(1, 2)}), 6)
    assert F.coeff(0) == Fr(-9, 140)


def test_induced_F_symbolic_identity():
    v2, v3 = QPoly.gen("v2"), QPoly.gen("v3")
    F = induced_potential_F(TaylorSeries({1: Fr(1), 2: v2, 3: v3}), 4)
    assert (F.coeff(0) - (v3 * Fr(3, 7) - v2 * v2 * Fr(9, 35))) == 0


def test_reduce_to_airy_trivial_and_constant():
    s = reduce_to_airy(TaylorSeries({}), 8, 10)
    assert all(c.is_zero() for c in s.s_coeffs[1:])
    c = Fr(5, 11)
    s = reduce_to_airy(TaylorSeries({0: c}), 8, 10)
    assert (s.s_coeffs[2] - PuiseuxSeries({0: c})).is_zero()
    assert all(s.s_coeffs[k].is_zero() for k in range(1, 9) if k != 2)


def test_reduce_to_airy_linear_F():
    lam2 = Fr(4, 9)
    s = reduce_to_airy(TaylorSeries({1: lam2}), 4, 10)
    assert (s.s_coeffs[2] - PuiseuxSeries({1: lam2 / 3})).is_zero()
    resid = master_relation_residual(s, TaylorSeries({1: lam2}, trunc=10), orders=4)
    assert all(x.is_zero() for x in resid.coeffs)


@pytest.mark.parametrize("seed", [3, 4])
def test_master_relation_random_cubic(seed):
    rng = random.Random(seed)
    F = TaylorSeries({k: Fr(rng.randint(-8, 8), rng.randint(1, 5))
                      for k in range(4)})
    s = reduce_to_airy(F, 8, 12)
    resid = master_relation_residual(s, F.with_trunc(12), orders=8)
    assert all(x.is_zero() for x in resid.coeffs)
    # odd orders vanish by holomorphy
    assert all(s.s_coeffs[k].is_zero() for k in (1, 3, 5, 7))


def reduce_by_full_residual(F, N_eps, N_z):
    """Reference solver: s_k from eps-order k of the full master residual
    of the partial s (s_k = 0), recomputed at every k; a right-hand side
    known only below z^T gives s_k = 0 + O(z^T)."""
    Fz = F.with_trunc(min(F.trunc, Fr(N_z)))
    coeffs = [PuiseuxSeries.monomial(1, 1)] + [PuiseuxSeries.zero()] * N_eps
    for k in range(1, N_eps + 1):
        partial = ReductionSeries(s_coeffs=tuple(coeffs[:k + 1]))
        rhs = -master_relation_residual(partial, Fz).coeffs[k]
        coeffs[k] = PuiseuxSeries(
            {m: c / (2 * m + 1) for m, c in rhs.coeffs.items()}, trunc=rhs.trunc)
    return coeffs


# the p/q with q <= 6 and |p/q| <= 4, simplest first: the values of
# st.fractions(-4, 4, max_denominator=6), from a cheaper strategy
RATS = st.sampled_from(sorted({Fr(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)},
                              key=lambda f: (f.denominator, abs(f), f < 0)))
RINGS = [RATS, st.builds(GaussianRational, RATS, RATS),
         st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_relaxed_reduction_matches_full_residual(data):
    # every s_k, its z-truncation, key order and (for floats) every bit
    coeff = data.draw(st.sampled_from(RINGS))
    N_eps, N_z = data.draw(st.integers(0, 8)), data.draw(st.integers(2, 10))
    terms = data.draw(st.dictionaries(st.integers(0, 6), coeff, max_size=5))
    trunc = data.draw(st.one_of(st.none(), st.integers(1, N_z - 1)))
    F = TaylorSeries(terms, INF if trunc is None else trunc)
    got = reduce_to_airy(F, N_eps, N_z).s_coeffs
    want = reduce_by_full_residual(F, N_eps, N_z)
    assert len(got) == len(want) == N_eps + 1
    for a, b in zip(got, want):
        assert a.trunc == b.trunc
        assert list(a.coeffs) == list(b.coeffs)
        assert [repr(c) for c in a.coeffs.values()] == [repr(c) for c in b.coeffs.values()]


def test_reduction_rejects_negative_orders():
    with pytest.raises(ValueError, match="N must be >= 0"):
        reduce_to_airy(TaylorSeries({0: 1}), -1, 4)
    with pytest.raises(ValueError, match="N must be >= 0"):
        schrodinger_pipeline(TaylorSeries({1: 1}), -1)
    assert reduce_to_airy(TaylorSeries({0: 1}), 0, 4).order == 0


def test_basis_decomposition_on_basis_elements():
    A = airy_symbol(6)
    dec = airy_basis_decomposition(A, 6)
    assert dec.a_coeffs[0] == PuiseuxSeries({0: 1})
    assert all(c.is_zero() for c in dec.a_coeffs[1:])
    assert all(c.is_zero() for c in dec.b_coeffs)


def test_basis_decomposition_eps_dA():
    # phi = eps dA/dz as a symbol: series v computed like the module does
    N = 5
    A = airy_symbol(N)
    u = list(A.eps_coeffs)
    half = Fr(1, 2)
    v = [PuiseuxSeries.monomial(-1, half) * u[0]]
    quarter = PuiseuxSeries.monomial(Fr(1, 4), -1)
    for m in range(1, N + 1):
        v.append(PuiseuxSeries.monomial(-1, half) * u[m]
                 + u[m - 1].derivative() - quarter * u[m - 1])
    from exactwkb.symbols import WKBSymbol

    phi = WKBSymbol.from_g(v)
    dec = airy_basis_decomposition(phi, N)
    assert all(c.is_zero() for c in dec.a_coeffs)
    assert dec.b_coeffs[0] == PuiseuxSeries({0: 1})
    assert all(c.is_zero() for c in dec.b_coeffs[1:])


def test_basis_decomposition_constant_F():
    c = Fr(1, 3)
    phi = transport_g(TaylorSeries({0: c}), 6)
    dec = airy_basis_decomposition(phi, 6)
    assert dec.holomorphy_scan()
    assert dec.a_coeffs[0].coeff(0) == 1
    assert dec.b_coeffs[0].is_zero()
    rec = reconstruct_from_basis(dec, 6)
    for a, b in zip(rec.eps_coeffs, phi.eps_coeffs):
        assert (a - b).is_zero()


def test_schrodinger_pipeline_identity():
    F, s_q = schrodinger_pipeline(TaylorSeries({1: 1}), 6)
    assert F.is_zero()
    assert (s_q.s_coeffs[0] - PuiseuxSeries({1: 1})).is_zero()
    assert all(c.is_zero() for c in s_q.s_coeffs[1:])


def test_schrodinger_pipeline_quadratic():
    V = TaylorSeries({1: 1, 2: Fr(1, 2)})
    F, s_q = schrodinger_pipeline(V, 6, N_z=9)
    assert F.coeff(0) == Fr(-9, 140)
    assert s_q.s_coeffs[2].coeff(0) == Fr(-9, 140)
    resid = schrodinger_master_residual(s_q, V.with_trunc(9), orders=6)
    assert all(x.is_zero() for x in resid.coeffs)


def test_master_residuals_are_dense_tuples():
    # one z-series per eps-order 0..N, as the CLI, verify and the benchmark
    # check read them; an odd order is the exact zero, since every term in
    # it has a factor of odd order, and those are exact zeros
    V = TaylorSeries({1: 1, 2: Fr(1, 2)})
    N = 6
    F, s_q = schrodinger_pipeline(V, N)
    resid_q = schrodinger_master_residual(s_q, V.with_trunc(N + 4), orders=N)
    resid_z = master_relation_residual(reduce_to_airy(F, N, N + 4), F, orders=N)
    for resid in (resid_q, resid_z):
        assert isinstance(resid.coeffs, tuple) and len(resid.coeffs) == N + 1
        assert all(isinstance(c, PuiseuxSeries) and c.is_zero() for c in resid.coeffs)
    assert [c.trunc for c in resid_q.coeffs] == [10, INF, 8, INF, 7, INF, 4]


def test_schrodinger_pipeline_symbolic_v2():
    v2 = QPoly.gen("v2")
    _, s_q = schrodinger_pipeline(TaylorSeries({1: Fr(1), 2: v2}), 4, N_z=7)
    assert (s_q.s_coeffs[2].coeff(0) - v2 * v2 * Fr(-9, 35)) == 0


def test_parameterized_family_sampled():
    # a potential family with a regular parameter, handled by running the
    # pipeline at sampled values (no symbolic parameter series)
    for beta in (Fr(0), Fr(1, 5), Fr(-1, 3)):
        F = TaylorSeries({0: beta, 1: beta * beta, 2: Fr(1, 7)})
        s = reduce_to_airy(F, 6, 10)
        resid = master_relation_residual(s, F.with_trunc(10), orders=6)
        assert all(x.is_zero() for x in resid.coeffs)
        assert s.s_coeffs[2].coeff(0) == beta
