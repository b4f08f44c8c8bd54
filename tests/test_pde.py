"""Singular-PDE kernel: recursion vs Picard iteration, closed forms,
bounds, and the confluent-function quadrature."""

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest

from exactwkb.airy import airy_contour
from exactwkb.coefficients import GaussianRational
from exactwkb.errors import ContourFailure, DomainExit
from exactwkb.contours import ContourSpec
from exactwkb import pde
from exactwkb.pde import (BivariateSeries, confluent_eval, convergence_radius,
                          delta_sup_on_disk, empirical_x_radius,
                          iteration_bound, local_decomposition, pde_residual,
                          pde_taylor, picard_deltas,
                          picard_partial_sums_match, psi_eval)
from exactwkb.series import (ExponentTable, PuiseuxSeries, TaylorSeries, _principal_pow,
                             max_abs_coeff)
from exactwkb.symbols import zpow
from exactwkb.transport import transport_g

F0 = TaylorSeries({})
H0 = TaylorSeries({})


def bits(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def rand_taylor(rng, deg, gaussian=False):
    def coeff():
        if gaussian:
            return GaussianRational(Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                                    Fr(rng.randint(-9, 9), rng.randint(1, 5)))
        return Fr(rng.randint(-9, 9), rng.randint(1, 5))

    return TaylorSeries({k: coeff() for k in range(deg + 1)})


def test_zero_data_gives_constant_kernel():
    psi = pde_taylor(F0, H0, 12, 12)
    assert all(a.is_zero() for a in psi.a_list[1:])


def test_exponential_closed_form():
    lam = Fr(2, 3)
    psi = pde_taylor(TaylorSeries({0: lam * lam}), TaylorSeries({0: lam}), 20, 8)
    fact = 1
    for n in range(21):
        if n:
            fact *= n
        assert psi.a_list[n].coeff(0) == lam ** n / Fr(fact)
        assert len(psi.a_list[n].coeffs) <= 1


def test_cosh_family_second_coefficient():
    lam = Fr(1, 2)
    psi = pde_taylor(TaylorSeries({1: lam * lam}), H0, 6, 10)
    assert psi.a_list[1].is_zero()
    assert psi.a_list[2] == PuiseuxSeries({1: lam * lam / 6}, trunc=11)


def test_pde_residual_defining_property_and_probes():
    rng = random.Random(9)
    F = rand_taylor(rng, 3)
    h = rand_taylor(rng, 2)
    psi = pde_taylor(F, h, 10, 14)
    assert pde_residual(psi, F) == 0
    one = BivariateSeries(a_list=(PuiseuxSeries({0: 1}),), Nx=0, Nz=5)
    assert pde_residual(one, F0) == 0
    probe = BivariateSeries(a_list=(PuiseuxSeries({0: 1}),) * 3, Nx=2, Nz=5)
    assert abs(pde_residual(probe, TaylorSeries({0: 1}))) == 1


def test_convergence_radius_formula():
    rep = convergence_radius(1.0, 2.0, 10.0, 0.0, 0.0)
    exact = (3.0 / math.e) * (-1.0 + math.sqrt(1.0 + 1.0 / (9.0 * math.e)))
    assert abs(rep.r_prime - exact) < 1e-14
    assert rep.M == 0.0
    # min clamps at small R
    rep2 = convergence_radius(1.0, 2.0, 0.001, 1.0, 1.0)
    assert rep2.r_prime == 0.001
    assert rep2.M == 1.0 + 0.0005
    with pytest.raises(ValueError):
        convergence_radius(2.0, 1.0, 1.0, 0.0, 0.0)


def test_iteration_bound_values():
    assert iteration_bound(0, 0.5, 0.0, 3.0, 1.0, 1.0, 1.0, 2.0) == 3.0
    assert iteration_bound(3, 0.0, 0.0, 3.0, 1.0, 1.0, 1.0, 2.0) == 0.0
    v = iteration_bound(1, 0.1, 0.0, 2.0, 0.0, 1.0, 1.0, 2.0)
    assert abs(v - 2.0 * math.e * 0.1 * (0.1 + 6.0)) < 1e-14


@pytest.mark.parametrize("seed", [11, 1, 2, 3])
def test_picard_sums_reproduce_kernel(seed):
    # the Picard iteration is the kernel's independent exact route
    rng = random.Random(seed)
    F = rand_taylor(rng, 3, gaussian=(seed == 3))
    h = rand_taylor(rng, 2, gaussian=(seed == 3))
    assert picard_partial_sums_match(F, h, 20, 19, 20)


def test_picard_increments_dominated_by_bound():
    F = TaylorSeries({0: Fr(1, 3), 1: Fr(1, 5)})
    h = TaylorSeries({0: Fr(1, 2), 1: Fr(1, 4)})
    r0, r1, R = 1.0, 2.0, 1.0
    d0 = r1 - r0
    Fn = 1 / 3 + r1 / 5
    hn = 1 / 2 + r1 / 4
    M = hn + R / 2 * Fn
    deltas = picard_deltas(F, h, 8, 20, 30)
    for k, d in enumerate(deltas):
        emp = delta_sup_on_disk(d, 0.02, r0)
        bound = iteration_bound(k, 0.02, 0.0, M, Fn, r0, d0, r1)
        assert emp <= bound * (1.0 + 1e-9), (k, emp, bound)


def test_psi_eval_closed_forms():
    lam = 1
    psi = pde_taylor(TaylorSeries({0: lam}), TaylorSeries({0: lam}), 20, 6)
    assert abs(psi_eval(psi, 0.7, 0.1) - math.exp(0.1)) < 1e-12
    psi2 = pde_taylor(TaylorSeries({1: 1}), H0, 24, 24)
    ref = cmath.cosh(0.1 * cmath.sqrt(3 * 0.2 + 0.1) / 3.0)
    assert abs(psi_eval(psi2, 0.2, 0.1) - ref) < 1e-10
    assert psi_eval(psi2, 0.3, 0.0) == 1.0


def test_psi_eval_divergence_warning():
    # kernel for F with a finite radius: geometric-type F
    F = TaylorSeries({k: 1 for k in range(12)})
    psi = pde_taylor(F, H0, 24, 24)
    r = empirical_x_radius(psi, 0.5)
    msgs = []
    psi_eval(psi, 0.5, 3.0 * r, warn=msgs.append)
    assert msgs, "expected a divergence warning far outside the radius"


def test_radius_honesty_inside_r_prime():
    rng = random.Random(23)
    for _ in range(3):
        F = rand_taylor(rng, 2)
        h = rand_taylor(rng, 2)
        psi = pde_taylor(F, h, 30, 12)
        rep = convergence_radius(0.3, 0.6, 10.0, 1.0, 1.0)
        for z_abs in (0.1, 0.3):
            r_emp = empirical_x_radius(psi, z_abs)
            assert r_emp > rep.r_prime


def _term_loop(series, z, power=_principal_pow):
    """The reference value at z: complex(c) * power(z, e) over the terms,
    added one by one in exponent order from 0j."""
    total = 0j
    for e, c in series.terms():
        total += complex(c) * power(z, e)
    return total


@pytest.mark.parametrize("gaussian", [False, True])
def test_kernel_table_values_equal_series_eval(gaussian):
    # the kernel's values_at and a symbol's g_values and minor_values (its
    # g_n shifted by 3n/2), bit for bit against a plain per-term loop.  Nz = 12 reaches exponents
    # above 8, where _principal_pow switches to a float power; z sits just
    # either side of the principal cut and of the symbols' cut at
    # arg z = -2 pi/3
    rng = random.Random(31 + gaussian)
    F = rand_taylor(rng, 2, gaussian)
    psi = pde_taylor(F, rand_taylor(rng, 1, gaussian), 12, 12)
    assert max(e for a in psi.a_list for e in a.coeffs) > 8
    sym = transport_g(F, 12)
    minors = [g.shift(Fr(3 * n, 2)) * Fr(1, math.factorial(n - 1))
              for n, g in enumerate(sym.eps_coeffs[1:], 1)]
    assert min(e for g in sym.eps_coeffs for e in g.coeffs) < -8
    cut = cmath.exp(-2j * math.pi / 3)
    for z in (-0.7 + 1e-12j, -0.7 - 1e-12j, 0.4 + 0.3j, 1.2,
              0.6 * cut * cmath.exp(1e-12j), 0.6 * cut * cmath.exp(-1e-12j)):
        for got, want in ((psi.values_at(z), [_term_loop(a, z) for a in psi.a_list]),
                          (sym.g_values(z), [_term_loop(g, z, zpow) for g in sym.eps_coeffs]),
                          (sym.minor_values(z), [_term_loop(g, z, zpow) for g in minors])):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert bits(g) == bits(w), (z, g, w)


def test_confluent_reads_the_kernel_table_built_once(monkeypatch):
    F = TaylorSeries({0: Fr(1, 3), 1: Fr(-2, 7)})
    h = TaylorSeries({0: Fr(1, 5)})
    psi = pde_taylor(F, h, 20, 20)
    evals, built = [], []
    series_eval, table_init = PuiseuxSeries.eval, ExponentTable.__init__

    def counted_eval(self, *args, **kwargs):
        evals.append(1)
        return series_eval(self, *args, **kwargs)

    def counted_init(self, series):
        built.append(1)
        table_init(self, series)

    monkeypatch.setattr(PuiseuxSeries, "eval", counted_eval)
    monkeypatch.setattr(ExponentTable, "__init__", counted_init)
    for z in (0.9 + 0.3j, 0.6 - 0.2j):
        confluent_eval(F, h, z, 0.08, psi=psi)
    assert evals == []
    # one table for both calls
    assert built == [1]


@pytest.mark.parametrize("Nx", [1, 2, 9, 20])
def test_radius_evaluates_only_the_root_tested_orders(monkeypatch, Nx):
    # the root test reads a_n for n = max(2, Nx - 10) .. Nx, each summed as
    # the whole row of the kernel's table sums it, so r keeps its bits
    F = TaylorSeries({0: Fr(1, 3), 1: Fr(-2, 7), 2: Fr(5, 11)})
    psi = pde_taylor(F, TaylorSeries({0: Fr(1, 5), 1: Fr(1, 4)}), Nx, 20)
    radii = (0.3, 0.9, 2.5)
    want = []
    for z_abs in radii:
        best = math.inf
        for j in range(8):
            vals = np.abs(psi.values_at(z_abs * cmath.exp(2j * math.pi * j / 8)))
            for n in range(max(2, Nx - 10), Nx + 1):
                if vals[n] > 0:
                    best = min(best, vals[n] ** (-1.0 / n))
        want.append(best.hex())
    firsts, values = [], ExponentTable.values

    def counted_values(self, z, zpow=None, first=0):
        firsts.append(first)
        return values(self, z, zpow, first)

    monkeypatch.setattr(ExponentTable, "values", counted_values)
    assert [empirical_x_radius(psi, z_abs).hex() for z_abs in radii] == want
    assert firsts == [max(2, Nx - 10)] * 8 * len(radii)


def test_confluent_trivial_kernel_equals_airy():
    z, eps = 0.9 * cmath.exp(1j * math.pi / 3), 0.05
    c = confluent_eval(F0, H0, z, eps)
    a = airy_contour(z, eps)
    assert abs(c.value - a.value) <= 1e-12 * abs(a.value)


def test_confluent_entire_kernel_vs_direct_quadrature():
    # F = lam^2, h = lam: Psi = exp(lam (z - zhat^2)) exactly
    lam = 0.3
    F = TaylorSeries({0: Fr(9, 100)})
    h = TaylorSeries({0: Fr(3, 10)})
    z, eps = 1.0, 0.08
    got = confluent_eval(F, h, z, eps, Nx=40, Nz=10)

    want = airy_contour(z, eps, g=lambda w: np.exp(lam * (z - w * w))).value
    assert abs(got.value - want) / abs(want) < 1e-10


def test_confluent_decay_rate_with_eps():
    z = 0.9 * cmath.exp(0.15j * math.pi)
    v1 = confluent_eval(F0, H0, z, 0.06).value
    v2 = confluent_eval(F0, H0, z, 0.03).value
    from exactwkb.symbols import action

    pred = -action(z).real * (1 / 0.03 - 1 / 0.06)
    got = math.log(abs(v2 / v1))
    assert abs(got - pred) / abs(pred) < 0.02


@pytest.mark.parametrize("eps", [0.05 + 0.02j, 0.05])
def test_confluent_turning_point_raises(eps):
    # z = 0 is the turning point: there is no saddle path, so any value
    # returned here would carry a meaningless est_error
    with pytest.raises(ContourFailure):
        confluent_eval(F0, H0, 0j, eps)


def test_confluent_explicit_path_domain_exit():
    F = TaylorSeries({k: 1 for k in range(12)})   # radius-limited kernel
    bad = ContourSpec(path=(0.0 + 0j, 5.0 + 0j))
    with pytest.raises(DomainExit):
        confluent_eval(F, H0, 0.4, 0.05, spec=bad, Nx=24, Nz=24)


def test_local_decomposition_S1_airy():
    z = 0.9 * cmath.exp(1j * math.pi / 3)
    rep = local_decomposition(F0, H0, z, [0.02, 0.05, 0.1], N=30)
    for row in rep["rows"]:
        assert row["rel_err"] < 1e-6


def test_local_decomposition_S2_two_term():
    z = 0.9 * cmath.exp(0.9j * math.pi)
    rep = local_decomposition(F0, H0, z, [0.05], N=30)
    row = rep["rows"][0]
    assert row["one_term_rel_err"] > 10.0 * row["rel_err"]


def test_local_decomposition_asymptotic_consistency_small_F():
    Fc = TaylorSeries({0: Fr(1, 10)})
    z = 0.9 * cmath.exp(1j * math.pi / 3)
    grid = [0.02, 0.04, 0.08]
    rep = local_decomposition(Fc, H0, z, grid, N=24)
    errs = [row["rel_err"] for row in rep["rows"]]
    slope = np.polyfit(np.log(grid), np.log(errs), 1)[0]
    assert slope > 0.9, (errs, slope)


def test_local_decomposition_reads_its_sector_from_z():
    assert local_decomposition(F0, H0, 0.9 * cmath.exp(-1j), [0.1], N=16)["sector"] == "S-1"
    with pytest.raises(ValueError, match="lies on the Stokes line L1"):
        local_decomposition(F0, H0, 0.9 * cmath.exp(2j * math.pi / 3), [0.1], N=16)


def test_confluent_rejects_the_kernel_of_other_data():
    F = TaylorSeries({0: Fr(1, 3), 1: Fr(-2, 7)})
    h = TaylorSeries({0: Fr(1, 5)})
    psi = pde_taylor(F, h, 40, 40)
    # with this psi, (0, 0) would give a value 2% off the F = h = 0 one;
    # (F0, h) differs in a_2 only
    for other_F, other_h in ((0, 0), (F0, H0), (F, H0), (F0, h)):
        with pytest.raises(ValueError):
            confluent_eval(other_F, other_h, 0.9 + 0.3j, 0.08, psi=psi)
    # nor is a psi whose a_2 has a z^(-1/2) term, which F's preimage
    # (2 + 4e) a_2 would drop
    a = psi.a_list
    odd = BivariateSeries(a[:2] + (a[2] + PuiseuxSeries({Fr(-1, 2): 1}),) + a[3:], 40, 40)
    with pytest.raises(ValueError):
        confluent_eval(F, h, 0.9 + 0.3j, 0.08, psi=odd)


@pytest.mark.parametrize("Nx, Nz", [(0, 0), (-1, 3), (0, 40), (40, -2)])
def test_kernel_orders_out_of_range_are_refused(Nx, Nz):
    # a_0 and a_1 are always kept, so Nx = 0 once failed a bare assert,
    # and Nz < 0 returned a kernel with every coefficient dropped
    with pytest.raises(ValueError, match="Nx >= 1 and Nz >= 0"):
        pde_taylor(F0, H0, Nx, Nz)
    with pytest.raises(ValueError, match="Nx >= 1 and Nz >= 0"):
        confluent_eval(F0, H0, 0.9 + 0.3j, 0.08, Nx=Nx, Nz=Nz)


# -- the folded recursion and residual against the operator chains ------------

def pde_taylor_by_chain(F, h, Nx):
    """a_0, ..., a_Nx by the PDE recursion written as a chain of series
    operations, each a_n's term z^m then divided by n + 4m."""
    a = [PuiseuxSeries({0: 1}), h]
    for n in range(2, Nx + 1):
        rhs = (-a[n - 2].derivative().derivative()
               + a[n - 1].derivative() * (2 * (n - 2))
               + F * a[n - 2]) * Fr(1, n - 1)
        a.append(PuiseuxSeries({e: c / (n + 4 * e) for e, c in rhs.coeffs.items()},
                               rhs.trunc))
    return a


def pde_residual_by_chain(psi, F):
    """The PDE applied to psi, one x-order at a time by series operations,
    and its largest coefficient."""
    a = psi.a_list
    z4 = PuiseuxSeries.monomial(4, 1)
    terms = []
    for n in range(psi.Nx + 1):
        term = PuiseuxSeries.zero()
        term = term + a[n] * (n * (n - 1))
        term = term + z4 * a[n].derivative() * n
        if n >= 1:
            term = term - a[n - 1].derivative() * (2 * (n - 1))
            term = term + a[n - 1].derivative() * 2
        if n >= 2:
            term = term + a[n - 2].derivative().derivative()
            term = term - F * a[n - 2]
        terms.append(term - z4 * a[n].derivative())
    return max_abs_coeff(terms)


def shuffled_taylor(rng, deg, gaussian):
    """Terms at a random subset of 0..deg inserted in random order (key
    order is not sorted order), untruncated or known below a random order."""
    def q():
        return Fr(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    ks = rng.sample(range(deg + 1), rng.randint(0, deg + 1))
    trunc = rng.choice([math.inf, math.inf, rng.randint(1, deg + 3)])
    return TaylorSeries({k: GaussianRational(q(), q()) if gaussian else q() for k in ks},
                        trunc=trunc)


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("seed", range(12))
def test_folded_pde_taylor_matches_the_operator_chain(seed, gaussian):
    rng = random.Random(200 + seed)
    F, h = shuffled_taylor(rng, 4, gaussian), shuffled_taylor(rng, 3, gaussian)
    Nx, Nz = rng.randint(1, 12), rng.randint(0, 12)
    got = pde_taylor(F, h, Nx, Nz).a_list
    want = pde_taylor_by_chain(F, h, Nx)
    assert len(got) == Nx + 1
    for a, w in zip(got, want):
        w = w.with_trunc(min(w.trunc, Fr(Nz + 1)))
        assert a.trunc == w.trunc and list(a.coeffs.items()) == list(w.coeffs.items())


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("seed", range(12))
def test_folded_pde_residual_matches_the_operator_chain(seed, gaussian):
    rng = random.Random(300 + seed)
    F, h = shuffled_taylor(rng, 4, gaussian), shuffled_taylor(rng, 3, gaussian)
    Nx = rng.randint(0, 12)
    # the kernel of other data, and a hand-built psi of random orders
    kernel = pde_taylor(shuffled_taylor(rng, 4, gaussian), h, max(Nx, 1), 12)
    noise = BivariateSeries(a_list=tuple(shuffled_taylor(rng, 6, gaussian)
                                         for _ in range(Nx + 1)), Nx=Nx, Nz=12)
    for psi in (kernel, noise):
        assert pde_residual(psi, F) == pde_residual_by_chain(psi, F)


# -- the Picard iteration against the {(m, n): Fraction} dict iteration -------

def picard_deltas_by_dict(F, h, K, Nx, Nz):
    """delta_0..delta_K as {(m, n): coeff} in z^m x^n, each integral
    operator of the fixed-point equation applied monomial by monomial in
    the z-window m <= Nz + 2K, an unknown term of F or h read as zero."""
    mz = Nz + 2 * K
    fc = {e.numerator: c for e, c in F.coeffs.items() if e <= mz}
    delta0 = {(e.numerator, 0): c for e, c in h.coeffs.items() if e <= mz}
    for j, c in fc.items():
        delta0[(j, 1)] = c * Fr(1, 4 * j + 2)
    deltas = [delta0]
    for _ in range(K):
        nxt = {}

        def add(key, val):
            if key[0] <= mz and key[1] <= Nx:
                nxt[key] = nxt.get(key, 0) + val

        for (m, n), c in deltas[-1].items():
            if m >= 1:      # 2x int_0^1 u (d_z delta)(z u^4, u x) du
                add((m - 1, n + 1), c * Fr(2 * m, 4 * m + n - 2))
            if m >= 2:      # - int int t (d_z^2 delta)(z u^4, t)
                add((m - 2, n + 2), -c * Fr(m * (m - 1), (n + 2) * (4 * m + n - 5)))
            if m >= 1:      # - int int 2 (d_z delta)(z u^4, t)
                add((m - 1, n + 1), -c * Fr(2 * m, (n + 1) * (4 * m + n - 2)))
            for j, fj in fc.items():    # + int int t F(z u^4) delta(z u^4, t)
                add((j + m, n + 2), c * fj * Fr(1, (n + 2) * (4 * j + 4 * m + n + 3)))
        deltas.append(nxt)
    return [{k: v for k, v in d.items() if k[0] <= Nz} for d in deltas]


def dict_sup_on_disk(delta, x_abs, r):
    best = 0.0
    for j in range(12):
        z = r * cmath.exp(2j * math.pi * j / 12)
        for x in (x_abs, -x_abs, x_abs * 1j):
            best = max(best, abs(sum(complex(c) * z ** m * x ** n
                                     for (m, n), c in delta.items())))
    return best


def as_terms(delta):
    """{(m, n): coeff} of a BivariateSeries increment."""
    return {(int(e), n): c for n, a in enumerate(delta.a_list) for e, c in a.coeffs.items()}


def nonzero(d, below=None):
    return {(m, n): c for (m, n), c in d.items()
            if c != 0 and (below is None or m < below[n])}


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("K, Nx, Nz", [(0, 3, 4), (3, 1, 5), (5, 8, 3), (8, 6, 10)])
def test_picard_deltas_match_the_dict_iteration(K, Nx, Nz, gaussian):
    rng = random.Random(400 + K + gaussian)
    F, h = rand_taylor(rng, 3, gaussian), rand_taylor(rng, 2, gaussian)
    got = picard_deltas(F, h, K, Nx, Nz)
    want = picard_deltas_by_dict(F, h, K, Nx, Nz)
    assert len(got) == len(want) == K + 1
    for k, (d, ref) in enumerate(zip(got, want)):
        assert isinstance(d, BivariateSeries) and (d.Nx, d.Nz) == (Nx, Nz)
        assert all(a.trunc == Nz + 1 for a in d.a_list)
        # the dict's explicit zeros are absent terms
        assert as_terms(d) == nonzero(ref), k


def completed(rng, s, extra, gaussian):
    """s's terms plus random ones at z^trunc .. z^(trunc + extra - 1)."""
    q = rand_taylor(rng, extra - 1, gaussian)
    return TaylorSeries({**s.coeffs, **{e + s.trunc: c for e, c in q.coeffs.items()}})


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
@pytest.mark.parametrize("T", [1, 3, 6])
def test_picard_deltas_carry_a_truncated_h(T, gaussian):
    # delta_k's x-order n draws on h through n orders of z lost in k
    # rounds (k <= n <= 2k), so it is known below z^(T - n) and no further
    rng = random.Random(500 + T + gaussian)
    K, Nx, Nz = 4, 9, 8
    F = rand_taylor(rng, 3, gaussian)
    h = TaylorSeries(rand_taylor(rng, T + 2, gaussian).coeffs, trunc=T)
    got = picard_deltas(F, h, K, Nx, Nz)
    refs = [picard_deltas_by_dict(F, completed(rng, h, Nz + 2 * K + 2, gaussian),
                                  K, Nx, Nz) for _ in range(2)]
    for k, d in enumerate(got):
        below = [min(Nz + 1, T - n) if k <= n <= 2 * k else Nz + 1 for n in range(Nx + 1)]
        assert [a.trunc for a in d.a_list] == below, k
        for ref in refs:
            assert as_terms(d) == nonzero(ref[k], below), k
    # below both truncations, the sums still reproduce the kernel's a_(n+1)
    assert picard_partial_sums_match(F, h, K, Nx, Nz)


@pytest.mark.parametrize("gaussian", [False, True], ids=["fraction", "gaussian"])
def test_delta_sup_on_disk_matches_the_dict_evaluator(gaussian):
    # mixed signs, so the sup is not always taken at z = r, x = x_abs
    rng = random.Random(600 + gaussian)
    F, h = rand_taylor(rng, 3, gaussian), rand_taylor(rng, 2, gaussian)
    for d, ref in zip(picard_deltas(F, h, 8, 12, 16), picard_deltas_by_dict(F, h, 8, 12, 16)):
        for x_abs, r in ((0.02, 1.0), (0.3, 0.7), (0.5, 1.3)):
            want = dict_sup_on_disk(ref, x_abs, r)
            assert abs(delta_sup_on_disk(d, x_abs, r) - want) <= 1e-12 * want


def test_picard_partial_sums_refuse_a_perturbed_kernel(monkeypatch):
    rng = random.Random(41)
    F, h = rand_taylor(rng, 3), rand_taylor(rng, 2)
    K, Nx, Nz = 6, 8, 6
    assert picard_partial_sums_match(F, h, K, Nx, Nz)
    kernel = pde.pde_taylor

    def perturbed(n, m):
        def taylor(*args):
            psi = kernel(*args)
            a = list(psi.a_list)
            a[n] = a[n] + TaylorSeries({m: Fr(1, 10 ** 9)})
            return replace(psi, a_list=tuple(a))
        return taylor

    # a_3's z^2, frozen after 6 rounds, is compared ...
    monkeypatch.setattr(pde, "pde_taylor", perturbed(3, 2))
    assert not picard_partial_sums_match(F, h, K, Nx, Nz)
    # ... and so is the last retained order, but not a_(K+1), which the
    # iteration has not reached yet
    monkeypatch.setattr(pde, "pde_taylor", perturbed(K, Nz))
    assert not picard_partial_sums_match(F, h, K, Nx, Nz)
    monkeypatch.setattr(pde, "pde_taylor", perturbed(K + 1, 0))
    assert picard_partial_sums_match(F, h, K, Nx, Nz)
