"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them) and asserts both the tolerance and the stated runtime budget.
"""

import cmath
import math
import random
import time
from fractions import Fraction as Fr

import mpmath

from exactwkb.airy import (airy_alpha, airy_borel_sum, airy_borel_sum_hp,
                           airy_contour, airy_symbol, stokes_jump,
                           symbol_borel_sum)
from exactwkb.coefficients import GaussianRational
from exactwkb.hardy import (hardy_identities_hold, hardy_S_T,
                            quasi_homogeneous_ok)
from exactwkb.pde import (convergence_radius, empirical_x_radius,
                          local_decomposition, pde_taylor,
                          picard_partial_sums_match, psi_eval)
from exactwkb.polyring import QPoly
from exactwkb.reduction import (airy_basis_decomposition,
                                induced_potential_F,
                                master_relation_residual,
                                reconstruct_from_basis, reduce_to_airy)
from exactwkb.series import PuiseuxSeries, TaylorSeries
from exactwkb.stokes import (canonical_stokes_lines,
                             node_condition_residuals,
                             potential_stokes_curves)
from exactwkb.transport import transport_g


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc, *a):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc is None else "FAIL"
        print(f"[{status}] {self.label} ({dt:.2f}s, budget {self.budget:.0f}s)")
        assert dt < self.budget, f"{self.label}: runtime {dt:.2f}s over budget"
        return False


def test_criterion_01_airy_coefficient_identity():
    with _Timer("criterion 1: closed-form alpha_n == transport recursion, n <= 30", 1.0):
        sym = transport_g(TaylorSeries({}), 30)
        for n in range(31):
            expect = PuiseuxSeries({Fr(-3 * n, 2): airy_alpha(n)})
            assert (sym.eps_coeffs[n] - expect).is_zero(), n
        assert airy_alpha(1) == Fr(-5, 48)
        assert airy_alpha(2) == Fr(385, 4608)


def test_criterion_02_borel_summability():
    with _Timer("criterion 2: Borel-Pade sum vs contour, decreasing error", 10.0):
        eps_list = [0.1, 0.05, 0.02]
        for eps in eps_list:
            b = airy_borel_sum(1.0, eps, 24, pade=(12, 12))
            c = airy_contour(1.0, eps)
            assert abs(b.value - c.value) / abs(c.value) < 1e-8, eps
        # the double-precision differences sit at the arithmetic floor, so
        # the decrease of the summation error is resolved in mpmath
        # arithmetic against the same target function (the contour value
        # equals the scaled Ai within 1e-10, asserted by criterion and by
        # the rel-error checks above)
        errs = []
        with mpmath.workdps(40):
            for eps in eps_list:
                em = mpmath.mpf(str(eps))
                got = airy_borel_sum_hp(1.0, em, 24, pade=(12, 12), dps=40)
                oracle = 2 * mpmath.sqrt(mpmath.pi) * em ** mpmath.mpf("-1/6") \
                    * mpmath.airyai(em ** mpmath.mpf("-2/3"))
                errs.append(float(abs(got - oracle) / abs(oracle)))
        assert errs[0] > errs[1] > errs[2], errs


def test_criterion_03_stokes_jump():
    with _Timer("criterion 3: Stokes jump == alien-derivative prediction", 30.0):
        z = 0.8 * cmath.exp(2j * math.pi / 3)
        jump, pred = stokes_jump(z, 0.05, 40)
        assert abs(jump - pred) / abs(pred) < 1e-4
        z_off = 0.8 * cmath.exp(1j * math.pi / 3)
        jump_off, _ = stokes_jump(z_off, 0.05, 40)
        scale = abs(symbol_borel_sum(airy_symbol(39), z_off, 0.05).value)
        assert abs(jump_off) / scale < 1e-8


def test_criterion_04_pde_oracle_equivalence():
    with _Timer("criterion 4: kernel recursion == Picard iteration (exact)", 5.0):
        rng = random.Random(20260809)

        def g():
            return GaussianRational(Fr(rng.randint(-9, 9), rng.randint(1, 6)),
                                    Fr(rng.randint(-9, 9), rng.randint(1, 6)))

        F = TaylorSeries({k: g() for k in range(4)})
        h = TaylorSeries({k: g() for k in range(3)})
        assert picard_partial_sums_match(F, h, 20, 19, 20)


def test_criterion_05_closed_form_examples():
    with _Timer("criterion 5: closed-form kernels (exp and cosh families)", 5.0):
        lam = Fr(3, 7)
        psi = pde_taylor(TaylorSeries({0: lam * lam}),
                         TaylorSeries({0: lam}), 20, 6)
        fact = 1
        for n in range(21):
            if n:
                fact *= n
            assert (psi.a_list[n]
                    - PuiseuxSeries({0: lam ** n / Fr(fact)}, trunc=7)).is_zero()
        lam2 = Fr(1)
        psi2 = pde_taylor(TaylorSeries({1: lam2}), TaylorSeries({}), 24, 24)
        assert (psi2.a_list[2] - PuiseuxSeries({1: Fr(1, 6)}, trunc=25)).is_zero()
        z, x = 0.2, 0.1
        ref = cmath.cosh(x * cmath.sqrt(3 * z + x) / 3.0)
        assert abs(psi_eval(psi2, z, x) - ref) < 1e-10


def test_criterion_06_convergence_radius():
    with _Timer("criterion 6: explicit radius formula + empirical honesty", 10.0):
        rep = convergence_radius(1.0, 2.0, 10.0, 0.0, 0.0)
        exact = (3.0 / math.e) * (-1.0 + math.sqrt(1.0 + 1.0 / (9.0 * math.e)))
        assert abs(rep.r_prime - exact) < 1e-12
        assert abs(rep.r_prime - 0.02233) < 1e-5
        rng = random.Random(6)
        for _ in range(3):
            F = TaylorSeries({k: Fr(rng.randint(-5, 5), rng.randint(1, 4))
                              for k in range(3)})
            h = TaylorSeries({k: Fr(rng.randint(-5, 5), rng.randint(1, 4))
                              for k in range(3)})
            psi = pde_taylor(F, h, 30, 12)
            for z_abs in (0.25, 0.5, 1.0):
                assert empirical_x_radius(psi, z_abs) > rep.r_prime
            msgs = []
            psi_eval(psi, 0.5, rep.r_prime, warn=msgs.append)
            assert not msgs


def test_criterion_07_sector_decomposition():
    with _Timer("criterion 7: sector decomposition in S1 and S2 (F = 0)", 60.0):
        F0, h0 = TaylorSeries({}), TaylorSeries({})
        z1 = 0.9 * cmath.exp(1j * math.pi / 3)
        rep = local_decomposition(F0, h0, z1, [0.02, 0.04, 0.06, 0.08, 0.1], N=30)
        for row in rep["rows"]:
            assert row["rel_err"] < 1e-6, row
        z2 = 0.9 * cmath.exp(0.9j * math.pi)
        rep2 = local_decomposition(F0, h0, z2, [0.05], N=30)
        row = rep2["rows"][0]
        assert row["one_term_rel_err"] >= 10.0 * row["rel_err"], row


def test_criterion_08_schwarzian_reduction():
    with _Timer("criterion 8: induced F(0) identities (symbolic + numeric)", 2.0):
        v2, v3 = QPoly.gen("v2"), QPoly.gen("v3")
        F = induced_potential_F(TaylorSeries({1: Fr(1), 2: v2, 3: v3}), 4)
        assert (F.coeff(0) - (v3 * Fr(3, 7) - v2 * v2 * Fr(9, 35))) == 0
        F2 = induced_potential_F(TaylorSeries({1: 1, 2: Fr(1, 2)}), 5)
        assert F2.coeff(0) == Fr(-9, 140)


def test_criterion_09_reduction_master_relation():
    with _Timer("criterion 9: reduction residual zero through eps^8", 5.0):
        rng = random.Random(9)
        cases = [TaylorSeries({}),
                 TaylorSeries({0: Fr(2, 5)}),
                 TaylorSeries({1: Fr(9, 4)}),
                 TaylorSeries({k: Fr(rng.randint(-7, 7), rng.randint(1, 5))
                               for k in range(4)})]
        for F in cases:
            s = reduce_to_airy(F, 8, 12)
            resid = master_relation_residual(s, F.with_trunc(12), orders=8)
            assert all(x.is_zero() for x in resid.coeffs)
        c = Fr(2, 5)
        s = reduce_to_airy(TaylorSeries({0: c}), 8, 12)
        assert (s.s_coeffs[2] - PuiseuxSeries({0: c})).is_zero()
        assert all(s.s_coeffs[k].is_zero() for k in range(1, 9) if k != 2)


def test_criterion_10_airy_basis_decomposition():
    with _Timer("criterion 10: Airy-basis decomposition exact through eps^6", 5.0):
        c = Fr(1, 3)
        phi = transport_g(TaylorSeries({0: c}), 6)
        dec = airy_basis_decomposition(phi, 6)
        rec = reconstruct_from_basis(dec, 6)
        for a, b in zip(rec.eps_coeffs, phi.eps_coeffs):
            assert (a - b).is_zero()
        assert dec.holomorphy_scan()
        assert dec.a_coeffs[0].coeff(0) == 1
        assert dec.b_coeffs[0].is_zero()


def test_criterion_11_hardy_identities():
    with _Timer("criterion 11: Hardy structural identities, n <= 8 + table", 2.0):
        for n in range(1, 9):
            pair = hardy_S_T(n)
            assert hardy_identities_hold(pair)
            assert quasi_homogeneous_ok(pair)
        p1, p2, p3 = hardy_S_T(1), hardy_S_T(2), hardy_S_T(3)
        assert p1.S == {(0, 3): Fr(8, 3), (1, 1): Fr(-2)}
        assert p1.T == {(0, 0): Fr(1, 2)}
        assert p2.S == {(0, 4): Fr(4), (1, 2): Fr(-4), (2, 0): Fr(1, 2)}
        assert p2.T == {(0, 1): Fr(1)}
        assert p3.S == {(0, 5): Fr(32, 5), (1, 3): Fr(-8), (2, 1): Fr(2)}
        assert p3.T == {(0, 2): Fr(2), (1, 0): Fr(-1, 2)}


def test_criterion_12_stokes_tracing():
    with _Timer("criterion 12: Stokes tracing node condition + canonical rays", 10.0):
        V = TaylorSeries({1: 1, 2: Fr(1, 2)})
        diag = potential_stokes_curves(V, 0.0, step=0.01, extent=1.5,
                                       region_radius=5.0)
        assert max(node_condition_residuals(V, diag)) < 1e-10
        rays = canonical_stokes_lines(0.0)
        args = sorted(cmath.phase(line[-1]) for line in rays.lines)
        expect = sorted((0.0, 2 * math.pi / 3, -2 * math.pi / 3))
        assert all(abs(a - b) == 0.0 for a, b in zip(args, expect))
