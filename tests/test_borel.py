"""Pade poles at both precisions and the closed-form Laplace transform of
a rescaled mpmath Pade approximant, checked against mpmath.quad."""

import cmath

import mpmath
import numpy as np
import pytest

from exactwkb import airy
from exactwkb.airy import airy_borel_sum_hp, airy_oracle
from exactwkb.borel import (PadeApproximant, laplace_pade_mp, pade_from_taylor,
                            partial_fractions)
from exactwkb.errors import ContourFailure, PoleOnRay


def quad_on_real_ray(approx, eps, lam=1, dps=60):
    """int_0^inf exp(-xi/eps) lam num(lam xi)/den(lam xi) dxi by
    mpmath.quad, the ray split at the real parts of the poles p/lam."""
    with mpmath.workdps(dps):
        eps, lam = mpmath.mpc(eps), mpmath.mpc(lam)
        cuts = sorted({complex(p / lam).real for p in approx.poles()
                       if complex(p / lam).real > 0})
        return mpmath.quad(lambda t: mpmath.exp(-t / eps) * lam
                           * mpmath.polyval(approx.num[::-1], lam * t)
                           / mpmath.polyval(approx.den[::-1], lam * t),
                           [0] + cuts + [mpmath.inf])


def test_double_precision_poles_and_residues_are_np_roots():
    c = np.array([(-0.75) ** k / (k + 1) + 0.1j * k for k in range(12)])
    approx = pade_from_taylor(c, 6, 5)
    ps = np.roots(approx.den[::-1])
    rs = np.polyval(approx.num[::-1], ps) / np.polyval(np.polyder(approx.den[::-1]), ps)
    assert (approx.poles() == ps).all()
    assert (approx.residues(ps) == rs).all()


def test_mp_poles_are_polished_roots():
    dps, M = 40, 5
    with mpmath.workdps(dps):
        approx = pade_from_taylor([mpmath.mpc(1) / k for k in range(1, 12)], 5, M)
        ps = approx.poles()
        q = approx.den[::-1]
        big = max(abs(x) for x in q)
        for p in ps:
            assert abs(mpmath.polyval(q, p)) \
                <= mpmath.mpf(10) ** (5 - dps) * big * max(1, abs(p)) ** M
    seeds = np.roots(np.array([complex(x) for x in q]))
    assert len(ps) == len(seeds) == M
    for p in ps:
        assert np.min(np.abs(seeds - complex(p))) <= 1e-10


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("inside", [True, False])
def test_single_pole_closed_form_vs_quad(sign, inside):
    # arg eps = +-0.7; the pole sits at arg +-0.35, inside the sector
    # between arg xi = 0 and arg eps or mirrored outside it
    eps = 0.3 * cmath.exp(0.7j * sign)
    p = 1.2 * cmath.exp(0.35j * (sign if inside else -sign))
    with mpmath.workdps(40):
        r = mpmath.mpc(0.7, -0.4)
        approx = PadeApproximant(num=[2 * r], den=[-2 * mpmath.mpc(p), mpmath.mpc(2)])
        got = laplace_pade_mp(partial_fractions(approx), eps)
    ref = quad_on_real_ray(approx, eps)
    assert abs(got - ref) <= 1e-25 * abs(ref)


def test_rescaled_closed_form_vs_quad():
    # lam R(lam xi) with a polynomial part, its pole p/lam between the
    # rays arg xi = 0 and arg eps
    eps, lam = 0.25 * cmath.exp(0.6j), 0.8 * cmath.exp(-1.0j)
    with mpmath.workdps(40):
        p, r = mpmath.mpc(cmath.rect(1.1, -0.7)), mpmath.mpc(0.3, 0.5)
        approx = PadeApproximant(num=[r - 0.5 * p, 0.5 - p, mpmath.mpc(1)],
                                 den=[-p, mpmath.mpc(1)])
        got = laplace_pade_mp(partial_fractions(approx), eps, lam)
    ref = quad_on_real_ray(approx, eps, lam)
    assert abs(got - ref) <= 1e-25 * abs(ref)


def test_hp_sum_with_polynomial_part_vs_quad(monkeypatch):
    seen = []

    def spy(fractions, eps, lam):
        seen.append((fractions.approx, eps, lam, laplace_pade_mp(fractions, eps, lam)))
        return seen[-1][3]

    monkeypatch.setattr(airy, "laplace_pade_mp", spy)
    z, eps = 1.1 * cmath.exp(0.4j), 0.08 * cmath.exp(0.3j)
    got = airy_borel_sum_hp(z, eps, 20, pade=(12, 6), dps=40)
    (approx, em, lam, integral), = seen
    assert len(approx.num) - len(approx.den) == 6
    assert abs(complex(lam) - z ** -1.5) <= 1e-15 * abs(lam)
    ref = quad_on_real_ray(approx, em, lam)
    assert abs(integral - ref) <= 1e-25 * abs(1 + ref)
    oracle = airy_oracle(z, eps)
    assert abs(complex(got) - oracle) <= 1e-8 * abs(oracle)


def test_pole_on_the_ray_raises():
    with mpmath.workdps(40):
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[mpmath.mpc(-1.5), mpmath.mpc(1)])
        with pytest.raises(PoleOnRay):
            laplace_pade_mp(partial_fractions(approx), 0.2 * cmath.exp(0.3j))
        # a pole at t = -1.5 rescaled by lam = -1 onto the ray
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[mpmath.mpc(1.5), mpmath.mpc(1)])
        with pytest.raises(PoleOnRay):
            laplace_pade_mp(partial_fractions(approx), 0.2, -1)
        with pytest.raises(PoleOnRay):
            laplace_pade_mp(partial_fractions(approx), -0.2j)


def test_double_pole_raises_contour_failure():
    with mpmath.workdps(40):
        p = mpmath.mpc(1, 2)
        approx = PadeApproximant(num=[mpmath.mpc(1)], den=[p * p, -2 * p, mpmath.mpc(1)])
        with pytest.raises(ContourFailure):
            laplace_pade_mp(partial_fractions(approx), 0.2)


def test_hp_sum_makes_no_quadrature_call(monkeypatch):
    calls = []
    quad = mpmath.quad

    def counted_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(mpmath, "quad", counted_quad)
    got = airy_borel_sum_hp(1.0, 0.1, 24, dps=40)
    assert calls == []
    assert abs(complex(got) - airy_oracle(1.0, 0.1)) <= 1e-10 * abs(complex(got))


@pytest.mark.parametrize("pade", [(3, -1), (-1, 3)])
def test_negative_pade_order_refused_at_both_precisions(pade):
    # at high precision (3, -1) once returned the bare prefactor and
    # (-1, 3) raised ZeroDivisionError
    for borel_sum in (airy.airy_borel_sum, airy_borel_sum_hp):
        with pytest.raises(ValueError, match="Pade orders must be nonnegative"):
            borel_sum(1.0, 0.1, 24, pade=pade)
